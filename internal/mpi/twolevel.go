package mpi

// Topology-aware two-level collectives (MVAPICH2's leader-based
// schedules), driven by netsim's node grouping: each node elects a
// leader, node-local traffic rides the fast intra-node link, and only
// the leaders talk across the network — so the slow inter-node link
// carries one message stream per node instead of one per rank.
// BcastHierarchical (coll.go) is the broadcast member of the family and
// twoLevelSteps (schedule.go) the allreduce; this file adds the allgather.

import (
	"fmt"

	"mpicomp/internal/gpusim"
)

// AllgatherHierarchical is the two-level allgather: node members deposit
// their blocks with the node leader, the leaders ring-exchange whole
// node superblocks across the network — relaying each superblock's
// compressed payload verbatim, exactly like the flat ring — and each
// leader hands the assembled vector back to its node. The superblock
// relay sends nodes-1 messages per leader instead of ranks-1 per rank,
// so the network pays per-message overhead per node. The schedule needs
// every node's world-indexed region contiguous and fully populated, so
// shrunken or rerouted views (and worlds with no hierarchy) fall back to
// the flat ring allgather.
func (r *Rank) AllgatherHierarchical(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.allgatherHierarchical(sendBuf, recvBuf) })
}

func (r *Rank) allgatherHierarchical(sendBuf, recvBuf *gpusim.Buffer) error {
	w := r.world
	v, err := r.collView()
	if err != nil {
		return err
	}
	blk := sendBuf.Len()
	if recvBuf.Len() != r.Size()*blk {
		return fmt.Errorf("mpi: allgather recv buffer %d bytes, want %d", recvBuf.Len(), r.Size()*blk)
	}
	if w.ppn == 1 || w.nodes == 1 || v.live != nil || blk == 0 {
		return r.allgather(sendBuf, recvBuf)
	}
	myNode := r.Node()
	leader := myNode * w.ppn // identity view: a node's first rank leads
	gtag := r.collTag(baseGather)
	btag := r.collTag(baseBcast)

	// Own contribution (device-local copy), as in the flat ring.
	own := recvBuf.Slice(r.id*blk, blk)
	if sendBuf.Loc == gpusim.Device {
		r.Dev.MemcpyD2D(r.Clock, r.Dev.Stream(0), own.Data, sendBuf.Data)
		r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
	} else {
		copy(own.Data, sendBuf.Data)
	}
	own.MarkDirty()

	if r.id != leader {
		// Stage 1: deposit the block with the leader; stage 3: receive
		// the fully assembled vector.
		if err := r.send(leader, gtag, sendBuf); err != nil {
			return fmt.Errorf("mpi: two-level allgather send: %w", err)
		}
		if err := r.recv(leader, btag, recvBuf); err != nil {
			return fmt.Errorf("mpi: two-level allgather result: %w", err)
		}
		return nil
	}

	// Leader: collect the node's blocks into the node's region.
	for p := leader + 1; p < leader+w.ppn; p++ {
		if err := r.recv(p, gtag, recvBuf.Slice(p*blk, blk)); err != nil {
			return fmt.Errorf("mpi: two-level allgather gather: %w", err)
		}
	}

	// Stage 2: ring-relay whole node superblocks among the leaders —
	// compress once, forward the wire payload verbatim (relayRing).
	nodes := w.nodes
	nblk := w.ppn * blk
	payload, hdr := r.Engine.CompressForLinkCached(r.Clock, recvBuf.Slice(myNode*nblk, nblk), w.cluster.InterNode.BandwidthGBps)
	err = r.relayRing(((myNode-1+nodes)%nodes)*w.ppn, ((myNode+1)%nodes)*w.ppn, r.collTag(baseAllgather), nodes-1, payload, hdr,
		func(step int) *gpusim.Buffer {
			return recvBuf.Slice(((myNode-step-1+nodes)%nodes)*nblk, nblk)
		})
	if err != nil {
		return fmt.Errorf("mpi: two-level allgather %w", err)
	}

	// Stage 3: hand the assembled vector back to the node.
	for p := leader + 1; p < leader+w.ppn; p++ {
		if err := r.send(p, btag, recvBuf); err != nil {
			return fmt.Errorf("mpi: two-level allgather result send: %w", err)
		}
	}
	return nil
}
