package mpi

// Topology-aware two-level collectives (MVAPICH2's leader-based
// schedules), driven by netsim's node grouping: each node elects a
// leader, node-local traffic rides the fast intra-node link, and only
// the leaders talk across the network — so the slow inter-node link
// carries one message stream per node instead of one per rank.
// BcastHierarchical (coll.go) is the broadcast member of the family;
// this file adds the allreduce and allgather.
//
// Leader election mirrors bcastHierarchical: the first surviving rank of
// a node in view order leads it, so on the identity view the leader is
// simply each node's first rank and the schedule is deterministic; under
// a shrunken view the allreduce re-elects and completes on survivors.

import (
	"fmt"

	"mpicomp/internal/gpusim"
)

// electLeaders walks the view in order and picks each node's first
// surviving rank as its leader. nodeIdx maps a node to its dense index
// in liveNodes (-1 when no rank of the node survives), leaderOf to its
// leader's world rank.
func (w *World) electLeaders(v collView) (nodeIdx, leaderOf, liveNodes []int) {
	nodeIdx = make([]int, w.nodes)
	leaderOf = make([]int, w.nodes)
	for i := range nodeIdx {
		nodeIdx[i] = -1
	}
	for vr := 0; vr < v.size; vr++ {
		id := v.real(vr)
		if n := w.nodeOf(id); nodeIdx[n] < 0 {
			nodeIdx[n] = len(liveNodes)
			leaderOf[n] = id
			liveNodes = append(liveNodes, n)
		}
	}
	return nodeIdx, leaderOf, liveNodes
}

// AllreduceSumHierarchical is the two-level allreduce: ranks fold their
// vectors into their node leader over the intra-node link, the leaders
// run a recursive-doubling allreduce across the network, and each leader
// fans the result back out to its node. The inter-node stage reuses the
// recursive-doubling rounds (chunk pipelining, fold for non-power-of-two
// node counts), so only ceil(log2 nodes) network latencies are paid and
// each node's vector crosses the network log2(nodes) times instead of
// once per rank. Worlds with no hierarchy to exploit (one node, or one
// rank per node) run flat recursive doubling instead.
func (r *Rank) AllreduceSumHierarchical(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.allreduceSumHierarchical(sendBuf, recvBuf) })
}

func (r *Rank) allreduceSumHierarchical(sendBuf, recvBuf *gpusim.Buffer) error {
	w := r.world
	if w.ppn == 1 || w.nodes == 1 {
		return r.rdAllreduce(sendBuf, recvBuf, true)
	}
	v, done, err := r.allreduceSetup(AllreduceTwoLevel, sendBuf, recvBuf, false)
	if done {
		return err
	}
	nodeIdx, leaderOf, liveNodes := w.electLeaders(v)
	myNode := r.Node()
	leader := leaderOf[myNode]
	rtag := r.collTag(baseReduce)
	btag := r.collTag(baseBcast)

	if r.id != leader {
		// Stage 1: fold into the node leader — sendBuf itself when
		// device-resident, for the compress-once cache's benefit — then
		// wait for the finished result from stage 3.
		src := recvBuf
		if sendBuf.Loc == gpusim.Device {
			src = sendBuf
		}
		if err := r.send(leader, rtag, src); err != nil {
			return fmt.Errorf("mpi: two-level reduce send: %w", err)
		}
		if err := r.recv(leader, btag, recvBuf); err != nil {
			return fmt.Errorf("mpi: two-level result recv: %w", err)
		}
		return nil
	}

	// Leader: accumulate the node's contributions in view order (a fixed
	// order keeps the float sum deterministic).
	scratch := r.takeScratch(recvBuf, sendBuf.Len())
	defer r.putScratch()
	for vr := 0; vr < v.size; vr++ {
		peer := v.real(vr)
		if w.nodeOf(peer) != myNode || peer == r.id {
			continue
		}
		if err := r.recv(peer, rtag, scratch); err != nil {
			return fmt.Errorf("mpi: two-level reduce recv: %w", err)
		}
		sumFloat32(r, recvBuf, scratch.Data)
	}

	// Stage 2: recursive doubling among the surviving node leaders.
	if len(liveNodes) > 1 {
		peers := make([]int, len(liveNodes))
		for i, nd := range liveNodes {
			peers[i] = leaderOf[nd]
		}
		chunk := ringChunk(r.Engine.Config().PipelineChunkBytes)
		if err := r.rdRoundsOver(peers, nodeIdx[myNode], recvBuf, scratch, nil, chunk, r.collTag(baseAllreduce)); err != nil {
			return fmt.Errorf("mpi: two-level inter-node stage: %w", err)
		}
	}

	// Stage 3: fan the result back out within the node.
	for vr := 0; vr < v.size; vr++ {
		peer := v.real(vr)
		if w.nodeOf(peer) != myNode || peer == r.id {
			continue
		}
		if err := r.send(peer, btag, recvBuf); err != nil {
			return fmt.Errorf("mpi: two-level result send: %w", err)
		}
	}
	return nil
}

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
