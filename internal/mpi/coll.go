package mpi

import (
	"errors"
	"fmt"

	"mpicomp/internal/core"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// collView computes this rank's collective view: the identity unless the
// world has shrunk, when fated ranks are excluded and get an immediate
// error. Once a self-heal recovery has advanced this rank's epoch, the view
// follows the fabric's fault-avoiding route order (heal.go).
func (r *Rank) collView() (sched.View, error) {
	if err := r.checkHealth(); err != nil {
		return sched.View{}, err
	}
	w := r.world
	if len(w.doomed) == 0 || !w.shrunk.Load() {
		if w.healOn && r.healEpoch > 0 && w.routeView != nil {
			// Link-only recovery: every rank survives, but the ring order
			// reroutes around the failed links.
			v := sched.View{Size: w.size, Live: w.routeOrdered(w.everyone)}
			v.VRank = v.Vof(r.id)
			return v, nil
		}
		return sched.View{Size: w.size, VRank: r.id}, nil
	}
	live := w.live
	if w.healOn && r.healEpoch > 0 {
		live = w.routeOrdered(live)
	}
	v := sched.View{Size: len(live), Live: live}
	v.VRank = v.Vof(r.id)
	if v.VRank < 0 {
		return sched.View{}, fmt.Errorf("mpi: rank %d is fated and excluded from the shrunk communicator: %w", r.id, ErrPeerFailed)
	}
	return v, nil
}

// consumeRaw decompresses a relayed raw payload into dst and releases its
// staging buffer — the per-hop consume step of the compression-aware
// collectives. The real decode fans across the codec worker pool while the
// simulated kernel accounting stays on this rank's goroutine. A relayed
// payload is the same immutable bytes on every consuming rank: the first
// to get here runs the codec job and publishes its output on the companion
// the payload traveled with, and the others copy it
// (core.DecompressRelayed). A raw compression chunk stream (a pipelined
// Alltoallv segment) has no whole payload: its chunks are verified and
// decoded here, in the order the receive would have drained them.
func (r *Rank) consumeRaw(raw rawResult, dst *gpusim.Buffer) error {
	if raw.chunks != nil {
		into := &Request{buf: dst}
		for _, i := range chunkOrder(raw.chunks) {
			if err := r.decodeChunk(&raw.chunks[i], into); err != nil {
				return fmt.Errorf("chunk %d: %w", i, err)
			}
		}
		return nil
	}
	err := r.Engine.DecompressRelayed(r.Clock, raw.hdr, raw.payload, dst, raw.decoded)
	// Hand the staging slot back even when the decode fails — an aborting
	// collective must not leak pool credits.
	r.Engine.ReleaseRecv(r.Clock, raw.staged)
	r.dropRawStaged(raw.staged)
	return err
}

// relayDecoded is the decoded-form companion a relay's origin attaches to
// the payload it is about to send around: none when a single rank will
// consume it (nothing to share).
func (r *Rank) relayDecoded(hdr core.Header, consumers int) *core.Decoded {
	if consumers < 2 || r.world.decodePerRank {
		return nil
	}
	return core.NewDecoded(hdr)
}

// Barrier synchronizes all ranks (dissemination algorithm, O(log P)
// rounds of small host messages).
func (r *Rank) Barrier() error {
	return r.run(collective{name: "barrier", root: noRoot, send: gpusim.NewHostBuffer(1), recv: gpusim.NewHostBuffer(1),
		steps: sched.Barrier})
}

// Bcast broadcasts root's buf to every rank over a binomial tree — the
// algorithm osu_bcast exercises for large messages — compression-aware:
// the root compresses once, interior ranks forward the self-describing
// payload before decompressing their own copy, and every rank decompresses
// exactly once (treeRelay). Relayed payloads at least twice the pipeline
// chunk size ride the chunk-granular reliability path hop by hop.
func (r *Rank) Bcast(root int, buf *gpusim.Buffer) error {
	return r.run(collective{name: "bcast", root: root, send: buf, recv: buf,
		steps: func(l sched.Layout) []sched.Step {
			return sched.Bcast(l, root, sched.Span{N: buf.Len(), Buf: sched.InSend})
		}})
}

// treeRelay is one rank's part of a compression-aware broadcast tree: the
// root (from < 0) checks its health and compresses out once, any other rank
// takes the wire payload from its parent as a raw receive; the payload goes
// on to the children verbatim, in order, and only then is decoded into
// `into`. A root serving two or more children attaches a decoded-form
// companion.
func (r *Rank) treeRelay(from int, children []int, tag int, out, into *gpusim.Buffer) error {
	var raw rawResult
	if from < 0 {
		if err := r.checkHealth(); err != nil {
			return err
		}
		raw.payload, raw.hdr = r.Engine.CompressForLinkCached(r.Clock, out, r.shareGBps(0, r.world.nodes-1))
		raw.decoded = r.relayDecoded(raw.hdr, len(children))
	} else {
		req, err := r.irecv(from, tag, nil)
		if err == nil {
			err = r.Wait(req)
		}
		if err != nil {
			return err
		}
		raw = req.raw
	}
	sends := make([]*Request, 0, len(children))
	for _, c := range children {
		req, err := r.isendPayload(c, tag, raw.payload, raw.hdr, raw.decoded)
		if err != nil {
			return err
		}
		sends = append(sends, req)
	}
	if from >= 0 {
		if err := r.consumeRaw(raw, into); err != nil {
			return fmt.Errorf("tree decompress: %w", err)
		}
	}
	return r.Waitall(sends...)
}

// relayRing is the compression-aware ring every allgather-shaped phase
// runs: `steps` times, forward payload to right while the next one arrives
// from left, and decompress the previous arrival into dstOf(its step) while
// this step's transfers fly. The payload travels verbatim with its origin's
// decoded-form companion (relayDecoded): compressed once, decoded once.
func (r *Rank) relayRing(left, right, tag, steps int, payload []byte, hdr core.Header, dstOf func(step int) *gpusim.Buffer) error {
	dec := r.relayDecoded(hdr, steps)
	var arrived rawResult
	var into *gpusim.Buffer // nil until the first arrival
	consume := func() error {
		if into == nil {
			return nil
		}
		if err := r.consumeRaw(arrived, into); err != nil {
			return fmt.Errorf("relay decompress: %w", err)
		}
		return nil
	}
	for step := 0; step < steps; step++ {
		rreq, err := r.irecv(left, tag, nil)
		if err != nil {
			return err
		}
		sreq, err := r.isendPayload(right, tag, payload, hdr, dec)
		if err != nil {
			return fmt.Errorf("relay step %d: %w", step, err)
		}
		if err := consume(); err != nil {
			return err
		}
		if err := r.Waitall(sreq, rreq); err != nil {
			return fmt.Errorf("relay step %d: %w", step, err)
		}
		arrived, into = rreq.raw, dstOf(step)
		payload, hdr, dec = arrived.payload, arrived.hdr, arrived.decoded
	}
	return consume()
}

// Allgather gathers each rank's sendBuf into every rank's recvBuf
// (world-size * len(sendBuf) bytes, rank i's block at offset
// i*len(sendBuf)) around the ring MVAPICH2 uses for large messages
// (sched.Allgather). Under an active shrink the ring runs over the
// surviving subset and the fated ranks' blocks are left untouched.
func (r *Rank) Allgather(sendBuf, recvBuf *gpusim.Buffer) error {
	blk := sendBuf.Len()
	return r.run(collective{name: "allgather", root: noRoot, send: sendBuf, recv: recvBuf,
		bad:   lenErr(true, "allgather recv", recvBuf, r.Size()*blk),
		steps: func(l sched.Layout) []sched.Step { return sched.Allgather(l, blk, false) }})
}

// BcastHierarchical is MVAPICH2's two-level broadcast (sched.BcastHier);
// the model can keep its intra-node fan-out uncompressed.
func (r *Rank) BcastHierarchical(root int, buf *gpusim.Buffer) error {
	return r.run(collective{name: "bcast-hier", root: root, send: buf, recv: buf,
		steps: func(l sched.Layout) []sched.Step { return sched.BcastHier(l, root, buf.Len()) }})
}

// AllgatherHierarchical is the two-level allgather (sched.AllgatherHier),
// recvBuf laid out as Allgather's.
func (r *Rank) AllgatherHierarchical(sendBuf, recvBuf *gpusim.Buffer) error {
	blk := sendBuf.Len()
	return r.run(collective{name: "allgather-hier", root: noRoot, send: sendBuf, recv: recvBuf,
		bad:   lenErr(true, "allgather recv", recvBuf, r.Size()*blk),
		steps: func(l sched.Layout) []sched.Step { return sched.AllgatherHier(l, blk) }})
}

// BcastScatterAllgather is the bandwidth-optimal large-message broadcast
// MVAPICH2 switches to above its binomial-tree threshold (sched.BcastSAG).
func (r *Rank) BcastScatterAllgather(root int, buf *gpusim.Buffer) error {
	return r.run(collective{name: "bcast-sag", root: root, send: buf, recv: buf,
		steps: func(l sched.Layout) []sched.Step { return sched.BcastSAG(l, root, buf.Len()) }})
}

// Gather collects every rank's sendBuf into root's recvBuf (rank i's block
// at offset i*len(sendBuf)); recvBuf is ignored on non-root ranks. Its
// layout is world-rank indexed, so it keeps abort semantics: with a fated
// rank in the world every survivor's call surfaces ErrPeerFailed within the
// watchdog deadline. A self-heal retry completes on the surviving group,
// leaving fated ranks' blocks untouched.
func (r *Rank) Gather(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	blk := sendBuf.Len()
	return r.run(collective{name: "gather", root: root, indexed: true, send: sendBuf, recv: recvBuf,
		bad:   lenErr(r.id == root, "gather recv", recvBuf, r.Size()*blk),
		steps: func(l sched.Layout) []sched.Step { return sched.Gather(l, root, blk) }})
}

// Scatter distributes root's sendBuf (rank i's block at offset
// i*len(recvBuf)) into every rank's recvBuf; sendBuf is ignored on non-root
// ranks. Failures and self-heal retries are handled as in Gather.
func (r *Rank) Scatter(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	blk := recvBuf.Len()
	return r.run(collective{name: "scatter", root: root, indexed: true, send: sendBuf, recv: recvBuf,
		bad:   lenErr(r.id == root, "scatter send", sendBuf, r.Size()*blk),
		steps: func(l sched.Layout) []sched.Step { return sched.Scatter(l, root, blk, false) }})
}

// ReduceSum computes the element-wise float32 sum of every rank's sendBuf
// into root's recvBuf (binomial tree). Buffers hold float32 data: a length
// that is not whole words fails on every rank before any byte moves.
func (r *Rank) ReduceSum(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	n := sendBuf.Len()
	return r.run(collective{name: "reduce", root: root, send: sendBuf, recv: recvBuf,
		bad:   errors.Join(wordErr("reduce send", n), lenErr(r.id == root, "reduce recv", recvBuf, n)),
		steps: func(l sched.Layout) []sched.Step { return sched.Reduce(l, root, n) }})
}

// AllreduceSum computes the element-wise float32 sum into every rank's
// recvBuf under the world's pinned schedule (Options.Allreduce), or with
// AllreduceAuto through the wired tuner (Options.Tuner) and, absent one,
// reduce+broadcast (the paper leaves compressed Allreduce as future work;
// this gives it the compressed p2p edges). Tuner-dispatched calls report
// their virtual-clock latency back. A value outside the schedule table runs
// reduce+broadcast, and every schedule runs under its own engine cache tag.
// A vector that is not whole float32 words fails on every rank before any
// byte moves or a tuner hears of it.
func (r *Rank) AllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	algo := r.world.allreduce
	var (
		t     CollTuner
		p     sched.TunePoint
		start simtime.Time
	)
	if algo == sched.AllreduceAuto {
		if t = r.world.tuner; t == nil || sendBuf.Len()%4 != 0 {
			algo = sched.AllreduceReduceBcast
		} else {
			w := r.world
			p = sched.TunePoint{Bytes: sendBuf.Len(), Ranks: w.size, Nodes: w.nodes, PPN: w.ppn, Op: r.nextOp}
			algo = t.PickAllreduce(p)
			start = r.Clock.Now()
		}
	}
	gen, pipelined := algo.Schedule()
	err := r.healRun(func() error {
		r.Engine.SetScheduleTag(scheduleTag(algo))
		defer r.Engine.SetScheduleTag(0)
		return r.runSchedule(allreduce(gen, pipelined, sendBuf, recvBuf))
	})
	if err == nil && t != nil {
		t.ObserveAllreduce(p, algo, r.Clock.Now().Sub(start))
	}
	return err
}

// Alltoall exchanges blocks between all pairs: rank i's j-th send block
// lands in rank j's i-th receive block. Pairwise-exchange algorithm.
// Alltoall keeps abort semantics under failures (world-indexed blocks);
// a self-heal retry completes on the surviving group, skipping exchanges
// with fated peers and leaving their blocks untouched.
func (r *Rank) Alltoall(sendBuf, recvBuf *gpusim.Buffer) error {
	blk := sendBuf.Len() / r.Size()
	return r.run(collective{name: "alltoall", root: noRoot, indexed: true, send: sendBuf, recv: recvBuf,
		bad: errors.Join(lenErr(true, "alltoall send", sendBuf, r.Size()*blk),
			lenErr(true, "alltoall recv", recvBuf, sendBuf.Len())),
		steps: func(l sched.Layout) []sched.Step { return sched.Alltoall(l, blk) }})
}

// checkAlltoallv validates one side's count/displacement vectors against
// its buffer: world-size length, every segment non-negative and within the
// buffer.
func checkAlltoallv(side string, buf *gpusim.Buffer, counts, displs []int, size int) error {
	if len(counts) != size || len(displs) != size {
		return fmt.Errorf("mpi: alltoallv %s vectors must have %d entries (got %d counts, %d displacements)",
			side, size, len(counts), len(displs))
	}
	for i := range counts {
		if counts[i] < 0 || displs[i] < 0 || displs[i] > buf.Len()-counts[i] {
			return fmt.Errorf("mpi: alltoallv %s segment %d (count %d, displacement %d) is not within the %d-byte buffer",
				side, i, counts[i], displs[i], buf.Len())
		}
	}
	return nil
}

// Alltoallv is the vector all-to-all: rank i sends sendCounts[j] bytes at
// sendDispls[j] of sendBuf to each rank j, receiving recvCounts[j] bytes at
// recvDispls[j] of recvBuf from it (counts and displacements in bytes). It
// runs Alltoall's pairwise exchange, each segment compressed independently
// on the point-to-point path (the TEMPI-style compressed Alltoallv), and
// keeps abort semantics under failures like the other world-indexed
// collectives.
//
// Ragged segments make adapter contention order-sensitive — co-located
// ranks booking different-sized transfers on a shared egress calendar
// would serialize in host-scheduling order — so each exchange step books
// its fabric in barrier-separated waves, one per node-local rank index
// (alltoallvStep; DESIGN.md §13): no two in-flight transfers of a wave
// share a calendar and an intra-node pair sends its two directions lower
// rank first. The waves order bookings only; they do not delay the wire:
// every segment is prepared before the first barrier and travels from the
// instant its wire form was ready, and each arrival is decoded after its
// step's waves.
func (r *Rank) Alltoallv(sendBuf *gpusim.Buffer, sendCounts, sendDispls []int, recvBuf *gpusim.Buffer, recvCounts, recvDispls []int) error {
	bad := checkAlltoallv("send", sendBuf, sendCounts, sendDispls, r.Size())
	if bad == nil {
		bad = checkAlltoallv("recv", recvBuf, recvCounts, recvDispls, r.Size())
	}
	if bad == nil && sendCounts[r.id] != recvCounts[r.id] {
		bad = fmt.Errorf("mpi: alltoallv self segment mismatch: sending %d bytes, receiving %d", sendCounts[r.id], recvCounts[r.id])
	}
	return r.run(collective{name: "alltoallv", root: noRoot, indexed: true, send: sendBuf, recv: recvBuf, bad: bad,
		steps: func(l sched.Layout) []sched.Step {
			return sched.Alltoallv(l, sendCounts, sendDispls, recvCounts, recvDispls)
		}})
}

// alltoallvStep runs Alltoallv's whole exchange — ex holds one exchange
// step per partner, each sending its Send span to To and receiving From's
// segment into its Recv span, a -1 peer skipped — so that every segment
// crosses the wire as soon as its own wire form is ready. It posts every raw
// receive, then prepares every outgoing segment in step order and records
// the instant each one was ready; only then come each step's barrier waves,
// which fix the host order of the fabric bookings, and in its wave a
// segment's RTS (an eager segment's injection) leaves at its ready instant,
// not at the wave's. Each step's arrival is decoded after its waves.
func (r *Rank) alltoallvStep(tag int, ex []sched.Step, b *bufs) error {
	w := r.world
	pow2 := w.size&(w.size-1) == 0
	rreqs := make([]*Request, len(ex))
	for i, st := range ex {
		if st.From < 0 {
			continue
		}
		// Every raw receive is posted before any wave: a sender whose wave
		// comes earlier than ours must find it matched, so the match — and
		// every booking it makes — completes inside the sender's wave.
		req, err := r.irecv(st.From, tag, nil)
		if err != nil {
			return err
		}
		rreqs[i] = req
	}
	outs := make([]*envelope, len(ex))
	ready := make([]simtime.Time, len(ex))
	for i, st := range ex {
		if st.To < 0 {
			continue
		}
		env, err := r.prepare(st.To, tag, b.at(st.Send), nil)
		if err != nil {
			return err
		}
		outs[i], ready[i] = env, r.Clock.Now()
	}
	for i, st := range ex {
		dst, rreq := st.To, rreqs[i]
		// Our active wave: XOR pairs act in the pair's wave (both sides
		// agree on the lower rank's local index); ring senders act in their
		// own local index's wave.
		wave := r.id % w.ppn
		if pow2 && dst < r.id {
			wave = dst % w.ppn
		}
		for wv := 0; wv < w.ppn; wv++ {
			if err := r.Barrier(); err != nil {
				return err
			}
			if wv != wave || outs[i] == nil {
				continue
			}
			// The health check isend would have made at this instant.
			if err := r.checkHealth(); err != nil {
				return err
			}
			if pow2 && r.id > dst && w.nodeOf(dst) == r.Node() {
				// Intra-node pair: both directions would share the node's
				// GPU-link calendar, so they go one at a time, the lower
				// rank first (a send's Wait returns only once every fabric
				// booking of the transfer has been placed).
				if err := r.Wait(rreq); err != nil {
					return err
				}
			}
			reqs := []*Request{r.post(outs[i], tag, ready[i])}
			if pow2 {
				// The peer acts in this same wave; wait the whole exchange
				// here so every booking lands inside it. (Ring: our source
				// may act in a later wave — waiting for the receive here
				// would stall its barrier, so only the send completes
				// inside it.)
				reqs = append(reqs, rreq)
			}
			if err := r.Waitall(reqs...); err != nil {
				return err
			}
		}
		if rreq == nil {
			continue
		}
		if err := r.Wait(rreq); err != nil {
			return err
		}
		if err := r.consumeRaw(rreq.raw, b.at(st.Recv)); err != nil {
			return err
		}
	}
	return nil
}

// chargeSum charges the GPU the memory-bound vector-add kernel of a
// reduction receive (reads two floats, writes one per element) once its
// Wait has added the arriving words into dst (irecvAdd), and bumps dst's
// content epoch, invalidating cached compressed forms.
func chargeSum(r *Rank, dst *gpusim.Buffer) {
	r.Dev.LaunchKernel(r.Clock, r.Dev.Stream(0), gpusim.KernelSpec{
		Blocks:         r.Dev.Spec.SMs,
		Bytes:          12 * (dst.Len() / 4),
		ThroughputGbps: r.Dev.Spec.MemBWGBps * 8, // GB/s -> Gb/s
	})
	r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
	dst.MarkDirty()
}

// ringReduceStep runs one reduce-scatter step: the send block streams to
// the right neighbor chunk by chunk while the block arriving from the left
// is added into place chunk by chunk — each chunk's receive decodes into
// the sum (irecvAdd), so chunk k's add overlaps chunk k+1's transfer (both
// sides derive the chunk boundaries from the world-uniform config, so
// chunks pair up by FIFO matching). src is the buffer the send block is
// compressed from (see bufs.source). sendFirst drains the sends before
// anything is reduced, the blocking ring's order. With right < 0 the step
// only receives and adds.
func (r *Rank) ringReduceStep(right, left, tag int, src, recvBuf *gpusim.Buffer, send, recv sched.Span, chunk int, sendFirst bool) error {
	rspans, sspans := sched.ChunkSpans(recv.N, chunk), sched.ChunkSpans(send.N, chunk)
	if right < 0 {
		sspans = nil
	}
	rreqs := make([]*Request, len(rspans))
	for c, sp := range rspans {
		req, err := r.irecvAdd(left, tag, recvBuf.Slice(recv.Off+sp[0], sp[1]))
		if err != nil {
			return err
		}
		rreqs[c] = req
	}
	sreqs := make([]*Request, len(sspans))
	for c, sp := range sspans {
		req, err := r.isend(right, tag, src.Slice(send.Off+sp[0], sp[1]), nil)
		if err != nil {
			return err
		}
		sreqs[c] = req
	}
	if sendFirst {
		if err := r.Waitall(sreqs...); err != nil {
			return err
		}
	}
	for _, req := range rreqs {
		if err := r.Wait(req); err != nil {
			return err
		}
		chargeSum(r, req.buf)
	}
	if len(rspans) > 1 {
		r.Engine.NotePipelinedChunks(len(rspans))
	}
	return r.Waitall(sreqs...)
}
