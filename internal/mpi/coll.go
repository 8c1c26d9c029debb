package mpi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"mpicomp/internal/core"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// collView is the dense rank space a collective runs over: the full world
// normally, or the surviving subset once the world has shrunk (ULFM's
// MPIX_Comm_shrink). Generators work in view coordinates [0, size) and
// translate to world ranks through real(); the identity view (live == nil)
// is the world itself.
type collView struct {
	size  int
	vrank int
	live  []int // nil: identity (the full world)
}

// real maps a view coordinate to its world rank.
func (v collView) real(vr int) int {
	if v.live == nil {
		return vr
	}
	return v.live[vr]
}

// peers lists the view's world ranks in view order.
func (v collView) peers() []int {
	ids := make([]int, v.size)
	for i := range ids {
		ids[i] = v.real(i)
	}
	return ids
}

// vof maps a world rank to its view coordinate, -1 if excluded.
func (v collView) vof(world int) int {
	if v.live == nil {
		return world
	}
	for i, id := range v.live {
		if id == world {
			return i
		}
	}
	return -1
}

// collView computes this rank's collective view: the identity unless the
// world has shrunk, when fated ranks are excluded and get an immediate
// error. Once a self-heal recovery has advanced this rank's epoch, the view
// follows the fabric's fault-avoiding route order (heal.go).
func (r *Rank) collView() (collView, error) {
	if err := r.checkHealth(); err != nil {
		return collView{}, err
	}
	w := r.world
	if len(w.doomed) == 0 || !w.shrunk.Load() {
		if w.healOn && r.healEpoch > 0 && w.routeView != nil {
			// Link-only recovery: every rank survives, but the ring order
			// reroutes around the failed links.
			v := collView{size: w.size, live: w.routeOrdered(w.everyone)}
			v.vrank = v.vof(r.id)
			return v, nil
		}
		return collView{size: w.size, vrank: r.id}, nil
	}
	live := w.live
	if w.healOn && r.healEpoch > 0 {
		live = w.routeOrdered(live)
	}
	v := collView{size: len(live), live: live}
	v.vrank = v.vof(r.id)
	if v.vrank < 0 {
		return collView{}, fmt.Errorf("mpi: rank %d is fated and excluded from the shrunk communicator: %w", r.id, ErrPeerFailed)
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
		for _, i := range chunkOrder(raw.chunks) {
			if err := r.decodeChunk(&raw.chunks[i], dst, nil); err != nil {
				return fmt.Errorf("chunk %d: %w", i, err)
			}
		}
		r.noteChunkFallback(raw.chunks)
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

// binomial is the one tree every rooted collective walks: vrank's parent
// (-1 at the root, vrank 0) and its children, nearest first, in the
// binomial tree over [0, size). A reduction drains the children in that
// order and then sends to the parent; a broadcast receives from the parent
// and serves the children farthest first.
func binomial(vrank, size int) (parent int, children []int) {
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			return vrank - mask, children
		}
		if vrank+mask < size {
			children = append(children, vrank+mask)
		}
	}
	return -1, children
}

// Barrier synchronizes all ranks (dissemination algorithm, O(log P)
// rounds of small host messages).
func (r *Rank) Barrier() error {
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "barrier", root: noRoot, send: gpusim.NewHostBuffer(1), recv: gpusim.NewHostBuffer(1),
			steps: barrierSteps})
	})
}

// barrierSteps: round k sends a one-byte token to the rank 2^k ahead and
// takes one from the rank 2^k behind.
func barrierSteps(l layout) []step {
	steps := make([]step, 0, bits.Len(uint(l.size-1)))
	for k := 1; k < l.size; k <<= 1 {
		steps = append(steps, step{op: opSendrecv, tag: baseBarrier,
			to: l.real((l.vrank + k) % l.size), from: l.real((l.vrank - k + l.size) % l.size),
			send: span{n: 1, buf: inSend}, recv: span{n: 1}})
	}
	return steps
}

// Bcast broadcasts root's buf to every rank over a binomial tree — the
// algorithm osu_bcast exercises for large messages — compression-aware:
// the root compresses once, interior ranks forward the self-describing
// payload before decompressing their own copy, and every rank decompresses
// exactly once (treeRelay). Relayed payloads at least twice the pipeline
// chunk size ride the chunk-granular reliability path hop by hop.
func (r *Rank) Bcast(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "bcast", root: root, send: buf, recv: buf,
			steps: func(l layout) []step { return bcastSteps(l, root, span{n: buf.Len(), buf: inSend}) }})
	})
}

// bcastSteps is the binomial broadcast of the root's span src into every
// other rank's recvBuf: one tree-relay step per rank.
func bcastSteps(l layout, root int, src span) []step {
	if l.size == 1 {
		return nil
	}
	vroot := l.vof(root)
	at := func(x int) int { return l.real((x + vroot) % l.size) }
	parent, children := binomial((l.vrank-vroot+l.size)%l.size, l.size)
	st := step{op: opTree, from: -1, send: src, recv: span{n: src.n}, tag: baseBcast}
	if parent >= 0 {
		st.from = at(parent)
	}
	for i := len(children) - 1; i >= 0; i-- {
		st.peers = append(st.peers, at(children[i]))
	}
	return []step{st}
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
		raw.payload, raw.hdr = r.Engine.CompressForLinkCached(r.Clock, out, r.world.cluster.InterNode.BandwidthGBps)
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
// (recvBuf holds world-size * len(sendBuf) bytes, rank i's block at
// offset i*len(sendBuf)) using the ring algorithm MVAPICH2 uses for
// large messages. Under an active shrink the ring runs over the
// surviving subset; block offsets stay world-rank indexed, so fated
// ranks' blocks are simply left untouched.
func (r *Rank) Allgather(sendBuf, recvBuf *gpusim.Buffer) error {
	blk := sendBuf.Len()
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "allgather", root: noRoot, send: sendBuf, recv: recvBuf,
			bad:   lenErr(true, "allgather recv", recvBuf, r.Size()*blk),
			steps: func(l layout) []step { return allgatherSteps(l, blk, false) }})
	})
}

// allgatherSteps copies the rank's own block into place — from sendBuf, or
// inPlace from where it sits in recvBuf — then relays it around the view
// compressed once. The compression reads a device-resident sendBuf (same
// bytes, but a stable epoch that hits the compress-once cache when warm).
func allgatherSteps(l layout, blk int, inPlace bool) []step {
	own := span{off: l.me() * blk, n: blk}
	mine := span{n: blk, buf: inSend}
	if inPlace {
		mine = own
	}
	steps := []step{{op: opCopy, send: mine, recv: own, charge: true}}
	if l.size == 1 {
		return steps
	}
	hops := make([]span, l.size-1)
	for s := range hops {
		hops[s] = span{off: l.real((l.vrank-s-1+l.size)%l.size) * blk, n: blk}
	}
	return append(steps, step{op: opRelay, to: l.real((l.vrank + 1) % l.size), from: l.real((l.vrank - 1 + l.size) % l.size),
		send: own, fromSend: !inPlace, mirror: own.off, relay: hops, tag: baseAllgather})
}

// BcastScatterAllgather is the bandwidth-optimal large-message broadcast
// MVAPICH2 switches to above its binomial-tree threshold: the root scatters
// per-rank blocks, then the ring allgathers them in place (sagSteps). The
// blocks are world-indexed, so messages that do not split into word-aligned
// blocks, and views that lost ranks, take the binomial tree.
func (r *Rank) BcastScatterAllgather(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "bcast-sag", root: root, send: buf, recv: buf,
			steps: func(l layout) []step { return sagSteps(l, root, buf.Len()) }})
	})
}

func sagSteps(l layout, root, n int) []step {
	if l.size == 1 {
		return nil
	}
	if l.size < l.ranks || n%(4*l.ranks) != 0 {
		return bcastSteps(l, root, span{n: n, buf: inSend})
	}
	blk := n / l.ranks
	return append(scatterSteps(l, root, blk, true), allgatherSteps(l, blk, true)...)
}

// Gather collects every rank's sendBuf into root's recvBuf (rank i's block
// at offset i*len(sendBuf)); recvBuf is ignored on non-root ranks. Its
// layout is world-rank indexed, so it keeps abort semantics: with a fated
// rank in the world every survivor's call surfaces ErrPeerFailed within the
// watchdog deadline. A self-heal retry completes on the surviving group,
// leaving fated ranks' blocks untouched.
func (r *Rank) Gather(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	blk := sendBuf.Len()
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "gather", root: root, indexed: true, send: sendBuf, recv: recvBuf,
			bad:   lenErr(r.id == root, "gather recv", recvBuf, r.Size()*blk),
			steps: func(l layout) []step { return gatherSteps(l, root, blk) }})
	})
}

// gatherSteps: the root posts a receive from every other rank, copying its
// own block on the spot, in rank order, then waits them all.
func gatherSteps(l layout, root, blk int) []step {
	mine := span{n: blk, buf: inSend}
	if l.me() != root {
		return []step{{op: opSend, to: root, send: mine, tag: baseGather}}
	}
	fan := make([]step, 0, l.ranks)
	for p := 0; p < l.ranks; p++ {
		into := span{off: p * blk, n: blk}
		switch {
		case l.skips(p):
		case p == root:
			fan = append(fan, step{op: opCopy, send: mine, recv: into})
		default:
			fan = append(fan, step{op: opRecv, from: p, recv: into})
		}
	}
	return []step{{op: opFan, fan: fan, tag: baseGather}}
}

// Scatter distributes root's sendBuf (rank i's block at offset
// i*len(recvBuf)) into every rank's recvBuf; sendBuf is ignored on non-root
// ranks. Failures and self-heal retries are handled as in Gather.
func (r *Rank) Scatter(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	blk := recvBuf.Len()
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "scatter", root: root, indexed: true, send: sendBuf, recv: recvBuf,
			bad:   lenErr(r.id == root, "scatter send", sendBuf, r.Size()*blk),
			steps: func(l layout) []step { return scatterSteps(l, root, blk, false) }})
	})
}

// scatterSteps: the root posts a send to every other rank, copying its own
// block on the spot, in rank order, then waits them all. Rank p's block
// lands in its blk-byte recvBuf, or — inPlace — at p*blk of it.
func scatterSteps(l layout, root, blk int, inPlace bool) []step {
	into := func(p int) span {
		if inPlace {
			return span{off: p * blk, n: blk}
		}
		return span{n: blk}
	}
	if me := l.me(); me != root {
		return []step{{op: opRecv, from: root, recv: into(me), tag: baseScatter}}
	}
	fan := make([]step, 0, l.ranks)
	for p := 0; p < l.ranks; p++ {
		from := span{off: p * blk, n: blk, buf: inSend}
		switch {
		case l.skips(p):
		case p == root:
			fan = append(fan, step{op: opCopy, send: from, recv: into(p)})
		default:
			fan = append(fan, step{op: opSend, to: p, send: from})
		}
	}
	return []step{{op: opFan, fan: fan, tag: baseScatter}}
}

// ReduceSum computes the element-wise float32 sum of every rank's sendBuf
// into root's recvBuf (binomial tree). Buffers must hold float32 data.
func (r *Rank) ReduceSum(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	n := sendBuf.Len()
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "reduce", root: root, send: sendBuf, recv: recvBuf,
			bad:   lenErr(r.id == root, "reduce recv", recvBuf, n),
			steps: func(l layout) []step { return reduceSteps(l, root, n) }})
	})
}

// reduceSteps: interior ranks accumulate in scratch, adding their
// children's vectors nearest first, and send the sum to their parent; the
// root copies it out. Leaves (odd relative rank) send sendBuf itself, so a
// tracked, unchanged buffer reuses its cached compressed form across calls.
func reduceSteps(l layout, root, n int) []step {
	vroot := l.vof(root)
	at := func(x int) int { return l.real((x + vroot) % l.size) }
	rel := (l.vrank - vroot + l.size) % l.size
	parent, children := binomial(rel, l.size)
	mine, acc := span{n: n, buf: inSend}, span{n: n, buf: inAcc}
	if rel&1 == 1 {
		return []step{{op: opSend, to: at(parent), send: mine, tag: baseReduce}}
	}
	steps := []step{{op: opCopy, send: mine, recv: acc}}
	for _, c := range children {
		steps = append(steps, step{op: opReduce, to: -1, from: at(c), recv: acc, tag: baseReduce})
	}
	if parent >= 0 {
		return append(steps, step{op: opSend, to: at(parent), send: acc, tag: baseReduce})
	}
	return append(steps, step{op: opCopy, send: acc, recv: span{n: n}})
}

// AllreduceSum computes the element-wise float32 sum into every rank's
// recvBuf under the world's pinned schedule (Options.Allreduce), or with
// AllreduceAuto through the wired tuner (Options.Tuner) and, absent one,
// reduce+broadcast (the paper leaves compressed Allreduce as future work;
// this gives it the compressed p2p edges). Tuner-dispatched calls report
// their virtual-clock latency back and feed the compressibility probe. A
// value outside the schedule table runs reduce+broadcast, and every
// schedule runs under its own engine cache tag.
func (r *Rank) AllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	algo := r.world.allreduce
	var (
		t     CollTuner
		p     TunePoint
		start simtime.Time
	)
	if algo == AllreduceAuto {
		if t = r.world.tuner; t == nil {
			algo = AllreduceReduceBcast
		} else {
			w := r.world
			p = TunePoint{Bytes: sendBuf.Len(), Ranks: w.size, Nodes: w.nodes, PPN: w.ppn, Op: r.nextOp}
			if t.NeedProbe(p) {
				t.ObserveProbeSample(p, probeSample(sendBuf))
			}
			algo = t.PickAllreduce(p)
			start = r.Clock.Now()
		}
	}
	row := allreduceAlgos[AllreduceReduceBcast] // a tuner's answer is not validated
	if algo > AllreduceAuto && int(algo) < len(allreduceAlgos) {
		row = allreduceAlgos[algo]
	}
	err := r.healRun(func() error {
		r.Engine.SetScheduleTag(algo.scheduleTag())
		defer r.Engine.SetScheduleTag(0)
		return r.runSchedule(allreduce(row.gen, !row.blocking, sendBuf, recvBuf))
	})
	if err == nil && t != nil {
		t.ObserveAllreduce(p, algo, r.Clock.Now().Sub(start))
	}
	return err
}

// reduceBcastSteps is reduce+broadcast: the reduction to the view's lowest
// world rank, then the broadcast of its recvBuf.
func reduceBcastSteps(l layout, n int, _ bool) []step {
	root := slices.Min(l.peers())
	return append(reduceSteps(l, root, n), bcastSteps(l, root, span{n: n})...)
}

// Alltoall exchanges blocks between all pairs: rank i's j-th send block
// lands in rank j's i-th receive block. Pairwise-exchange algorithm.
// Alltoall keeps abort semantics under failures (world-indexed blocks);
// a self-heal retry completes on the surviving group, skipping exchanges
// with fated peers and leaving their blocks untouched.
func (r *Rank) Alltoall(sendBuf, recvBuf *gpusim.Buffer) error {
	blk := sendBuf.Len() / r.Size()
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "alltoall", root: noRoot, indexed: true, send: sendBuf, recv: recvBuf,
			bad: errors.Join(lenErr(true, "alltoall send", sendBuf, r.Size()*blk),
				lenErr(true, "alltoall recv", recvBuf, sendBuf.Len())),
			steps: func(l layout) []step { return alltoallSteps(l, blk) }})
	})
}

func alltoallSteps(l layout, blk int) []step {
	block := func(b bufID) func(p int) span { return func(p int) span { return span{off: p * blk, n: blk, buf: b} } }
	out, in := block(inSend), block(inRecv)
	return l.exchanges([]step{{op: opCopy, send: out(l.me()), recv: in(l.me())}}, opSendrecv, baseAlltoall, out, in)
}

// exchanges appends the P-1 pairwise-exchange steps of Alltoall and
// Alltoallv: at step s a power-of-two world pairs ranks by XOR, any other
// size runs the ring (send to rank+s, receive from rank-s). Each step sends
// out(dst) and receives in(src); a skipped peer becomes -1, so every live
// rank still runs each step and Alltoallv's barrier waves stay aligned.
func (l layout) exchanges(steps []step, op stepOp, tag int, out, in func(p int) span) []step {
	me, P := l.me(), l.ranks
	for s := 1; s < P; s++ {
		dst, src := (me+s)%P, (me-s+P)%P
		if P&(P-1) == 0 {
			dst, src = me^s, me^s
		}
		st := step{op: op, to: dst, from: src, send: out(dst), recv: in(src), tag: tag}
		if l.skips(dst) {
			st.to = -1
		}
		if l.skips(src) {
			st.from = -1
		}
		steps = append(steps, st)
	}
	return steps
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
// would serialize in host-scheduling order — so each exchange step runs in
// barrier-separated waves, one per node-local rank index (alltoallvStep;
// DESIGN.md §13): no two in-flight transfers of a wave share a calendar,
// an intra-node pair sends its two directions lower rank first, and only
// the wire sits inside the waves — the segment's wire form is prepared
// before the first barrier and the arrival decoded after the last.
func (r *Rank) Alltoallv(sendBuf *gpusim.Buffer, sendCounts, sendDispls []int, recvBuf *gpusim.Buffer, recvCounts, recvDispls []int) error {
	bad := checkAlltoallv("send", sendBuf, sendCounts, sendDispls, r.Size())
	if bad == nil {
		bad = checkAlltoallv("recv", recvBuf, recvCounts, recvDispls, r.Size())
	}
	if bad == nil && sendCounts[r.id] != recvCounts[r.id] {
		bad = fmt.Errorf("mpi: alltoallv self segment mismatch: sending %d bytes, receiving %d", sendCounts[r.id], recvCounts[r.id])
	}
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "alltoallv", root: noRoot, indexed: true, send: sendBuf, recv: recvBuf, bad: bad,
			steps: func(l layout) []step { return alltoallvSteps(l, sendCounts, sendDispls, recvCounts, recvDispls) }})
	})
}

// alltoallvSteps copies a non-empty own segment, then runs each exchange
// step in barrier waves.
func alltoallvSteps(l layout, sc, sd, rc, rd []int) []step {
	out := func(p int) span { return span{off: sd[p], n: sc[p], buf: inSend} }
	in := func(p int) span { return span{off: rd[p], n: rc[p]} }
	var steps []step
	if me := l.me(); sc[me] > 0 {
		steps = append(steps, step{op: opCopy, send: out(me), recv: in(me)})
	}
	return l.exchanges(steps, opAlltoallv, baseAlltoallv, out, in)
}

// alltoallvStep runs one exchange step — seg out to dst, src's segment
// into `into`, either skipped when its peer is -1 — as prepare, the step's
// waves with only fabric bookings in this rank's own wave, then the decode
// of the arrival.
func (r *Rank) alltoallvStep(tag, dst, src int, seg, into *gpusim.Buffer) error {
	w := r.world
	pow2 := w.size&(w.size-1) == 0
	var rreq *Request
	if src >= 0 {
		// Post the raw receive before any wave: a sender whose wave comes
		// earlier than ours must find it matched, so the match — and every
		// booking it makes — completes inside the sender's wave.
		req, err := r.irecv(src, tag, nil)
		if err != nil {
			return err
		}
		rreq = req
	}
	var out *envelope
	if dst >= 0 {
		env, err := r.prepare(dst, seg, nil)
		if err != nil {
			return err
		}
		out = env
	}
	// Our active wave: XOR pairs act in the pair's wave (both sides agree
	// on the lower rank's local index); ring senders act in their own
	// local index's wave.
	wave := r.id % w.ppn
	if pow2 && dst < r.id {
		wave = dst % w.ppn
	}
	for wv := 0; wv < w.ppn; wv++ {
		if err := r.Barrier(); err != nil {
			return err
		}
		if wv != wave || out == nil {
			continue
		}
		// The health check isend would have made at this instant.
		if err := r.checkHealth(); err != nil {
			return err
		}
		if pow2 && r.id > dst && w.nodeOf(dst) == r.Node() {
			// Intra-node pair: both directions would share the node's
			// GPU-link calendar, so they go one at a time, the lower rank
			// first (a send's Wait returns only once every fabric booking
			// of the transfer has been placed).
			if err := r.Wait(rreq); err != nil {
				return err
			}
		}
		reqs := []*Request{r.post(out, tag, r.Clock.Now())}
		if pow2 {
			// The peer acts in this same wave; wait the whole exchange
			// here so every booking lands inside it. (Ring: our source may
			// act in a later wave — waiting for the receive here would
			// stall its barrier, so only the send completes inside it.)
			reqs = append(reqs, rreq)
		}
		if err := r.Waitall(reqs...); err != nil {
			return err
		}
	}
	if rreq == nil {
		return nil
	}
	if err := r.Wait(rreq); err != nil {
		return err
	}
	return r.consumeRaw(rreq.raw, into)
}

// sumFloat32 adds src into dst element-wise (float32), charging the GPU a
// memory-bound vector-add kernel (reads two floats, writes one per
// element). dst's content epoch is bumped, invalidating cached
// compressed forms.
func sumFloat32(r *Rank, dst *gpusim.Buffer, src []byte) {
	n := dst.Len() / 4
	r.Dev.LaunchKernel(r.Clock, r.Dev.Stream(0), gpusim.KernelSpec{
		Blocks:         r.Dev.Spec.SMs,
		Bytes:          12 * n,
		ThroughputGbps: r.Dev.Spec.MemBWGBps * 8, // GB/s -> Gb/s
	})
	r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
	addFloat32s(dst.Data[:4*n], src[:4*n])
	dst.MarkDirty()
}

// addFloat32s is the host side of sumFloat32: dst[i] += src[i] over the
// little-endian float32 words of two equal-length slices, one IEEE addition
// per word as in the one-word loop sum_test.go keeps as the oracle (same
// bits: NaN payloads, signed zeros, denormals). Four words per re-sliced
// 16-byte window lets the compiler drop the bounds checks: 2.4x that loop.
func addFloat32s(dst, src []byte) {
	for len(dst) >= 16 && len(src) >= 16 {
		d, s := dst[:16], src[:16]
		storeF32(d[0:], loadF32(d[0:])+loadF32(s[0:]))
		storeF32(d[4:], loadF32(d[4:])+loadF32(s[4:]))
		storeF32(d[8:], loadF32(d[8:])+loadF32(s[8:]))
		storeF32(d[12:], loadF32(d[12:])+loadF32(s[12:]))
		dst, src = dst[16:], src[16:]
	}
	for len(dst) >= 4 && len(src) >= 4 {
		storeF32(dst, loadF32(dst)+loadF32(src))
		dst, src = dst[4:], src[4:]
	}
}

func loadF32(b []byte) float32     { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func storeF32(b []byte, f float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(f)) }

// ringBlocks partitions n bytes of float32 data into size contiguous
// word-aligned blocks, as even as possible: block i covers bytes
// [offs[i], offs[i+1]), the first n/4 mod size blocks one word larger.
func ringBlocks(n, size int) []int {
	words := n / 4
	base, rem := words/size, words%size
	offs := make([]int, size+1)
	for i := range size {
		offs[i+1] = offs[i] + 4*base
		if i < rem {
			offs[i+1] += 4
		}
	}
	return offs
}

// ringChunkSpans splits a block of n bytes into pipeline chunk spans
// ([offset, length] pairs); one span when chunking is off.
func ringChunkSpans(n, chunk int) [][2]int {
	if chunk <= 0 || n <= chunk {
		return [][2]int{{0, n}}
	}
	spans := make([][2]int, 0, (n+chunk-1)/chunk)
	for off := 0; off < n; off += chunk {
		spans = append(spans, [2]int{off, min(chunk, n-off)})
	}
	return spans
}

// ringReduceStep runs one reduce-scatter step: the send block streams to
// the right neighbor chunk by chunk while the block arriving from the left
// is reduced into place chunk by chunk, so chunk k's sumFloat32 overlaps
// chunk k+1's transfer (both sides derive the chunk boundaries from the
// world-uniform config, so chunks pair up by FIFO matching). src is the
// buffer the send block is compressed from (see bufs.source). sendFirst
// drains the sends before anything is reduced, the blocking ring's order.
// With right < 0 the step only receives and adds.
func (r *Rank) ringReduceStep(right, left, tag int, src, recvBuf *gpusim.Buffer, send, recv span, scratch *gpusim.Buffer, chunk int, sendFirst bool) error {
	rspans, sspans := ringChunkSpans(recv.n, chunk), ringChunkSpans(send.n, chunk)
	if right < 0 {
		sspans = nil
	}
	rreqs := make([]*Request, len(rspans))
	for c, sp := range rspans {
		req, err := r.irecv(left, tag, scratch.Slice(sp[0], sp[1]))
		if err != nil {
			return err
		}
		rreqs[c] = req
	}
	sreqs := make([]*Request, len(sspans))
	for c, sp := range sspans {
		req, err := r.isend(right, tag, src.Slice(send.off+sp[0], sp[1]), nil)
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
	for c, sp := range rspans {
		if err := r.Wait(rreqs[c]); err != nil {
			return err
		}
		sumFloat32(r, recvBuf.Slice(recv.off+sp[0], sp[1]), scratch.Data[sp[0]:sp[0]+sp[1]])
	}
	if len(rspans) > 1 {
		r.Engine.NotePipelinedChunks(len(rspans))
	}
	return r.Waitall(sreqs...)
}
