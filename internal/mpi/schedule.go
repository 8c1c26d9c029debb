package mpi

// Allreduce schedules as data. Each tuner-visible schedule — the ring,
// recursive doubling, Rabenseifner and the two-level leader schedule — is
// one pure generator from (layout, vector length, pipelined) to the steps
// one rank runs; one executor (runSchedule) runs every schedule, and the
// walk internal/tune prices a schedule with (PriceAllreduce) reads the
// same steps. The blocking oracles are the same generators with pipelined
// off: no chunk pipelining, no compress-once source, whole-block exchanges.
//
// A step is one call of a shared transport step — ringReduceStep,
// rdExchange, relayRing behind one compression, sendrecv, or a
// whole-vector send / receive / receive-and-add — with its peers, its byte
// spans of the receive buffer, its tag base, and whether its send
// compresses from the untouched sendBuf (identical bytes, stable epoch:
// warm iterations hit the compress-once cache).
//
// Recursive doubling moves n·log2 P bytes per rank in log2 P rounds — the
// latency-optimal schedule; Rabenseifner moves the ring's 2n(P-1)/P in
// 2·log2 P rounds (reduce-scatter by recursive halving, allgather by
// recursive doubling over the ragged ringBlocks partition). Non-power-of-
// two worlds use the MPICH fold: with pow2 the largest power of two <= P
// and rem = P - pow2, the first 2*rem view ranks pair up — each odd member
// folds its vector into its even neighbor, sits out the power-of-two core,
// and receives the finished result at the end; survivors renumber densely
// into [0, pow2) through foldRank/unfoldRank.
//
// Determinism: a schedule is a pure function of (view, node grouping,
// buffer length), and a pipelined schedule performs the exact per-element
// additions of its blocking oracle in the same order — so fault-free runs
// are bit-identical between the pair and invariant across codec worker
// counts.

import (
	"fmt"
	"math/bits"

	"mpicomp/internal/gpusim"
)

// stepOp names the shared transport step a schedule step calls.
type stepOp uint8

const (
	opReduce   stepOp = iota // ringReduceStep: send to `to`, add what `from` sends into recv
	opExchange               // rdExchange with `to`: the whole vector both ways, added
	opSendrecv               // sendrecv: send to `to`, receive from `from` into recv
	opRelay                  // relayRing: compress send once, hop h lands in relay[h]
	opSend                   // blocking send of the send span to `to`
	opRecv                   // blocking receive from `from` into recv
	opRecvSum                // blocking receive from `from`, added into recv
)

// span is a byte range [off, off+n) of the vector.
type span struct{ off, n int }

// step is one schedule step of one rank. to and from are world ranks.
type step struct {
	op         stepOp
	to, from   int
	send, recv span
	relay      []span // opRelay: where each hop's arrival lands
	tag        int    // collTag base
	fromSend   bool   // compress the send from sendBuf when it is device-resident
	chunked    bool   // stream in pipeline chunks
	sendFirst  bool   // opReduce: drain the sends before adding (the blocking order)
}

func (st step) sends() bool { return st.op != opRecv && st.op != opRecvSum }
func (st step) recvs() bool { return st.op != opSend }

// adds reports a step that receives into scratch and adds into recv.
func (st step) adds() bool { return st.op == opReduce || st.op == opExchange || st.op == opRecvSum }

// layout is what a generator reads about the world: the collective view
// and the node grouping (world rank / ppn is a rank's node).
type layout struct {
	collView
	ppn, nodes int
}

func (w *World) layout(v collView) layout { return layout{v, w.ppn, w.nodes} }

// generator builds the steps view rank l.vrank runs to allreduce an n-byte
// vector, or nil when the schedule cannot partition n over the view (the
// executor then runs reduce+broadcast). It is called only for views of two
// or more ranks.
type generator func(l layout, n int, pipelined bool) []step

// ringSteps is the ring: P-1 reduce-scatter steps, after which view rank i
// holds block i+1 fully reduced, then P-1 allgather hops. Pipelined, the
// reduce-scatter streams in chunks, its first send compresses from sendBuf,
// and the allgather relays each block's compressed payload verbatim (one
// compression at its origin, one decompression per rank); blocking, whole
// blocks move through sendrecv and every hop recompresses.
func ringSteps(l layout, n int, pipelined bool) []step {
	size := l.size
	if n/4 < size {
		return nil
	}
	offs := ringBlocks(n, size)
	block := func(i int) span {
		i = (i%size + size) % size
		return span{offs[i], offs[i+1] - offs[i]}
	}
	right, left := l.real((l.vrank+1)%size), l.real((l.vrank-1+size)%size)
	steps := make([]step, 0, 2*size-1)
	for s := 0; s < size-1; s++ {
		steps = append(steps, step{op: opReduce, to: right, from: left, tag: baseAllreduce,
			send: block(l.vrank - s), recv: block(l.vrank - s - 1),
			fromSend: pipelined && s == 0, chunked: pipelined, sendFirst: !pipelined})
	}
	if pipelined {
		hops := make([]span, size-1)
		for s := range hops {
			hops[s] = block(l.vrank - s)
		}
		return append(steps, step{op: opRelay, to: right, from: left, tag: baseAllreduce, send: block(l.vrank + 1), relay: hops})
	}
	for s := 0; s < size-1; s++ {
		steps = append(steps, step{op: opSendrecv, to: right, from: left, tag: baseAllreduce,
			send: block(l.vrank + 1 - s), recv: block(l.vrank - s)})
	}
	return steps
}

// rdSteps is recursive doubling over the view.
func rdSteps(l layout, n int, pipelined bool) []step {
	return rdRounds(l.peers(), l.vrank, n, pipelined, pipelined)
}

// rdRounds is recursive doubling over an explicit world-rank list (me this
// rank's index in it): the fold, then log2 pow2 full-vector exchanges at
// doubling distances. fromSend lets the first transmission compress from
// sendBuf; the two-level schedule runs these rounds among node leaders,
// whose vectors are already sums.
func rdRounds(peers []int, me, n int, chunked, fromSend bool) []step {
	whole := span{0, n}
	return folded(peers, me, n, fromSend, func(pow2, nr int, peer func(mask int) int) []step {
		steps := make([]step, 0, bits.TrailingZeros(uint(pow2)))
		for mask := 1; mask < pow2; mask <<= 1 {
			p := peer(mask)
			steps = append(steps, step{op: opExchange, to: p, from: p, send: whole, recv: whole,
				tag: baseAllreduce, chunked: chunked})
		}
		return steps
	})
}

// rabSteps is Rabenseifner's allreduce: a reduce-scatter by recursive
// halving — each round sends the half of the block range the rank gives up
// and adds the half it keeps — then an allgather by recursive doubling,
// the held range doubling each round by exchange with the partner holding
// the adjacent aligned range.
func rabSteps(l layout, n int, pipelined bool) []step {
	if n/4 < l.size {
		return nil
	}
	pow2, _ := rdPow2(l.size)
	offs := ringBlocks(n, pow2)
	blocks := func(lo, hi int) span { return span{offs[lo], offs[hi] - offs[lo]} }
	return folded(l.peers(), l.vrank, n, pipelined, func(pow2, nr int, peer func(mask int) int) []step {
		steps := make([]step, 0, 2*bits.TrailingZeros(uint(pow2)))
		lo, hi := 0, pow2
		for mask := pow2 >> 1; mask > 0; mask >>= 1 {
			mid := (lo + hi) / 2
			keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
			if nr&mask != 0 {
				keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
			}
			p := peer(mask)
			steps = append(steps, step{op: opReduce, to: p, from: p, tag: baseAllreduce,
				send: blocks(sendLo, sendHi), recv: blocks(keepLo, keepHi), chunked: pipelined})
			lo, hi = keepLo, keepHi
		}
		for mask := 1; mask < pow2; mask <<= 1 {
			width := hi - lo
			plo, phi := hi, hi+width
			if nr&mask != 0 {
				plo, phi = lo-width, lo
			}
			p := peer(mask)
			steps = append(steps, step{op: opSendrecv, to: p, from: p, tag: baseAllreduce,
				send: blocks(lo, hi), recv: blocks(plo, phi)})
			lo, hi = min(lo, plo), max(hi, phi)
		}
		return steps
	})
}

// folded wraps a power-of-two core in the MPICH fold. core gets the core
// size, this rank's core index and the world rank at a core distance; it
// is not called for a folded-out member, which sends its whole vector —
// from sendBuf when fromSend — to its even neighbor and receives the
// result. With fromSend, a rank outside the fold pairs also compresses its
// first core transmission from sendBuf: its vector is still the untouched
// contribution.
func folded(peers []int, me, n int, fromSend bool, core func(pow2, nr int, peer func(mask int) int) []step) []step {
	pow2, rem := rdPow2(len(peers))
	whole := span{0, n}
	if me < 2*rem && me&1 == 1 {
		return []step{
			{op: opSend, to: peers[me-1], send: whole, tag: baseAllreduce, fromSend: fromSend},
			{op: opRecv, from: peers[me-1], recv: whole, tag: baseAllreduce},
		}
	}
	nr := foldRank(me, rem)
	body := core(pow2, nr, func(mask int) int { return peers[unfoldRank(nr^mask, rem)] })
	if me >= 2*rem {
		if len(body) > 0 {
			body[0].fromSend = fromSend
		}
		return body
	}
	// The even member of a fold pair adds its partner's vector first and
	// hands it the result last.
	steps := make([]step, 0, len(body)+2)
	steps = append(steps, step{op: opRecvSum, from: peers[me+1], recv: whole, tag: baseAllreduce})
	steps = append(steps, body...)
	return append(steps, step{op: opSend, to: peers[me+1], send: whole, tag: baseAllreduce})
}

// twoLevelSteps is the topology-aware leader schedule: ranks fold their
// vectors into their node leader over the intra-node link (sendBuf itself
// when device-resident), the leader adds them in view order (a fixed order
// keeps the float sum deterministic), the surviving leaders run recursive
// doubling across the network, and each leader fans the result back out to
// its node. Worlds with no hierarchy to exploit (one node, or one rank per
// node) run flat recursive doubling instead.
func twoLevelSteps(l layout, n int, pipelined bool) []step {
	if l.ppn == 1 || l.nodes == 1 {
		return rdSteps(l, n, pipelined)
	}
	nodeIdx, leaderOf, liveNodes := l.electLeaders()
	me := l.real(l.vrank)
	myNode := me / l.ppn
	leader := leaderOf[myNode]
	whole := span{0, n}
	if me != leader {
		return []step{
			{op: opSend, to: leader, send: whole, tag: baseReduce, fromSend: true},
			{op: opRecv, from: leader, recv: whole, tag: baseBcast},
		}
	}
	var local []int
	for vr := 0; vr < l.size; vr++ {
		if p := l.real(vr); p/l.ppn == myNode && p != me {
			local = append(local, p)
		}
	}
	var steps []step
	for _, p := range local {
		steps = append(steps, step{op: opRecvSum, from: p, recv: whole, tag: baseReduce})
	}
	if len(liveNodes) > 1 {
		peers := make([]int, len(liveNodes))
		for i, nd := range liveNodes {
			peers[i] = leaderOf[nd]
		}
		steps = append(steps, rdRounds(peers, nodeIdx[myNode], n, pipelined, false)...)
	}
	for _, p := range local {
		steps = append(steps, step{op: opSend, to: p, send: whole, tag: baseBcast})
	}
	return steps
}

// electLeaders walks the view in order and picks each node's first
// surviving rank as its leader — on the identity view simply each node's
// first rank. nodeIdx maps a node to its dense index in liveNodes (-1 when
// no rank of the node survives), leaderOf to its leader's world rank.
func (l layout) electLeaders() (nodeIdx, leaderOf, liveNodes []int) {
	nodeIdx = make([]int, l.nodes)
	leaderOf = make([]int, l.nodes)
	for i := range nodeIdx {
		nodeIdx[i] = -1
	}
	for vr := 0; vr < l.size; vr++ {
		id := l.real(vr)
		if n := id / l.ppn; nodeIdx[n] < 0 {
			nodeIdx[n] = len(liveNodes)
			leaderOf[n] = id
			liveNodes = append(liveNodes, n)
		}
	}
	return nodeIdx, leaderOf, liveNodes
}

// runSchedule is the one allreduce executor: the view, the length check,
// the fallback to reduce+broadcast for vectors the schedule cannot
// partition (not word-aligned, or gen declines), the copy of the local
// contribution into recvBuf that every schedule then reduces in place, one
// scratch buffer for the whole call, and the steps in order.
func (r *Rank) runSchedule(gen generator, pipelined bool, sendBuf, recvBuf *gpusim.Buffer) error {
	v, err := r.collView()
	if err != nil {
		return err
	}
	n := sendBuf.Len()
	if recvBuf.Len() != n {
		return fmt.Errorf("mpi: allreduce buffers differ: %d vs %d", n, recvBuf.Len())
	}
	var steps []step
	if v.size > 1 {
		if steps = gen(r.world.layout(v), n, pipelined); steps == nil || n%4 != 0 {
			return r.allreduceSum(sendBuf, recvBuf)
		}
	}
	copy(recvBuf.Data, sendBuf.Data)
	recvBuf.MarkDirty()
	need := 0
	for _, st := range steps {
		if st.adds() {
			need = max(need, st.recv.n)
		}
	}
	scratch := r.takeScratch(recvBuf, need)
	defer r.putScratch()
	chunk := ringChunk(r.Engine.Config().PipelineChunkBytes)
	for i, st := range steps {
		if err := r.runStep(st, sendBuf, recvBuf, scratch, chunk); err != nil {
			return fmt.Errorf("mpi: allreduce step %d: %w", i, err)
		}
	}
	return nil
}

// runStep runs one step through its shared transport step.
func (r *Rank) runStep(st step, sendBuf, recvBuf, scratch *gpusim.Buffer, chunk int) error {
	src := recvBuf
	if st.fromSend && sendBuf.Loc == gpusim.Device {
		src = sendBuf
	}
	if !st.chunked {
		chunk = 0
	}
	tag := r.collTag(st.tag)
	in := recvBuf.Slice(st.recv.off, st.recv.n)
	out := src.Slice(st.send.off, st.send.n)
	switch st.op {
	case opReduce:
		return r.ringReduceStep(st.to, st.from, tag, src, recvBuf, st.send, st.recv, scratch, chunk, st.sendFirst)
	case opExchange:
		return r.rdExchange(st.to, tag, src, recvBuf, scratch, chunk)
	case opSendrecv:
		return r.sendrecv(st.to, tag, out, st.from, tag, in)
	case opRelay:
		payload, hdr := r.Engine.CompressForLinkCached(r.Clock, out, r.world.cluster.InterNode.BandwidthGBps)
		return r.relayRing(st.from, st.to, tag, len(st.relay), payload, hdr, func(hop int) *gpusim.Buffer {
			return recvBuf.Slice(st.relay[hop].off, st.relay[hop].n)
		})
	case opSend:
		return r.send(st.to, tag, out)
	case opRecv:
		return r.recv(st.from, tag, in)
	default: // opRecvSum
		if err := r.recv(st.from, tag, scratch.Slice(0, st.recv.n)); err != nil {
			return err
		}
		sumFloat32(r, in, scratch.Data[:st.recv.n])
		return nil
	}
}

// PriceAllreduce walks the steps algo runs on p's layout (every rank of
// the identity view, p.PPN ranks per node) and returns the most any rank
// spends: a step costs the dearer of the message it sends and the message
// it waits for — a relay, that per hop — each priced by price(intra,
// bytes), intra when the peer shares the rank's node. Chunking is not
// priced. ok is false for a value with no generator (auto, reduce+broadcast)
// and for a vector the schedule would hand to reduce+broadcast.
func PriceAllreduce(algo AllreduceAlgo, p TunePoint, price func(intra bool, bytes int) int64) (nanos int64, ok bool) {
	if algo <= 0 || int(algo) >= len(allreduceAlgos) || allreduceAlgos[algo].gen == nil {
		return 0, false
	}
	row := allreduceAlgos[algo]
	ppn := max(p.PPN, 1)
	l := layout{collView{size: p.Ranks}, ppn, max(p.Nodes, (p.Ranks+ppn-1)/ppn)}
	if l.size < 2 {
		return 0, true
	}
	for ; l.vrank < l.size; l.vrank++ {
		steps := row.gen(l, p.Bytes, !row.blocking)
		if steps == nil || p.Bytes%4 != 0 {
			return 0, false
		}
		me := l.vrank / l.ppn
		var total int64
		for i := range steps {
			st := &steps[i]
			// Per hop, the dearer of the message sent and the one waited for;
			// a relay's hop h forwards what hop h-1 brought.
			out, ins := st.send, []span{st.recv}
			if st.op == opRelay {
				ins = st.relay
			}
			for _, in := range ins {
				var c int64
				if st.sends() {
					c = price(st.to/l.ppn == me, out.n)
				}
				if st.recvs() {
					c = max(c, price(st.from/l.ppn == me, in.n))
				}
				total, out = total+c, in
			}
		}
		nanos = max(nanos, total)
	}
	return nanos, true
}

// rdPow2 returns the largest power of two not exceeding size, and the
// remainder folded away by the preamble.
func rdPow2(size int) (pow2, rem int) {
	pow2 = 1
	for pow2*2 <= size {
		pow2 *= 2
	}
	return pow2, size - pow2
}

// foldRank maps a dense participant index to its core rank in [0, pow2),
// or -1 for the folded-out odd members of the preamble pairs.
func foldRank(vrank, rem int) int {
	if vrank < 2*rem {
		if vrank&1 == 1 {
			return -1
		}
		return vrank / 2
	}
	return vrank - rem
}

// unfoldRank maps a core rank back to its dense participant index.
func unfoldRank(nr, rem int) int {
	if nr < rem {
		return 2 * nr
	}
	return nr + rem
}

// rdWindow bounds how many spans a recursive-doubling round keeps open
// (posted but unconsumed) at once. Every open span costs fixed staging:
// the outbound side holds its compressed payload in the engine's pool
// (Config.PoolBuffers slots) until delivery, and each posted receive
// lets the peer stage one inbound payload in the same pool — chunk
// credits cannot help, because every span is its own message. Posting a
// full vector's worth of spans at once therefore exhausts the pool
// mid-round and degrades the overflow to uncompressed PoolFallbacks
// sends; a window of two is all the overlap the round can use (one span
// in flight while the previous one reduces) and keeps the pool's
// worst case at 2(rdWindow+1)+1 slots, under the smallest configured
// pools.
const rdWindow = 2

// rdExchange runs one recursive-doubling round with peer: the local
// accumulator streams out chunk by chunk while the peer's accumulator
// arrives into scratch, and each received chunk is reduced into acc as
// its span closes. Because the send may read acc itself, a span's
// reduction always waits for that span's outbound send first — MPI
// semantics freeze a buffer with posted sends, and unlike the ring's
// reduce-scatter both sides here exchange the same full vector, so the
// send and reduce ranges overlap span for span. src is the buffer the
// send is compressed from — acc, or the untouched sendBuf on a fresh
// first round (identical bytes, stable epoch).
//
// Liveness: a rank opens span c only after closing span c-rdWindow, and
// posts its receive for span c before its send of span c, so a stuck
// rank would need its peer to trail by more than rdWindow spans while
// the peer needs the same of it — a contradiction; the slower side
// lags by at most the window.
func (r *Rank) rdExchange(peer, tag int, src, acc, scratch *gpusim.Buffer, chunk int) error {
	spans := ringChunkSpans(acc.Len(), chunk)
	rreqs := make([]*Request, len(spans))
	sreqs := make([]*Request, len(spans))
	closeSpan := func(c int) error {
		if err := r.Wait(sreqs[c]); err != nil {
			return err
		}
		if err := r.Wait(rreqs[c]); err != nil {
			return err
		}
		sp := spans[c]
		sumFloat32(r, acc.Slice(sp[0], sp[1]), scratch.Data[sp[0]:sp[0]+sp[1]])
		return nil
	}
	for c, sp := range spans {
		if c >= rdWindow {
			if err := closeSpan(c - rdWindow); err != nil {
				return err
			}
		}
		rreq, err := r.irecv(peer, tag, scratch.Slice(sp[0], sp[1]))
		if err != nil {
			return err
		}
		rreqs[c] = rreq
		sreq, err := r.isend(peer, tag, src.Slice(sp[0], sp[1]), nil)
		if err != nil {
			return err
		}
		sreqs[c] = sreq
	}
	for c := max(len(spans)-rdWindow, 0); c < len(spans); c++ {
		if err := closeSpan(c); err != nil {
			return err
		}
	}
	if len(spans) > 1 {
		r.Engine.NotePipelinedChunks(len(spans))
	}
	return nil
}

// RingAllreduceSum is the bandwidth-optimal allreduce (ring reduce-scatter
// followed by ring allgather), the algorithm large-message reductions use
// in practice. Buffers must hold float32 data; only genuinely tiny
// messages (fewer words than ranks) or non-word-aligned sizes fall back to
// reduce+broadcast — uneven sizes get a ragged word-aligned partition
// (ringBlocks). The reduce-scatter streams each block in
// Config.PipelineChunkBytes chunks, overlapping reduction with transfer
// (ringReduceStep); the allgather relays each reduced block's compressed
// payload verbatim (relayRing). Every point-to-point step above twice the
// chunk size moves as independently CRC-protected, selectively
// retransmitted, credit-windowed chunks, so a lossy link slows one step
// instead of failing the collective.
func (r *Rank) RingAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(ringSteps, true, sendBuf, recvBuf) })
}

// RingAllreduceSumBlocking is the pre-fast-path ring: whole blocks through
// blocking sendrecv exchanges, every allgather hop paying a fresh compress
// + decompress — the measured baseline for RingAllreduceSum and its
// differential-testing oracle (same partition, same addition order, so
// lossless configs produce bit-identical results).
func (r *Rank) RingAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(ringSteps, false, sendBuf, recvBuf) })
}

// RecursiveDoublingAllreduceSum is the latency-optimal allreduce: ceil(
// log2 P) rounds in which pairs at doubling distances exchange their full
// accumulators and reduce — n·log2 P bytes per rank against the ring's
// 2n(P-1)/P, but log2 P message latencies against 2(P-1): the winner for
// small messages. Rounds stream in Config.PipelineChunkBytes chunks and
// the first transmission compresses from sendBuf. Non-word-aligned sizes
// fall back to reduce+broadcast.
func (r *Rank) RecursiveDoublingAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(rdSteps, true, sendBuf, recvBuf) })
}

// RecursiveDoublingAllreduceSumBlocking is the whole-vector blocking form
// of the same schedule — no chunk pipelining, a fresh compression every
// round: the baseline and bit-identity oracle of the pipelined form.
func (r *Rank) RecursiveDoublingAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(rdSteps, false, sendBuf, recvBuf) })
}

// RabenseifnerAllreduceSum is the bandwidth-optimal logarithmic
// allreduce: the ring's 2n(P-1)/P bytes per rank in 2·log2 P rounds
// instead of 2(P-1). The halving rounds stream through ringReduceStep's
// chunk pipeline and the first round compresses from sendBuf. Messages
// with fewer words than ranks or non-word-aligned sizes fall back to
// reduce+broadcast.
func (r *Rank) RabenseifnerAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(rabSteps, true, sendBuf, recvBuf) })
}

// RabenseifnerAllreduceSumBlocking is the unpipelined form of the same
// schedule — whole half-ranges per round, a fresh compression per hop: the
// baseline and bit-identity oracle of RabenseifnerAllreduceSum.
func (r *Rank) RabenseifnerAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(rabSteps, false, sendBuf, recvBuf) })
}

// AllreduceSumHierarchical is the two-level allreduce (twoLevelSteps):
// only ceil(log2 nodes) network latencies are paid and each node's vector
// crosses the network log2(nodes) times instead of once per rank. Under a
// shrunken view each node re-elects a leader and the schedule completes on
// survivors.
func (r *Rank) AllreduceSumHierarchical(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(twoLevelSteps, true, sendBuf, recvBuf) })
}
