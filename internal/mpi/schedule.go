package mpi

// Collectives as data. Every collective — Barrier, Bcast, ReduceSum,
// Gather, Scatter, Allgather, Alltoall(v), the two-level and
// scatter-allgather broadcasts and each allreduce schedule — is a pure
// generator from a layout to the steps one rank runs, and one executor
// (runSchedule) runs them all; the tuner's price walk (PriceAllreduce)
// reads the same allreduce steps. A step is one call of a shared transport
// step with its peers, its byte spans (each naming sendBuf, recvBuf or the
// scratch accumulator) and its tag base. The blocking allreduce oracles
// are the same generators with pipelined off.
//
// Determinism: a schedule is a pure function of (view, node grouping,
// buffer lengths), and a pipelined schedule performs the exact per-element
// additions of its blocking oracle in the same order — so fault-free runs
// are bit-identical between the pair and across codec worker counts.

import (
	"fmt"
	"math/bits"
	"slices"

	"mpicomp/internal/gpusim"
)

// stepOp names the shared transport step a schedule step calls.
type stepOp uint8

const (
	opReduce    stepOp = iota // ringReduceStep: send to `to` (a -1 peer is skipped), add what `from` sends into recv
	opExchange                // rdExchange with `to`: the whole vector both ways, added
	opSendrecv                // send to `to`, receive from `from` into recv; a -1 peer is skipped
	opRelay                   // relayRing: compress send once, hop h lands in relay[h]
	opSend                    // blocking send of the send span to `to`
	opRecv                    // blocking receive from `from` into recv
	opTree                    // treeRelay: the payload from `from` (the root compresses send) goes on to peers verbatim, then lands in recv
	opFan                     // every fan step posted in order (a copy done on the spot), then all waited
	opCopy                    // send copied into recv
	opAlltoallv               // alltoallvStep: send to `to`, receive from `from`, in barrier waves; a -1 peer is skipped
)

// bufID names the buffer a span addresses.
type bufID uint8

const (
	inRecv bufID = iota // recvBuf (the allreduce schedules reduce in place here)
	inSend              // sendBuf
	inAcc               // scratch accumulator (the reduction tree's)
)

// span is a byte range [off, off+n) of one buffer.
type span struct {
	off, n int
	buf    bufID
}

// step is one schedule step of one rank. to and from are world ranks.
type step struct {
	op         stepOp
	to, from   int
	send, recv span
	relay      []span // opRelay: where each hop's arrival lands
	peers      []int  // opTree: the children, served in this order
	fan        []step // opFan: the sends, receives and copies posted together
	tag        int    // collTag base
	// fromSend compresses the send from sendBuf, which holds its bytes at
	// send.off-mirror, when sendBuf is device-resident.
	fromSend  bool
	mirror    int
	chunked   bool // stream in pipeline chunks
	sendFirst bool // opReduce: drain the sends before adding (the blocking order)
	// charge bills an opCopy from device memory as a D2D memcpy, after a
	// health check (the allgathers' own block); other local copies are free.
	charge bool
}

// adds reports a step that receives into scratch and adds into recv.
func (st step) adds() bool { return st.op == opReduce || st.op == opExchange }

// layout is what a generator reads about the world: the collective view,
// the node grouping (world rank / ppn is a rank's node), the world size,
// and the ranks the world-indexed collectives skip.
type layout struct {
	collView
	ppn, nodes, ranks int
	gone              []int // world ranks skipped: the fated, once a self-heal shrank the world
}

func (w *World) layout(v collView) layout {
	return layout{collView: v, ppn: w.ppn, nodes: w.nodes, ranks: w.size}
}

// me is this rank's world rank.
func (l layout) me() int { return l.real(l.vrank) }

func (l layout) skips(id int) bool { return slices.Contains(l.gone, id) }

// generator builds the steps view rank l.vrank runs to allreduce an n-byte
// vector, or nil when the schedule cannot partition n over the view (the
// executor then runs reduce+broadcast). It is called only for views of two
// or more ranks.
type generator func(l layout, n int, pipelined bool) []step

// inPlace opens an allreduce schedule that reduces in recvBuf with the copy
// of the local contribution there; a declined schedule stays nil.
func inPlace(n int, steps []step) []step {
	if steps == nil {
		return nil
	}
	return append([]step{{op: opCopy, send: span{n: n, buf: inSend}, recv: span{n: n}}}, steps...)
}

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
		return span{off: offs[i], n: offs[i+1] - offs[i]}
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
		return inPlace(n, append(steps, step{op: opRelay, to: right, from: left, tag: baseAllreduce, send: block(l.vrank + 1), relay: hops}))
	}
	for s := 0; s < size-1; s++ {
		steps = append(steps, step{op: opSendrecv, to: right, from: left, tag: baseAllreduce,
			send: block(l.vrank + 1 - s), recv: block(l.vrank - s)})
	}
	return inPlace(n, steps)
}

// rdSteps is recursive doubling over the view.
func rdSteps(l layout, n int, pipelined bool) []step {
	return inPlace(n, rdRounds(l.peers(), l.vrank, n, pipelined, pipelined))
}

// rdRounds is recursive doubling over an explicit world-rank list (me this
// rank's index in it): the fold, then log2 pow2 full-vector exchanges at
// doubling distances. fromSend lets the first transmission compress from
// sendBuf; the two-level schedule runs these rounds among node leaders,
// whose vectors are already sums.
func rdRounds(peers []int, me, n int, chunked, fromSend bool) []step {
	whole := span{n: n}
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
	blocks := func(lo, hi int) span { return span{off: offs[lo], n: offs[hi] - offs[lo]} }
	return inPlace(n, folded(l.peers(), l.vrank, n, pipelined, func(pow2, nr int, peer func(mask int) int) []step {
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
	}))
}

// folded wraps a power-of-two core in the MPICH fold: with pow2 the largest
// power of two <= P and rem = P - pow2, the first 2*rem ranks pair up, and
// each odd member sends its whole vector — from sendBuf when fromSend — to
// its even neighbor, sits out the core and receives the result; survivors
// renumber into [0, pow2) through foldRank/unfoldRank. core gets pow2,
// this rank's core index and the world rank at a core distance. With
// fromSend, a rank outside the fold pairs also compresses its first core
// transmission from sendBuf: its vector is still the untouched
// contribution.
func folded(peers []int, me, n int, fromSend bool, core func(pow2, nr int, peer func(mask int) int) []step) []step {
	pow2, rem := rdPow2(len(peers))
	whole := span{n: n}
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
	steps = append(steps, step{op: opReduce, to: -1, from: peers[me+1], recv: whole, tag: baseAllreduce})
	steps = append(steps, body...)
	return append(steps, step{op: opSend, to: peers[me+1], send: whole, tag: baseAllreduce})
}

// twoLevelSteps is the topology-aware leader schedule: ranks send their
// vectors (sendBuf itself when device-resident) to their node leader, which
// adds them in view order; the leaders run recursive doubling across the
// network and fan the result back out. Worlds with one node, or one rank
// per node, run flat recursive doubling.
func twoLevelSteps(l layout, n int, pipelined bool) []step {
	if l.ppn == 1 || l.nodes == 1 {
		return rdSteps(l, n, pipelined)
	}
	nodeIdx, leaderOf, liveNodes := l.electLeaders()
	me := l.me()
	myNode := me / l.ppn
	leader := leaderOf[myNode]
	whole := span{n: n}
	if me != leader {
		return inPlace(n, []step{
			{op: opSend, to: leader, send: whole, tag: baseReduce, fromSend: true},
			{op: opRecv, from: leader, recv: whole, tag: baseBcast},
		})
	}
	local := l.nodeMates(myNode, me)
	var steps []step
	for _, p := range local {
		steps = append(steps, step{op: opReduce, to: -1, from: p, recv: whole, tag: baseReduce})
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
	return inPlace(n, steps)
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

// nodeMates lists node's view members other than leader, in view order
// (within a node, ascending rank order).
func (l layout) nodeMates(node, leader int) []int {
	var mates []int
	for vr := 0; vr < l.size; vr++ {
		if p := l.real(vr); p/l.ppn == node && p != leader {
			mates = append(mates, p)
		}
	}
	return mates
}

// noRoot marks a collective without a root.
const noRoot = -1

// collective is one call as the executor runs it.
type collective struct {
	name string // for errors: "mpi: <name> step <i>: ..."
	root int    // world rank of the root, or noRoot
	// indexed marks the world-indexed collectives (Gather, Scatter,
	// Alltoall(v)): every world rank with abort semantics, the fated skipped
	// only once a self-heal has shrunk the world; the others run on the view.
	indexed    bool
	send, recv *gpusim.Buffer
	bad        error // an argument error, reported after the health and root checks
	steps      func(l layout) []step
}

// lenErr reports a buffer of the wrong length, when check holds.
func lenErr(check bool, what string, b *gpusim.Buffer, want int) error {
	if !check || b.Len() == want {
		return nil
	}
	return fmt.Errorf("mpi: %s buffer %d bytes, want %d", what, b.Len(), want)
}

// allreduce is an allreduce call: the schedule gen builds on views of two
// or more ranks, or reduce+broadcast where gen declines the vector (too
// few words to partition, or not word-aligned). Every rank checks the
// buffer lengths before any step.
func allreduce(gen generator, pipelined bool, sendBuf, recvBuf *gpusim.Buffer) collective {
	n := sendBuf.Len()
	return collective{name: "allreduce", root: noRoot, send: sendBuf, recv: recvBuf,
		bad: lenErr(true, "allreduce recv", recvBuf, n),
		steps: func(l layout) []step {
			if l.size < 2 {
				return inPlace(n, []step{})
			}
			if steps := gen(l, n, pipelined); steps != nil && n%4 == 0 {
				return steps
			}
			return reduceBcastSteps(l, n, pipelined)
		}}
}

// runSchedule is the one collective executor: the root check, the health
// check and the layout (the view, or every world rank and the skip set),
// a dead root's PeerError, the argument check, one accumulator and one
// receive scratch for the whole call, and the steps in order.
func (r *Rank) runSchedule(c collective) error {
	w := r.world
	if c.root != noRoot {
		if err := r.checkPeer(c.root); err != nil {
			return err
		}
	}
	var l layout
	if c.indexed {
		if err := r.checkHealth(); err != nil {
			return err
		}
		l = w.layout(collView{size: w.size, vrank: r.id})
		if w.shrunk.Load() {
			l.gone = w.doomed
		}
	} else {
		v, err := r.collView()
		if err != nil {
			return err
		}
		l = w.layout(v)
	}
	if c.root != noRoot && (l.vof(c.root) < 0 || l.skips(c.root)) {
		return w.peerError(c.root)
	}
	if c.bad != nil {
		return c.bad
	}
	steps := c.steps(l)
	// The accumulator holds a copy of the contribution, so it lives where
	// sendBuf does; the receive scratch lives with what it is added into.
	b := bufs{inSend: c.send, inRecv: c.recv}
	acc, need, like := -1, -1, c.recv
	for _, st := range steps {
		if st.adds() {
			need = max(need, st.recv.n)
		}
		if st.recv.buf == inAcc {
			acc = max(acc, st.recv.off+st.recv.n)
		}
	}
	if acc >= 0 {
		b[inAcc], like = r.takeScratch(c.send, acc), c.send
		defer r.putScratch()
	}
	var scratch *gpusim.Buffer
	if need >= 0 {
		scratch = r.takeScratch(like, need)
		defer r.putScratch()
	}
	chunk := r.Engine.Config().PipelineChunkBytes &^ 3 // word-aligned; under a word, one chunk
	for i, st := range steps {
		if err := r.runStep(st, &b, scratch, chunk); err != nil {
			return fmt.Errorf("mpi: %s step %d: %w", c.name, i, err)
		}
	}
	return nil
}

// takeScratch hands out an n-byte scratch buffer living where like does for
// one collective call; the caller defers putScratch. The bytes come from
// the rank's two reusable vectors, grown to the largest request and never
// zeroed (every user overwrites what it reads); a call nested under two
// live ones gets fresh memory. Scratch only receives, or is sent by a
// blocking send, so nothing in flight references it once handed back.
func (r *Rank) takeScratch(like *gpusim.Buffer, n int) *gpusim.Buffer {
	i := r.scratchHeld
	r.scratchHeld++
	if i >= len(r.scratch) {
		return &gpusim.Buffer{Data: make([]byte, n), Loc: like.Loc, Dev: like.Dev}
	}
	if cap(r.scratch[i]) < n {
		r.scratch[i] = make([]byte, n)
	}
	return &gpusim.Buffer{Data: r.scratch[i][:n], Loc: like.Loc, Dev: like.Dev}
}

// putScratch returns the most recently taken scratch buffer.
func (r *Rank) putScratch() { r.scratchHeld-- }

// bufs are a call's buffers by bufID.
type bufs [3]*gpusim.Buffer

// at is the span's view of its buffer: the buffer itself when the span
// covers it.
func (b *bufs) at(sp span) *gpusim.Buffer {
	buf := b[sp.buf]
	if sp.off == 0 && sp.n == buf.Len() {
		return buf
	}
	return buf.Slice(sp.off, sp.n)
}

// source is the buffer a step's send reads and the send span in it: the
// step's own, or — for a fromSend step while sendBuf is device-resident —
// the same bytes in sendBuf.
func (b *bufs) source(st step) (*gpusim.Buffer, span) {
	if st.fromSend && b[inSend].Loc == gpusim.Device {
		return b[inSend], span{off: st.send.off - st.mirror, n: st.send.n, buf: inSend}
	}
	return b[st.send.buf], st.send
}

// runStep runs one step through its shared transport step.
func (r *Rank) runStep(st step, b *bufs, scratch *gpusim.Buffer, chunk int) error {
	src, out := b.source(st)
	if !st.chunked {
		chunk = 0
	}
	tag := r.collTag(st.tag)
	switch st.op {
	case opCopy:
		from, into := b.at(st.send), b.at(st.recv)
		if st.charge {
			if err := r.checkHealth(); err != nil {
				return err
			}
		}
		if st.charge && from.Loc == gpusim.Device {
			r.Dev.MemcpyD2D(r.Clock, r.Dev.Stream(0), into.Data, from.Data)
			r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
		} else {
			copy(into.Data, from.Data)
		}
		into.MarkDirty()
		return nil
	case opReduce:
		return r.ringReduceStep(st.to, st.from, tag, src, b[st.recv.buf], out, st.recv, scratch, chunk, st.sendFirst)
	case opExchange:
		return r.rdExchange(st.to, tag, src, b[st.recv.buf], scratch, chunk)
	case opRelay:
		payload, hdr := r.Engine.CompressForLinkCached(r.Clock, b.at(out), r.world.cluster.InterNode.BandwidthGBps)
		return r.relayRing(st.from, st.to, tag, len(st.relay), payload, hdr, func(hop int) *gpusim.Buffer {
			return b.at(st.relay[hop])
		})
	case opTree:
		return r.treeRelay(st.from, st.peers, tag, b.at(out), b.at(st.recv))
	case opAlltoallv:
		return r.alltoallvStep(tag, st.to, st.from, b.at(out), b.at(st.recv))
	}
	// A send, a receive, a pair (receive posted first, send waited first)
	// or a fan: every part posted in order, then all waited.
	fan := st.fan
	switch st.op {
	case opSend, opRecv:
		fan = []step{st}
	case opSendrecv:
		fan = []step{{op: opRecv, from: st.from, recv: st.recv}, {op: opSend, to: st.to, send: out}}
	}
	var pair [2]*Request // a pair's requests stay off the heap
	reqs := pair[:0]
	for _, f := range fan {
		var req *Request
		var err error
		switch {
		case f.op == opCopy:
			err = r.runStep(f, b, nil, 0)
		case f.op == opSend && f.to >= 0:
			_, out := b.source(f)
			req, err = r.isend(f.to, tag, b.at(out), nil)
		case f.op == opRecv && f.from >= 0:
			req, err = r.irecv(f.from, tag, b.at(f.recv))
		}
		if err != nil {
			return err
		}
		if req != nil {
			reqs = append(reqs, req)
		}
	}
	if st.op == opSendrecv {
		slices.Reverse(reqs)
	}
	return r.Waitall(reqs...)
}

// PriceAllreduce walks the steps algo runs on every rank of p's identity
// layout and returns the most any rank spends: a step (a relay: each hop)
// costs the dearer of the message it sends and the one it waits for, each
// priced by price(intra, bytes), intra when the peer shares the rank's
// node; copies and chunking are free. ok is false for auto, for
// reduce+broadcast (its tree relay is not priced) and for a vector the
// schedule would hand to reduce+broadcast.
func PriceAllreduce(algo AllreduceAlgo, p TunePoint, price func(intra bool, bytes int) int64) (nanos int64, ok bool) {
	if algo <= AllreduceAuto || int(algo) >= len(allreduceAlgos) {
		return 0, false
	}
	row := allreduceAlgos[algo]
	ppn := max(p.PPN, 1)
	l := layout{collView: collView{size: p.Ranks}, ppn: ppn, nodes: max(p.Nodes, (p.Ranks+ppn-1)/ppn), ranks: p.Ranks}
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
		for _, st := range steps {
			switch st.op {
			case opTree:
				return 0, false
			case opCopy:
				continue
			}
			// Per hop, the dearer of the message sent and the one waited for;
			// a relay's hop h forwards what hop h-1 brought.
			out, ins := st.send, []span{st.recv}
			if st.op == opRelay {
				ins = st.relay
			}
			for _, in := range ins {
				var c int64
				if st.op != opRecv && st.to >= 0 {
					c = price(st.to/l.ppn == me, out.n)
				}
				if st.op != opSend && st.from >= 0 {
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
	pow2 = 1 << max(bits.Len(uint(size))-1, 0)
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

// rdWindow bounds the spans a recursive-doubling round keeps open (posted
// but unconsumed). Each open span holds its outbound payload in the
// engine's pool (Config.PoolBuffers slots) and lets the peer stage one
// inbound payload there; every span is its own message, so chunk credits
// cannot help, and a whole vector's spans at once would exhaust the pool
// into uncompressed PoolFallbacks sends. Two is all the overlap a round can
// use (one span in flight while the previous one reduces), and it keeps the
// worst case at 2(rdWindow+1)+1 slots, under the smallest configured pools.
const rdWindow = 2

// rdExchange runs one recursive-doubling round with peer: the local
// accumulator streams out chunk by chunk while the peer's arrives into
// scratch, and each received chunk is reduced into acc as its span closes.
// The send and reduce ranges are the same spans, so a span's reduction
// waits for its outbound send first (MPI freezes a buffer with posted
// sends). src is the buffer the send is compressed from (bufs.source).
// Liveness: a rank opens span c only after closing span c-rdWindow and
// posts its receive for c before its send, so the slower side lags by at
// most the window.
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

// RingAllreduceSum is the bandwidth-optimal allreduce (ringSteps): a ring
// reduce-scatter streamed in Config.PipelineChunkBytes chunks over a ragged
// word-aligned partition (ringBlocks), then a ring allgather relaying each
// reduced block's compressed payload verbatim. Buffers hold float32 data;
// vectors with fewer words than ranks, or not word-aligned, fall back to
// reduce+broadcast.
func (r *Rank) RingAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(allreduce(ringSteps, true, sendBuf, recvBuf)) })
}

// RingAllreduceSumBlocking is the whole-block ring, every hop recompressing:
// the baseline and bit-identity oracle of RingAllreduceSum.
func (r *Rank) RingAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(allreduce(ringSteps, false, sendBuf, recvBuf)) })
}

// RecursiveDoublingAllreduceSum is the latency-optimal allreduce (rdSteps):
// n·log2 P bytes per rank against the ring's 2n(P-1)/P, but log2 P message
// latencies against 2(P-1). Non-word-aligned sizes fall back to
// reduce+broadcast.
func (r *Rank) RecursiveDoublingAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(allreduce(rdSteps, true, sendBuf, recvBuf)) })
}

// RecursiveDoublingAllreduceSumBlocking is the whole-vector blocking form:
// the baseline and bit-identity oracle of the pipelined one.
func (r *Rank) RecursiveDoublingAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(allreduce(rdSteps, false, sendBuf, recvBuf)) })
}

// RabenseifnerAllreduceSum moves the ring's 2n(P-1)/P bytes per rank in
// 2·log2 P rounds instead of 2(P-1) (rabSteps). It falls back to
// reduce+broadcast where the ring does.
func (r *Rank) RabenseifnerAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(allreduce(rabSteps, true, sendBuf, recvBuf)) })
}

// RabenseifnerAllreduceSumBlocking is the unpipelined form: the baseline
// and bit-identity oracle of RabenseifnerAllreduceSum.
func (r *Rank) RabenseifnerAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(allreduce(rabSteps, false, sendBuf, recvBuf)) })
}

// AllreduceSumHierarchical is the two-level allreduce (twoLevelSteps): each
// node's vector crosses the network log2(nodes) times instead of once per
// rank. Under a shrunken view each node re-elects a leader.
func (r *Rank) AllreduceSumHierarchical(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.runSchedule(allreduce(twoLevelSteps, true, sendBuf, recvBuf)) })
}
