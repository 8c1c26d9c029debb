package sched

import (
	"math/bits"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The generators are pure, so a schedule can be checked without a World
// or a clock: symRun executes every rank's steps symbolically. Each rank
// holds its three buffers — sendBuf, recvBuf and the scratch accumulator —
// as runs of equal cells, cut wherever a step names a boundary. sendBuf
// starts as the rank's contribution (one leaf per region), the others
// empty. A cell holds a symVal — which contributions it sums, a hash of the
// addition tree that produced it, and how many messages wrote it — so
// "each contribution exactly once", "each block delivered exactly once"
// and "the same additions in the same order" are equalities on cells.

// symVal is one cell's value: the contributions (world ranks) it sums, dup
// if any was added twice, a non-commutative hash of the addition tree, and
// the number of messages that wrote the cell.
type symVal struct {
	mask uint64
	h    uint64
	dup  bool
	got  int
}

// symLeaf is region `region` of rank id's contribution.
func symLeaf(id, region int) symVal {
	return symVal{mask: 1 << id, h: symMix(uint64(id)+1, uint64(region))}
}

func (a symVal) add(b symVal) symVal {
	return symVal{mask: a.mask | b.mask, h: symMix(a.h, b.h), dup: a.dup || b.dup || a.mask&b.mask != 0, got: a.got}
}

func symMix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(b, 29)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ x>>29
}

// symRunOf is n bytes of equal cells.
type symRunOf struct {
	n int
	v symVal
}

// symBuf is one buffer: run i covers [at[i], at[i+1]), the last one
// unbounded.
type symBuf struct {
	at  []int
	val []symVal
}

func newSymBuf(v symVal) *symBuf { return &symBuf{at: []int{0}, val: []symVal{v}} }

// cut makes a run start at off and returns its index.
func (b *symBuf) cut(off int) int {
	i := sort.SearchInts(b.at, off)
	if i < len(b.at) && b.at[i] == off {
		return i
	}
	b.at = slices.Insert(b.at, i, off)
	b.val = slices.Insert(b.val, i, b.val[i-1])
	return i
}

func (b *symBuf) read(off, n int) []symRunOf {
	lo, hi := b.cut(off), b.cut(off+n)
	runs := make([]symRunOf, 0, hi-lo)
	for i := lo; i < hi; i++ {
		runs = append(runs, symRunOf{b.at[i+1] - b.at[i], b.val[i]})
	}
	return runs
}

// write stores runs from off: as a copy, as a message's arrival (counted
// in got), or added into the cells (also an arrival).
func (b *symBuf) write(off int, runs []symRunOf, arrive, add bool) {
	for _, r := range runs {
		lo, hi := b.cut(off), b.cut(off+r.n)
		for i := lo; i < hi; i++ {
			old, v := b.val[i], r.v
			if add {
				v = old.add(v)
			}
			if arrive {
				v.got = old.got + 1
			}
			b.val[i] = v
		}
		off += r.n
	}
}

// symSame reports whether two run lists hold the same cells.
func symSame(a, b []symRunOf) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	for len(a) > 0 && len(b) > 0 {
		if a[0].n == 0 {
			a = a[1:]
			continue
		}
		if b[0].n == 0 {
			b = b[1:]
			continue
		}
		if a[0].v != b[0].v {
			return false
		}
		n := min(a[0].n, b[0].n)
		a[0].n, b[0].n = a[0].n-n, b[0].n-n
	}
	empty := func(r symRunOf) bool { return r.n > 0 }
	return !slices.ContainsFunc(a, empty) && !slices.ContainsFunc(b, empty)
}

// symAct is one atomic action a step decomposes into: a buffered send, a
// blocking receive, or a local copy.
type symAct struct {
	op       Op // OpSend, OpRecv or OpCopy
	peer     int
	tag      int
	sp       Span // send: the bytes sent; receive and copy: where they land
	src      Span // copy: the source
	add      bool // receive: add into the cells instead of overwriting them
	fromSend bool // send: sendBuf stands in (at sp.off-mirror), so they must agree
	mirror   int
	forward  bool // send: the previous arrival, verbatim
}

func symActs(st Step) []symAct {
	snd := symAct{op: OpSend, peer: st.To, tag: st.Tag, sp: st.Send, fromSend: st.FromSend, mirror: st.Mirror}
	rcv := symAct{op: OpRecv, peer: st.From, tag: st.Tag, sp: st.Recv, add: st.Op == OpReduce || st.Op == OpExchange}
	var acts []symAct
	switch st.Op {
	case OpCopy:
		return []symAct{{op: OpCopy, sp: st.Recv, src: st.Send}}
	case OpSend:
		return []symAct{snd}
	case OpRecv:
		return []symAct{rcv}
	case OpRelay:
		for h, in := range st.Relay {
			fwd := snd
			if h > 0 {
				fwd.sp, fwd.forward, fwd.fromSend = st.Relay[h-1], true, false
			}
			rcv.sp = in
			acts = append(acts, fwd, rcv)
		}
		return acts
	case OpTree:
		if st.From >= 0 {
			acts = append(acts, rcv)
		}
		for _, c := range st.Peers {
			fwd := snd
			fwd.peer, fwd.forward = c, st.From >= 0
			acts = append(acts, fwd)
		}
		return acts
	case OpFan, OpAlltoallv:
		for _, f := range st.Fan {
			f.Tag = st.Tag
			acts = append(acts, symActs(f)...)
		}
		return acts
	}
	// OpReduce, OpExchange, OpSendrecv; a -1 peer is skipped.
	if st.To >= 0 {
		acts = append(acts, snd)
	}
	if st.From >= 0 {
		acts = append(acts, rcv)
	}
	return acts
}

// symPure fails t unless gen, called twice on the same layout, gives every
// rank that is not gone the same steps: a generator is a pure function of
// its layout, so its ranks agree on the schedule and a replay runs the same
// one. A child list drawn from a map is the bug this catches.
func symPure(t testing.TB, name string, l Layout, gen func(l Layout) []Step) {
	t.Helper()
	for vr := 0; vr < l.Size; vr++ {
		if l.Skips(l.Real(vr)) {
			continue
		}
		lv := l
		lv.VRank = vr
		if a, b := gen(lv), gen(lv); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s on %d ranks: view rank %d gets different steps from two calls on one layout:\n%+v\n%+v", name, l.Size, vr, a, b)
		}
	}
}

// symResult is what one symbolic run leaves behind, by world rank.
type symResult struct {
	bufs map[int]*[3]*symBuf
	sent map[int]int // bytes
	hops map[int]int // message rounds: one per step, one per relay hop
}

// recv reads rank id's recvBuf.
func (res symResult) recv(id, off, n int) []symRunOf { return res.bufs[id][InRecv].read(off, n) }

// symRun runs gen's steps for every rank of l that is not gone (l.VRank is
// ignored); segs lays out each rank's sendBuf, region j holding leaf j
// (bytes outside every region are not the rank's to send). Sends
// are buffered and receives block, per (src, dst, tag base) FIFO; it fails
// t if a receive's length differs from the matching send's, a send reads
// bytes its rank does not hold, a fromSend send's recvBuf bytes differ
// from the sendBuf ones the executor would send instead, the run
// deadlocks, or a message is left unreceived.
func symRun(t testing.TB, l Layout, gen func(l Layout) []Step, segs func(id int) []Span) symResult {
	t.Helper()
	res := symResult{bufs: map[int]*[3]*symBuf{}, sent: map[int]int{}, hops: map[int]int{}}
	acts := map[int][]symAct{}
	var ids []int
	for vr := 0; vr < l.Size; vr++ {
		me := l.Real(vr)
		if l.Skips(me) {
			continue
		}
		ids = append(ids, me)
		lv := l
		lv.VRank = vr
		for _, st := range gen(lv) {
			acts[me] = append(acts[me], symActs(st)...)
			if st.Op != OpCopy {
				res.hops[me] += max(1, len(st.Relay))
			}
		}
		send := newSymBuf(symVal{})
		for j, sg := range segs(me) {
			send.write(sg.Off, []symRunOf{{sg.N, symLeaf(me, j)}}, false, false)
		}
		res.bufs[me] = &[3]*symBuf{InRecv: newSymBuf(symVal{}), InSend: send, InAcc: newSymBuf(symVal{})}
	}
	type key struct{ src, dst, tag int }
	queues := map[key][][]symRunOf{}
	last := map[int][]symRunOf{}
	pc := map[int]int{}
	for {
		progress, done := false, 0
		for _, me := range ids {
			b := res.bufs[me]
		run:
			for ; pc[me] < len(acts[me]); pc[me]++ {
				a := acts[me][pc[me]]
				switch a.op {
				case OpCopy:
					b[a.sp.Buf].write(a.sp.Off, b[a.src.Buf].read(a.src.Off, a.src.N), false, false)
				case OpSend:
					runs := last[me]
					if !a.forward {
						runs = b[a.sp.Buf].read(a.sp.Off, a.sp.N)
						for _, r := range runs {
							if r.v.mask == 0 {
								t.Fatalf("rank %d sends %v to %d, bytes it does not hold", me, a.sp, a.peer)
							}
						}
						if a.fromSend && !symSame(runs, b[InSend].read(a.sp.Off-a.mirror, a.sp.N)) {
							t.Fatalf("rank %d compresses %v from sendBuf, but recvBuf no longer holds those bytes there", me, a.sp)
						}
					}
					k := key{me, a.peer, a.tag}
					queues[k] = append(queues[k], runs)
					res.sent[me] += a.sp.N
				default:
					k := key{a.peer, me, a.tag}
					if len(queues[k]) == 0 {
						break run
					}
					m := queues[k][0]
					queues[k] = queues[k][1:]
					got := 0
					for _, r := range m {
						got += r.n
					}
					if got != a.sp.N {
						t.Fatalf("rank %d receives %v from %d (tag base %d), which sent %d bytes", me, a.sp, a.peer, a.tag, got)
					}
					b[a.sp.Buf].write(a.sp.Off, m, true, a.add)
					last[me] = m
				}
				progress = true
			}
			if pc[me] == len(acts[me]) {
				done++
			}
		}
		if done == len(ids) {
			break
		}
		if !progress {
			t.Fatalf("deadlock: program counters %v", pc)
		}
	}
	for k, q := range queues {
		if len(q) > 0 {
			t.Fatalf("%d messages %d -> %d (tag base %d) never received", len(q), k.src, k.dst, k.tag)
		}
	}
	return res
}

// symSchedules are the allreduce generators under test.
var symSchedules = []struct {
	name string
	gen  Generator
}{
	{"ring", Ring}, {"rd", RecursiveDoubling}, {"rab", Rabenseifner}, {"two-level", TwoLevel}, {"reduce-bcast", ReduceBcast},
}

// checkSchedule runs one allreduce generator's pipelined and blocking forms
// on a layout and checks the invariants a schedule value makes cheap.
func checkSchedule(t testing.TB, name string, gen Generator, l Layout, n int) {
	t.Helper()
	declined := func(pipelined bool) bool {
		d := false
		for vr := 0; vr < l.Size; vr++ {
			lv := l
			lv.VRank = vr
			if steps := gen(lv, n, pipelined); vr > 0 && (steps == nil) != d {
				t.Fatalf("%s: ranks disagree on whether the schedule declines n=%d", name, n)
			} else {
				d = steps == nil
			}
		}
		return d
	}
	if fast, slow := declined(true), declined(false); fast != slow {
		t.Fatalf("%s: the pipelined form declines n=%d and the blocking form does not, or the reverse", name, n)
	} else if fast {
		if name == "rd" || name == "two-level" || name == "reduce-bcast" || n/4 >= l.Size {
			t.Fatalf("%s declines n=%d on %d ranks", name, n, l.Size)
		}
		return
	}
	form := func(pipelined bool) func(l Layout) []Step {
		return func(l Layout) []Step { return gen(l, n, pipelined) }
	}
	symPure(t, name, l, form(true))
	symPure(t, name, l, form(false))
	whole := func(int) []Span { return []Span{{N: n}} }
	fast, slow := symRun(t, l, form(true), whole), symRun(t, l, form(false), whole)
	var live uint64
	for vr := 0; vr < l.Size; vr++ {
		live |= 1 << l.Real(vr)
	}
	for id := range fast.bufs {
		cells := fast.recv(id, 0, n)
		for _, v := range cells {
			if v.v.mask != live || v.v.dup {
				t.Fatalf("%s: rank %d sums contributions %b (dup %v), want each of %b once", name, id, v.v.mask, v.v.dup, live)
			}
		}
		if !symSame(cells, slow.recv(id, 0, n)) {
			t.Fatalf("%s: rank %d: the pipelined form adds in a different order than the blocking form", name, id)
		}
	}

	// Volume: the textbook bytes plus 2n per fold pair.
	rdVolume := func(p int) int {
		pow2, rem := rdPow2(p)
		return n*pow2*bits.TrailingZeros(uint(pow2)) + 2*n*rem
	}
	P := l.Size
	pow2, rem := rdPow2(P)
	want := 0
	switch {
	case name == "ring" || name == "reduce-bcast":
		want = 2 * n * (P - 1)
	case name == "rab":
		want = 2*n*(pow2-1) + 2*n*rem
	case name == "two-level" && l.PPN > 1 && l.Nodes > 1:
		perNode := map[int]int{}
		for vr := 0; vr < P; vr++ {
			perNode[l.Real(vr)/l.PPN]++
		}
		want = rdVolume(len(perNode))
		for _, k := range perNode {
			want += 2 * (k - 1) * n
		}
	default:
		want = rdVolume(P)
	}
	for _, res := range []symResult{fast, slow} {
		if got := symTotal(res.sent); got != want {
			t.Fatalf("%s on %d ranks (n=%d): %d bytes sent, want %d", name, P, n, got, want)
		}
	}

	// Rounds: 2(P-1) for the ring; log2 pow2 (rd) or 2·log2 pow2 (rab) for
	// a core rank, two more for the even member of a fold pair, two for the
	// odd member.
	core := bits.TrailingZeros(uint(pow2))
	if name == "rab" {
		core *= 2
	}
	for vr := 0; vr < P && name != "two-level" && name != "reduce-bcast"; vr++ {
		want := core
		switch {
		case name == "ring":
			want = 2 * (P - 1)
		case vr < 2*rem && vr&1 == 1:
			want = 2
		case vr < 2*rem:
			want = core + 2
		}
		for _, res := range []symResult{fast, slow} {
			if got := res.hops[l.Real(vr)]; got != want {
				t.Fatalf("%s on %d ranks: view rank %d runs %d rounds, want %d", name, P, vr, got, want)
			}
		}
	}
}

func symTotal(sent map[int]int) int {
	total := 0
	for _, b := range sent {
		total += b
	}
	return total
}

// symCounts is the ragged Alltoallv pattern: rank i sends 4((i+2j) mod 3)
// bytes — some segments empty — to rank j, both sides packing their
// segments in rank order: sendAt(i, j) and recvAt(i, j) are where rank i
// keeps its segment for and from rank j.
func symCounts() (counts, sendAt, recvAt func(i, j int) int) {
	counts = func(i, j int) int { return 4 * ((i + 2*j) % 3) }
	sum := func(j int, c func(k int) int) (d int) {
		for k := 0; k < j; k++ {
			d += c(k)
		}
		return d
	}
	sendAt = func(i, j int) int { return sum(j, func(k int) int { return counts(i, k) }) }
	recvAt = func(i, j int) int { return sum(j, func(k int) int { return counts(k, i) }) }
	return counts, sendAt, recvAt
}

// symColls are the other collectives' generators under test, as functions
// of (layout, root, block bytes); the broadcasts and the reduction move
// l.Ranks blocks. indexed marks the world-indexed ones: they run on the
// identity layout with the dropped ranks gone.
var symColls = []struct {
	name    string
	indexed bool
	gen     func(l Layout, root, blk int) []Step
}{
	{"barrier", false, func(l Layout, _, _ int) []Step { return Barrier(l) }},
	{"bcast", false, func(l Layout, root, blk int) []Step { return Bcast(l, root, Span{N: l.Ranks * blk, Buf: InSend}) }},
	{"bcast-hier", false, func(l Layout, root, blk int) []Step { return BcastHier(l, root, l.Ranks*blk) }},
	{"bcast-sag", false, func(l Layout, root, blk int) []Step { return BcastSAG(l, root, l.Ranks*blk) }},
	{"bcast-sag-ragged", false, func(l Layout, root, blk int) []Step { return BcastSAG(l, root, l.Ranks*blk+4) }},
	{"reduce", false, func(l Layout, root, blk int) []Step { return Reduce(l, root, l.Ranks*blk) }},
	{"gather", true, Gather},
	{"scatter", true, func(l Layout, root, blk int) []Step { return Scatter(l, root, blk, false) }},
	{"allgather", false, func(l Layout, _, blk int) []Step { return Allgather(l, blk, false) }},
	{"allgather-hier", false, func(l Layout, _, blk int) []Step { return AllgatherHier(l, blk) }},
	{"alltoall", true, func(l Layout, _, blk int) []Step { return Alltoall(l, blk) }},
	{"alltoallv", true, func(l Layout, _, _ int) []Step {
		counts, sendAt, recvAt := symCounts()
		sc, sd, rc, rd := make([]int, l.Ranks), make([]int, l.Ranks), make([]int, l.Ranks), make([]int, l.Ranks)
		for j := range sc {
			sc[j], sd[j], rc[j], rd[j] = counts(l.Me(), j), sendAt(l.Me(), j), counts(j, l.Me()), recvAt(l.Me(), j)
		}
		return Alltoallv(l, sc, sd, rc, rd)
	}},
}

func symRooted(name string) bool {
	switch name {
	case "barrier", "allgather", "allgather-hier", "alltoall", "alltoallv":
		return false
	}
	return true
}

// checkCollective runs symColls[c] on the P-rank world of ppn ranks per
// node where the ranks in live survive (nil: all, in rank order), and
// checks that every block reaches every rank it should exactly once and
// nothing else moves, that every send pairs with a receive (symRun), and
// the textbook volume.
func checkCollective(t testing.TB, c int, P, ppn int, live []int, root, blk int) {
	t.Helper()
	name, gen := symColls[c].name, symColls[c].gen
	l := symLayout(P, ppn, live)
	if symColls[c].indexed {
		l = symLayout(P, ppn, nil)
		for id := 0; id < P; id++ {
			if live != nil && !slices.Contains(live, id) {
				l.Gone = append(l.Gone, id)
			}
		}
	}
	ids := l.Peers()
	if live != nil {
		ids = live
	}
	L, n := len(ids), P*blk
	if name == "bcast-sag-ragged" {
		n += 4
	}
	counts, sendAt, recvAt := symCounts()
	segs := func(int) []Span { return []Span{{N: n}} }
	switch name {
	case "barrier":
		segs = func(int) []Span { return []Span{{N: 1}} }
	case "gather", "allgather", "allgather-hier":
		segs = func(int) []Span { return []Span{{N: blk}} }
	case "scatter", "alltoall":
		segs = func(int) []Span {
			s := make([]Span, P)
			for p := range s {
				s[p] = Span{Off: p * blk, N: blk}
			}
			return s
		}
	case "alltoallv":
		segs = func(id int) []Span {
			s := make([]Span, P)
			for p := range s {
				s[p] = Span{Off: sendAt(id, p), N: counts(id, p)}
			}
			return s
		}
	}
	symPure(t, name, l, func(l Layout) []Step { return gen(l, root, blk) })
	res := symRun(t, l, func(l Layout) []Step { return gen(l, root, blk) }, segs)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s on %d ranks (ppn %d, live %v, root %d, blk %d): "+format, append([]any{name, P, ppn, live, root, blk}, args...)...)
	}
	// expect checks n bytes of rank id's recvBuf at off: want's value,
	// written by at most one message (a value other than the rank's own can
	// only arrive, so exactly one), or — a zero want — untouched.
	expect := func(id, off, n int, want symVal) {
		for _, r := range res.recv(id, off, n) {
			if r.v.mask != want.mask || r.v.h != want.h || r.v.got > 1 {
				fail("rank %d holds %+v at [%d, %d), want %+v delivered once", id, r.v, off, off+n, want)
			}
		}
	}
	var liveMask uint64
	for _, id := range ids {
		liveMask |= 1 << id
	}
	want := 0
	switch name {
	case "barrier":
		rounds := bits.Len(uint(L - 1))
		for _, id := range ids {
			if res.hops[id] != rounds {
				fail("rank %d runs %d rounds, want %d", id, res.hops[id], rounds)
			}
		}
		want = L * rounds
	case "bcast", "bcast-hier", "bcast-sag", "bcast-sag-ragged":
		for _, id := range ids {
			if id != root {
				expect(id, 0, n, symLeaf(root, 0))
				continue
			}
			// The root's recvBuf is its sendBuf: what lands there is its own.
			for _, r := range res.recv(id, 0, n) {
				if r.v.mask != 0 && (r.v.mask != 1<<root || r.v.h != symLeaf(root, 0).h) || r.v.got > 1 {
					fail("the root's buffer holds %+v", r.v)
				}
			}
		}
		want = (L - 1) * n
		if name == "bcast-sag" && L == P {
			want = (P-1)*blk + P*(P-1)*blk
		}
	case "reduce":
		for _, id := range ids {
			for _, r := range res.recv(id, 0, n) {
				if id == root && (r.v.mask != liveMask || r.v.dup) || id != root && r.v.mask != 0 {
					fail("rank %d holds %+v", id, r.v)
				}
			}
		}
		want = (L - 1) * n
	case "gather":
		for _, id := range ids {
			for p := 0; p < P; p++ {
				v := symVal{}
				if id == root && slices.Contains(ids, p) {
					v = symLeaf(p, 0)
				}
				expect(id, p*blk, blk, v)
			}
		}
		want = (L - 1) * blk
	case "scatter":
		for _, id := range ids {
			expect(id, 0, blk, symLeaf(root, id))
		}
		want = (L - 1) * blk
	case "allgather", "allgather-hier", "alltoall":
		for _, id := range ids {
			for p := 0; p < P; p++ {
				v := symVal{}
				if slices.Contains(ids, p) {
					v = symLeaf(p, 0)
					if name == "alltoall" {
						v = symLeaf(p, id)
					}
				}
				expect(id, p*blk, blk, v)
			}
		}
		want = L * (L - 1) * blk
		if name == "allgather-hier" && ppn > 1 && l.Nodes > 1 && live == nil && blk > 0 {
			nodes := l.Nodes
			want = (P-nodes)*blk*(1+P) + nodes*(nodes-1)*ppn*blk
		}
	case "alltoallv":
		for _, id := range ids {
			for p := 0; p < P; p++ {
				v := symVal{}
				if slices.Contains(ids, p) {
					v = symLeaf(p, id)
					if p != id {
						want += counts(p, id)
					}
				}
				expect(id, recvAt(id, p), counts(p, id), v)
			}
		}
	}
	if got := symTotal(res.sent); got != want {
		fail("%d bytes sent, want %d", got, want)
	}
}

// symViews lists the views of a P-rank world (P >= 2) the grid checks:
// the identity, a route-ordered (rotated) view, and — where two ranks
// survive — one rank dropped and both ends dropped.
func symViews(P int) [][]int {
	all := make([]int, P)
	for i := range all {
		all[i] = i
	}
	views := [][]int{nil, append(append([]int(nil), all[1:]...), 0)}
	if P >= 3 {
		views = append(views, append(append([]int(nil), all[:P/2]...), all[P/2+1:]...))
	}
	if P >= 4 {
		views = append(views, all[1:P-1])
	}
	return views
}

func symLayout(P, ppn int, live []int) Layout {
	v := View{Size: P}
	if live != nil {
		v = View{Size: len(live), Live: live}
	}
	return Layout{View: v, PPN: ppn, Nodes: (P + ppn - 1) / ppn, Ranks: P}
}

// symReadsPPN names the generators whose steps depend on the node grouping.
func symReadsPPN(name string) bool {
	return strings.HasPrefix(name, "two-level") || strings.HasSuffix(name, "-hier")
}

// TestScheduleProperties checks every generator over P = 2…17 world ranks,
// the views of symViews and ppn 1/2/4 (for the generators ppn moves): the
// allreduce schedules on vectors of 0, 4, 4(P-1), ragged and 1 MiB bytes,
// the other collectives for every surviving root on 8-byte blocks. The
// two-level allgather needs full nodes, as every world has.
func TestScheduleProperties(t *testing.T) {
	for P := 2; P <= 17; P++ {
		for _, live := range symViews(P) {
			for _, ppn := range []int{1, 2, 4} {
				for _, n := range []int{0, 4, 4 * (P - 1), 4 * (7*P + 3), 1 << 20} {
					for _, s := range symSchedules {
						if ppn == 1 || symReadsPPN(s.name) {
							checkSchedule(t, s.name, s.gen, symLayout(P, ppn, live), n)
						}
					}
				}
				roots := live
				if roots == nil {
					roots = symLayout(P, ppn, nil).Peers()
				}
				for c, sc := range symColls {
					if ppn > 1 && !symReadsPPN(sc.name) || sc.name == "allgather-hier" && P%ppn != 0 {
						continue
					}
					for _, root := range roots {
						checkCollective(t, c, P, ppn, live, root, 8)
						if !symRooted(sc.name) {
							break
						}
					}
				}
			}
		}
	}
}

// FuzzSchedule drives checkSchedule and checkCollective over (generator,
// world size, ppn, vector length, dropped ranks, root).
func FuzzSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(1), uint32(1000), uint32(0), uint8(0))
	f.Add(uint8(1), uint8(6), uint8(0), uint32(3), uint32(0b100001), uint8(2))
	f.Add(uint8(2), uint8(11), uint8(1), uint32(77), uint32(0b1010), uint8(4))
	f.Add(uint8(3), uint8(7), uint8(1), uint32(4096), uint32(0b1), uint8(3))
	f.Add(uint8(3), uint8(15), uint8(3), uint32(1<<18), uint32(0b10010), uint8(9))
	f.Add(uint8(7), uint8(6), uint8(1), uint32(12), uint32(0b10), uint8(5))
	f.Add(uint8(14), uint8(8), uint8(1), uint32(5), uint32(0), uint8(0))
	f.Fuzz(func(t *testing.T, gen, ranks, ppn uint8, words, drop uint32, root uint8) {
		P, k := 2+int(ranks)%31, 1+int(ppn)%4
		var live []int
		for id := 0; id < P; id++ {
			if drop&(1<<id) == 0 {
				live = append(live, id)
			}
		}
		if len(live) < 2 {
			return
		}
		r := live[int(root)%len(live)]
		if len(live) == P {
			live = nil
		}
		g := int(gen) % (len(symSchedules) + len(symColls))
		if g < len(symSchedules) {
			checkSchedule(t, symSchedules[g].name, symSchedules[g].gen, symLayout(P, k, live), 4*int(words%(1<<18)))
			return
		}
		if g -= len(symSchedules); symColls[g].name == "allgather-hier" && P%k != 0 {
			return
		}
		checkCollective(t, g, P, k, live, r, 4*int(words%64))
	})
}
