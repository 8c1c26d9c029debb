package mpi

import (
	"math/bits"
	"sort"
	"testing"
)

// The generators are pure, so a schedule can be checked without a World
// or a clock: symRun executes every rank's steps symbolically. A rank's
// vector is cut into cells at every span boundary any step names; a cell
// holds a symVal — which contributions it sums, and a hash of the addition
// tree that produced it — so "each contribution exactly once" and "the same
// additions in the same order" are equalities on cells.

// symVal is one cell's value: the contributions (world ranks) it sums, dup
// if any was added twice, and a non-commutative hash of the addition tree.
type symVal struct {
	mask uint64
	h    uint64
	dup  bool
}

func symLeaf(id int) symVal { return symVal{mask: 1 << id, h: symMix(uint64(id)+1, 0)} }

func (a symVal) add(b symVal) symVal {
	return symVal{mask: a.mask | b.mask, h: symMix(a.h, b.h), dup: a.dup || b.dup || a.mask&b.mask != 0}
}

func symMix(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(b, 29)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ x>>29
}

// symAct is one atomic transport action a step decomposes into.
type symAct struct {
	send     bool
	peer     int
	tag      int
	sp       span
	add      bool // receive: add into the cells instead of overwriting them
	fromSend bool // send: sendBuf stands in for recvBuf, so they must agree
	forward  bool // send: the previous relay arrival, verbatim
}

func symActs(st step) []symAct {
	snd := symAct{send: true, peer: st.to, tag: st.tag, sp: st.send, fromSend: st.fromSend}
	rcv := symAct{peer: st.from, tag: st.tag, sp: st.recv, add: st.adds()}
	switch st.op {
	case opSend:
		return []symAct{snd}
	case opRecv, opRecvSum:
		return []symAct{rcv}
	case opRelay:
		var acts []symAct
		for h, in := range st.relay {
			fwd := snd
			if h > 0 {
				fwd.sp, fwd.forward = st.relay[h-1], true
			}
			rcv.sp = in
			acts = append(acts, fwd, rcv)
		}
		return acts
	}
	return []symAct{snd, rcv}
}

// symMsg is a message in flight: the span it covers and its cells.
type symMsg struct {
	sp   span
	vals []symVal
}

// symResult is what one symbolic run leaves behind, by world rank.
type symResult struct {
	declined bool
	final    map[int][]symVal
	sent     map[int]int // bytes
	hops     map[int]int // message rounds: one per step, one per relay hop
}

// symRun runs gen's steps for every rank of l (l.vrank is ignored) on an
// n-byte vector. Sends are buffered and receives block, per (src, dst, tag
// base) FIFO; it fails t if a receive's span differs from the matching
// send's, a fromSend send reads a vector that is no longer the untouched
// contribution, ranks disagree on declining, the run deadlocks, or a
// message is left unreceived.
func symRun(t testing.TB, gen generator, l layout, n int, pipelined bool) symResult {
	t.Helper()
	size := l.size
	acts := make([][]symAct, size)
	res := symResult{final: map[int][]symVal{}, sent: map[int]int{}, hops: map[int]int{}}
	cut := map[int]bool{0: true, n: true}
	for vr := 0; vr < size; vr++ {
		lv := l
		lv.vrank = vr
		steps := gen(lv, n, pipelined)
		if vr > 0 && (steps == nil) != res.declined {
			t.Fatalf("ranks disagree on whether the schedule declines n=%d", n)
		}
		if res.declined = steps == nil; res.declined {
			continue
		}
		for _, st := range steps {
			acts[vr] = append(acts[vr], symActs(st)...)
			res.hops[l.real(vr)] += max(1, len(st.relay))
			for _, sp := range append([]span{st.send, st.recv}, st.relay...) {
				cut[sp.off], cut[sp.off+sp.n] = true, true
			}
		}
	}
	if res.declined {
		return res
	}
	var cuts []int
	for c := range cut {
		cuts = append(cuts, c)
	}
	sort.Ints(cuts)
	cell := func(off int) int { return sort.SearchInts(cuts, off) }

	state := make([][]symVal, size)
	for vr := range state {
		state[vr] = make([]symVal, len(cuts)-1)
		for c := range state[vr] {
			state[vr][c] = symLeaf(l.real(vr))
		}
	}
	type key struct{ src, dst, tag int }
	queues := map[key][]symMsg{}
	last := make([][]symVal, size)
	pc := make([]int, size)
	for {
		progress, done := false, 0
		for vr := 0; vr < size; vr++ {
			me := l.real(vr)
			for ; pc[vr] < len(acts[vr]); pc[vr]++ {
				a := acts[vr][pc[vr]]
				lo, hi := cell(a.sp.off), cell(a.sp.off+a.sp.n)
				if a.send {
					vals := last[vr]
					if !a.forward {
						vals = append([]symVal(nil), state[vr][lo:hi]...)
					}
					for _, v := range vals {
						if a.fromSend && v != symLeaf(me) {
							t.Fatalf("rank %d compresses %v from sendBuf, but recvBuf no longer holds its contribution there", me, a.sp)
						}
					}
					k := key{me, a.peer, a.tag}
					queues[k] = append(queues[k], symMsg{a.sp, vals})
					res.sent[me] += a.sp.n
				} else {
					k := key{a.peer, me, a.tag}
					if len(queues[k]) == 0 {
						break
					}
					m := queues[k][0]
					queues[k] = queues[k][1:]
					if m.sp != a.sp {
						t.Fatalf("rank %d receives %v from %d (tag base %d), which sent %v", me, a.sp, a.peer, a.tag, m.sp)
					}
					for c := lo; c < hi; c++ {
						if a.add {
							state[vr][c] = state[vr][c].add(m.vals[c-lo])
						} else {
							state[vr][c] = m.vals[c-lo]
						}
					}
					last[vr] = m.vals
				}
				progress = true
			}
			if pc[vr] == len(acts[vr]) {
				done++
			}
		}
		if done == size {
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
	for vr := range state {
		res.final[l.real(vr)] = state[vr]
	}
	return res
}

// symSchedules are the generators under test.
var symSchedules = []struct {
	name string
	gen  generator
}{
	{"ring", ringSteps}, {"rd", rdSteps}, {"rab", rabSteps}, {"two-level", twoLevelSteps},
}

// checkSchedule runs one generator's pipelined and blocking forms on a
// layout and checks the invariants a schedule value makes cheap.
func checkSchedule(t testing.TB, name string, gen generator, l layout, n int) {
	t.Helper()
	fast := symRun(t, gen, l, n, true)
	slow := symRun(t, gen, l, n, false)
	if fast.declined != slow.declined {
		t.Fatalf("%s: the pipelined form declines n=%d and the blocking form does not, or the reverse", name, n)
	}
	if fast.declined {
		if name == "rd" || name == "two-level" || n/4 >= l.size {
			t.Fatalf("%s declines n=%d on %d ranks", name, n, l.size)
		}
		return
	}
	var live uint64
	for vr := 0; vr < l.size; vr++ {
		live |= 1 << l.real(vr)
	}
	for id, cells := range fast.final {
		for c, v := range cells {
			if v.mask != live || v.dup {
				t.Fatalf("%s: rank %d cell %d sums contributions %b (dup %v), want each of %b once", name, id, c, v.mask, v.dup, live)
			}
			if v != slow.final[id][c] {
				t.Fatalf("%s: rank %d cell %d: the pipelined form adds in a different order than the blocking form", name, id, c)
			}
		}
	}

	// Volume: the textbook bytes plus 2n per fold pair.
	rdVolume := func(p int) int {
		pow2, rem := rdPow2(p)
		return n*pow2*bits.TrailingZeros(uint(pow2)) + 2*n*rem
	}
	P := l.size
	pow2, rem := rdPow2(P)
	want := 0
	switch {
	case name == "ring":
		want = 2 * n * (P - 1)
	case name == "rab":
		want = 2*n*(pow2-1) + 2*n*rem
	case name == "two-level" && l.ppn > 1 && l.nodes > 1:
		perNode := map[int]int{}
		for vr := 0; vr < P; vr++ {
			perNode[l.real(vr)/l.ppn]++
		}
		want = rdVolume(len(perNode))
		for _, k := range perNode {
			want += 2 * (k - 1) * n
		}
	default:
		want = rdVolume(P)
	}
	for _, res := range []symResult{fast, slow} {
		got := 0
		for _, b := range res.sent {
			got += b
		}
		if got != want {
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
	for vr := 0; vr < P && name != "two-level"; vr++ {
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
			if got := res.hops[l.real(vr)]; got != want {
				t.Fatalf("%s on %d ranks: view rank %d runs %d rounds, want %d", name, P, vr, got, want)
			}
		}
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

func symLayout(P, ppn int, live []int) layout {
	v := collView{size: P}
	if live != nil {
		v = collView{size: len(live), live: live}
	}
	return layout{v, ppn, (P + ppn - 1) / ppn}
}

// TestScheduleProperties checks every generator over P = 1…17 world
// ranks, the views of symViews, ppn 1/2/4 and vectors of 0, 4, 4(P-1),
// ragged and 1 MiB bytes (ppn matters to the two-level schedule only).
func TestScheduleProperties(t *testing.T) {
	for P := 2; P <= 17; P++ {
		for _, live := range symViews(P) {
			for _, n := range []int{0, 4, 4 * (P - 1), 4 * (7*P + 3), 1 << 20} {
				for _, s := range symSchedules {
					for _, ppn := range []int{1, 2, 4} {
						if ppn > 1 && s.name != "two-level" {
							break
						}
						checkSchedule(t, s.name, s.gen, symLayout(P, ppn, live), n)
					}
				}
			}
		}
	}
}

// TestPriceWalksTheSchedule: PriceAllreduce reads the steps the executor
// runs — with every message priced 1 it counts the slowest rank's rounds,
// and on six ranks rd and rab cost what the power-of-two closed form says
// plus the fold's two whole-vector messages.
func TestPriceWalksTheSchedule(t *testing.T) {
	for P := 1; P <= 17; P++ {
		for _, ppn := range []int{1, 2, 4} {
			if P%ppn != 0 {
				continue
			}
			p := TunePoint{Bytes: 4 * (7*P + 3), Ranks: P, Nodes: P / ppn, PPN: ppn}
			for _, a := range AllreduceAlgos() {
				row := allreduceAlgos[a]
				got, ok := PriceAllreduce(a, p, func(bool, int) int64 { return 1 })
				if row.gen == nil || P == 1 {
					if ok != (row.gen != nil) || got != 0 {
						t.Fatalf("%v on %d ranks: price (%d, %v)", a, P, got, ok)
					}
					continue
				}
				res := symRun(t, row.gen, symLayout(P, ppn, nil), p.Bytes, !row.blocking)
				want := 0
				for _, h := range res.hops {
					want = max(want, h)
				}
				if !ok || got != int64(want) {
					t.Fatalf("%v on %dx%d: walked %d rounds (ok %v), the slowest rank runs %d", a, P/ppn, ppn, got, ok, want)
				}
			}
		}
	}

	const alpha, n = 5000, 1 << 20
	linear := func(_ bool, bytes int) int64 { return alpha + int64(bytes) }
	p := TunePoint{Bytes: n, Ranks: 6, Nodes: 6, PPN: 1}
	fold := 2 * (alpha + n)
	for _, c := range []struct {
		algo   AllreduceAlgo
		closed int // the power-of-two core (4 ranks)
	}{
		{AllreduceRecursiveDoubling, 2 * (alpha + n)},
		{AllreduceRabenseifner, 4*alpha + 2*n*3/4},
	} {
		got, ok := PriceAllreduce(c.algo, p, linear)
		if !ok || got < int64(c.closed+fold) {
			t.Errorf("%v on 6 ranks priced %d, below the 4-rank closed form %d plus the fold's %d", c.algo, got, c.closed, fold)
		}
	}
	if _, ok := PriceAllreduce(AllreduceRing, TunePoint{Bytes: 12, Ranks: 6, Nodes: 6, PPN: 1}, linear); ok {
		t.Error("a ring over fewer words than ranks runs reduce+broadcast; its walk must say so")
	}
}

// FuzzAllreduceSchedule drives checkSchedule over (schedule, world size,
// ppn, vector length, dropped ranks).
func FuzzAllreduceSchedule(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(1), uint32(1000), uint32(0))
	f.Add(uint8(1), uint8(6), uint8(0), uint32(3), uint32(0b100001))
	f.Add(uint8(2), uint8(11), uint8(1), uint32(77), uint32(0b1010))
	f.Add(uint8(3), uint8(7), uint8(1), uint32(4096), uint32(0b1))
	f.Add(uint8(3), uint8(15), uint8(3), uint32(1<<18), uint32(0b10010))
	f.Fuzz(func(t *testing.T, algo, ranks, ppn uint8, words, drop uint32) {
		s := symSchedules[int(algo)%len(symSchedules)]
		P := 2 + int(ranks)%31
		var live []int
		for id := 0; id < P; id++ {
			if drop&(1<<id) == 0 {
				live = append(live, id)
			}
		}
		if len(live) < 2 {
			return
		}
		if len(live) == P {
			live = nil
		}
		checkSchedule(t, s.name, s.gen, symLayout(P, 1+int(ppn)%4, live), 4*int(words%(1<<18)))
	})
}
