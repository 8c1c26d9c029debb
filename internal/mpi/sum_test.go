package mpi

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
)

// addFloat32sRef is the reduce step as it was written before it went
// word-wise — one bounds-checked float32 at a time — kept as the oracle
// core.AddFloat32s must match bit for bit.
func addFloat32sRef(dst, src []byte) {
	for i := 0; i < len(dst)/4; i++ {
		a := math.Float32frombits(binary.LittleEndian.Uint32(dst[4*i:]))
		b := math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(a+b))
	}
}

// sumSpecials are the operands where "the same float" is not enough: NaNs
// with distinct payloads and signs, infinities of both signs (Inf + -Inf
// makes a NaN), denormals, both zeros, and the extremes whose sum
// overflows.
var sumSpecials = []uint32{
	0x00000000, 0x80000000, // +0, -0
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x00800000, 0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff, // min normal, +-1, +-max
	0x7f800000, 0xff800000, // +-Inf
	0x7fc00000, 0xffc00000, 0x7fc12345, 0x7fa00001, 0xffa0beef, 0x7f800001, // quiet and signalling NaNs
}

func sumCase(words int, seed uint32) (dst, src []byte) {
	dst, src = make([]byte, 4*words), make([]byte, 4*words)
	x := seed | 1
	for i := 0; i < words; i++ {
		x = x*1664525 + 1013904223
		a, b := x, x*2654435761
		// Every pair of specials shows up, the rest is arbitrary bit patterns.
		if i < len(sumSpecials)*len(sumSpecials) {
			a, b = sumSpecials[i/len(sumSpecials)], sumSpecials[i%len(sumSpecials)]
		}
		binary.LittleEndian.PutUint32(dst[4*i:], a)
		binary.LittleEndian.PutUint32(src[4*i:], b)
	}
	return dst, src
}

func isNaN32(x uint32) bool { return x&0x7fffffff > 0x7f800000 }

// checkSum holds core.AddFloat32s to the reference bit for bit — one NaN
// operand's payload and sign survive into the sum, Inf - Inf makes the
// hardware's default NaN, -0 + -0 stays -0 — with one exception. When both
// operands are NaNs the add instruction returns its first source operand,
// and which operand the compiler places first is not something Go defines
// (it was never pinned for the reference loop either): there the sum must
// be one of the two operands, quieted.
func checkSum(t testing.TB, dst, src []byte) {
	t.Helper()
	before := append([]byte(nil), dst...)
	want := append([]byte(nil), dst...)
	addFloat32sRef(want, src)
	srcBefore := append([]byte(nil), src...)
	core.AddFloat32s(dst, src)
	if !bytes.Equal(src, srcBefore) {
		t.Fatalf("%d words: the right operand was written", len(dst)/4)
	}
	for i := 0; i < len(dst)/4; i++ {
		g, w := binary.LittleEndian.Uint32(dst[4*i:]), binary.LittleEndian.Uint32(want[4*i:])
		a, b := binary.LittleEndian.Uint32(before[4*i:]), binary.LittleEndian.Uint32(src[4*i:])
		if isNaN32(a) && isNaN32(b) {
			if g != a|0x00400000 && g != b|0x00400000 {
				t.Fatalf("%d words: word %d = %08x, want the quieted form of %08x or %08x", len(dst)/4, i, g, a, b)
			}
			continue
		}
		if g != w {
			t.Fatalf("%d words: word %d = %08x + %08x = %08x, reference %08x", len(dst)/4, i, a, b, g, w)
		}
	}
	if tail := 4 * (len(dst) / 4); !bytes.Equal(dst[tail:], before[tail:]) {
		t.Fatalf("%d words: bytes past the last whole word were written", len(dst)/4)
	}
}

func TestSumFloat32MatchesReference(t *testing.T) {
	for words := 0; words <= 67; words++ {
		dst, src := sumCase(words, uint32(words))
		checkSum(t, dst, src)
	}
	// Every pair of special operands, then a megaword of arbitrary bits.
	dst, src := sumCase(len(sumSpecials)*len(sumSpecials)+5, 99)
	checkSum(t, dst, src)
	dst, src = sumCase(1<<20, 7)
	checkSum(t, dst, src)
	// Slices that start 4 bytes into their allocation (a Slice at offset 4):
	// nothing may assume 8- or 16-byte alignment.
	for words := 1; words <= 67; words++ {
		dst, src := sumCase(words+1, uint32(1000+words))
		checkSum(t, dst[4:], src[4:])
		dst, src = sumCase(words+1, uint32(2000+words))
		checkSum(t, dst[4:], src[:4*words])
	}

	// Through an add receive's landing and its kernel charge, on a view of
	// a tracked device buffer: the sum lands in the parent's bytes, and
	// chargeSum charges its kernel and bumps the epoch again.
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 1})
	r := w.Rank(0)
	d, s := sumCase(70, 5)
	want := append([]byte(nil), d...)
	core.AddFloat32s(want[4:4+4*67], s[:4*67])
	buf := (&gpusim.Buffer{Data: d, Loc: gpusim.Device, Dev: r.Dev}).Track()
	view := buf.Slice(4, 4*67)
	hdr := core.Header{Algo: core.AlgoNone, OrigBytes: 4 * 67, CompBytes: 4 * 67}
	if err := r.Engine.DecompressAdd(r.Clock, hdr, s[:4*67], view, 0); err != nil {
		t.Fatal(err)
	}
	_, _, before, _ := buf.Version()
	clk := r.Clock.Now()
	r.chargeSum(r.Clock, &Request{buf: view, add: true})
	if _, _, after, _ := buf.Version(); after == before || r.Clock.Now() == clk {
		t.Fatal("chargeSum must charge its kernel and mark the buffer dirty")
	}
	if !bytes.Equal(d, want) {
		t.Fatal("an add landing on a view wrote something other than the view's sum")
	}
}

func FuzzSumFloat32(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add([]byte{0, 0, 0x80, 0x7f, 1, 0, 0xc0, 0x7f}, []byte{0, 0, 0x80, 0xff, 2, 0, 0xa0, 0xff}, uint8(0))
	d, s := sumCase(37, 3)
	f.Add(d, s, uint8(4))
	f.Fuzz(func(t *testing.T, a, b []byte, skew uint8) {
		// Misalign by 0..7 bytes, then cut both to the shorter whole-word length.
		if k := int(skew % 8); k <= len(a) && k <= len(b) {
			a, b = a[k:], b[k:]
		}
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		n &^= 3
		checkSum(t, append([]byte(nil), a[:n]...), append([]byte(nil), b[:n]...))
	})
}

// BenchmarkSumFloat32 is the reduce step on one 4 MiB vector: the
// word-at-a-time reference against the loop every add landing runs.
func BenchmarkSumFloat32(b *testing.B) {
	for _, arm := range []struct {
		name string
		add  func(dst, src []byte)
	}{{"reference", addFloat32sRef}, {"words", core.AddFloat32s}} {
		b.Run(arm.name, func(b *testing.B) {
			dst := core.FloatsToBytes(nil, datasets.Smooth(1<<20, 1, 1e-3))
			src := core.FloatsToBytes(nil, datasets.Smooth(1<<20, 2, 1e-3))
			b.SetBytes(int64(len(dst)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arm.add(dst, src)
			}
		})
	}
}

// benchCollHost runs one collective per iteration on 4x2 with 4 MiB of
// msg_sppm per rank under MPC-OPT — coll_mix's shape — and reports, next
// to host ns/op, the codec decode jobs each operation ran and the
// decompressions it simulated. all holds a vector per rank.
func benchCollHost(b *testing.B, op func(r *Rank, mine, all *gpusim.Buffer) error) {
	ds, ok := datasets.ByName("msg_sppm")
	if !ok {
		b.Fatal("msg_sppm dataset missing")
	}
	const words = 1 << 20
	vals := ds.Values(8 * words)
	w := mustWorld(b, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1}})
	mine, all := make([]*gpusim.Buffer, w.Size()), make([]*gpusim.Buffer, w.Size())
	for id := range mine {
		r := w.Rank(id)
		mine[id] = devBuf(r, vals[id*words:(id+1)*words]).Track()
		all[id] = emptyDevBuf(r, w.Size()*words).Track()
	}
	run := func() {
		w.ResetClocks()
		if _, err := w.Run(func(r *Rank) error { return op(r, mine[r.ID()], all[r.ID()]) }); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the pools, the arenas and the compress-once cache
	var jobs0, dec0 int
	for id := 0; id < w.Size(); id++ {
		jobs0 += w.Rank(id).Engine.HostSnapshot().DecodeJobs
		dec0 += w.Rank(id).Engine.Decompressions
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	var jobs, dec int
	for id := 0; id < w.Size(); id++ {
		jobs += w.Rank(id).Engine.HostSnapshot().DecodeJobs
		dec += w.Rank(id).Engine.Decompressions
	}
	b.ReportMetric(float64(jobs-jobs0)/float64(b.N), "decode-jobs/op")
	b.ReportMetric(float64(dec-dec0)/float64(b.N), "decompressions/op")
}

func BenchmarkAllgatherHost(b *testing.B) {
	benchCollHost(b, func(r *Rank, mine, all *gpusim.Buffer) error { return r.Allgather(mine, all) })
}

func BenchmarkBcastHost(b *testing.B) {
	benchCollHost(b, func(r *Rank, mine, _ *gpusim.Buffer) error { return r.Bcast(0, mine) })
}

// BenchmarkAllreduceHost is the reduction path: pipelined recursive
// doubling, each reduce step's receive decoding into the sum.
func BenchmarkAllreduceHost(b *testing.B) {
	benchCollHost(b, func(r *Rank, mine, all *gpusim.Buffer) error {
		return allreduceBy(sched.RecursiveDoubling, true)(r, mine, all.Slice(0, mine.Len()))
	})
}
