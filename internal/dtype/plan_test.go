package dtype

import (
	"bytes"
	"testing"
)

// TestPlanCanonicalForms pins the canonical form of each merge case: the
// plan is the layout's own few integers, with every level a merge can
// remove removed.
func TestPlanCanonicalForms(t *testing.T) {
	one := [2]int{1, 1}
	cases := []struct {
		name string
		ty   Type
		want Plan
	}{
		{"contiguous", Contiguous{Words: 6}, Plan{Run: 24, Count: one}},
		{"vector", Vector{Count: 3, BlockLen: 2, Stride: 5},
			Plan{Run: 8, Count: [2]int{3, 1}, Stride: [2]int{20, 0}}},
		{"vector, stride == blocklen", Vector{Count: 4, BlockLen: 3, Stride: 3}, Plan{Run: 48, Count: one}},
		{"vector, one block", Vector{Count: 1, BlockLen: 3, Stride: 7}, Plan{Run: 12, Count: one}},
		{"subarray, interior box", Subarray3D{Dims: [3]int{6, 5, 4}, Sub: [3]int{2, 3, 2}, Start: [3]int{3, 1, 1}},
			Plan{Base: 4 * (5*6 + 6 + 3), Run: 8, Count: [2]int{3, 2}, Stride: [2]int{24, 120}}},
		{"subarray, full rows", Subarray3D{Dims: [3]int{4, 3, 5}, Sub: [3]int{4, 2, 3}, Start: [3]int{0, 1, 1}},
			Plan{Base: 4 * (12 + 4), Run: 32, Count: [2]int{3, 1}, Stride: [2]int{48, 0}}},
		{"subarray, full planes", Subarray3D{Dims: [3]int{4, 3, 2}, Sub: [3]int{4, 3, 1}, Start: [3]int{0, 0, 1}},
			Plan{Base: 48, Run: 48, Count: one}},
		{"subarray, one row per plane", Subarray3D{Dims: [3]int{4, 3, 5}, Sub: [3]int{2, 1, 3}, Start: [3]int{1, 2, 0}},
			Plan{Base: 4 * (8 + 1), Run: 8, Count: [2]int{3, 1}, Stride: [2]int{48, 0}}},
		{"subarray, one plane", Subarray3D{Dims: [3]int{4, 3, 5}, Sub: [3]int{2, 2, 1}, Start: [3]int{0, 0, 4}},
			Plan{Base: 4 * 48, Run: 8, Count: [2]int{2, 1}, Stride: [2]int{16, 0}}},
		{"subarray, whole y axis", Subarray3D{Dims: [3]int{4, 3, 5}, Sub: [3]int{1, 3, 2}, Start: [3]int{2, 0, 1}},
			Plan{Base: 4 * (12 + 2), Run: 4, Count: [2]int{6, 1}, Stride: [2]int{16, 0}}},
		// The AWP-ODC faces (320 x 320 x 32 mesh, 9 fields).
		{"X face", Subarray3D{Dims: [3]int{2, 320, 288}, Sub: [3]int{1, 320, 288}, Start: [3]int{1, 0, 0}},
			Plan{Base: 4, Run: 4, Count: [2]int{92160, 1}, Stride: [2]int{8, 0}}},
		{"Y face", Subarray3D{Dims: [3]int{320, 2, 288}, Sub: [3]int{320, 1, 288}, Start: [3]int{0, 1, 0}},
			Plan{Base: 1280, Run: 1280, Count: [2]int{288, 1}, Stride: [2]int{2560, 0}}},
	}
	for _, c := range cases {
		if got := c.ty.Plan(); got != c.want {
			t.Errorf("%s: plan %+v, want %+v", c.name, got, c.want)
		}
		if got := c.want.Run * c.want.Count[0] * c.want.Count[1]; got != c.ty.Size() {
			t.Errorf("%s: plan covers %d bytes, the layout packs %d", c.name, got, c.ty.Size())
		}
	}
}

// planRuns enumerates the plan's runs in packed order.
func planRuns(p Plan) [][2]int {
	var runs [][2]int
	for j := 0; j < p.Count[1]; j++ {
		for i := 0; i < p.Count[0]; i++ {
			runs = append(runs, [2]int{p.Base + j*p.Stride[1] + i*p.Stride[0], p.Run})
		}
	}
	return runs
}

// checkPlan compares the plan's closed-form kernels with the run table on
// packed bytes [off, off+n) of ty over a buffer of bufLen bytes.
func checkPlan(t *testing.T, ty Type, bufLen, off, n int) {
	t.Helper()
	runs, p := runsOf(ty), ty.Plan()
	// Canonical means maximally coalesced: the plan's runs are the table's.
	if got := planRuns(p); len(got) != len(runs) {
		t.Fatalf("%+v: plan %+v has %d runs, the table %d", ty, p, len(got), len(runs))
	} else {
		for k := range runs {
			if got[k] != runs[k] {
				t.Fatalf("%+v: plan %+v run %d is %v, the table says %v", ty, p, k, got[k], runs[k])
			}
		}
	}

	// where[q] is the buffer offset of packed byte off+q.
	where := make([]int, 0, n)
	packedPos := 0
	for _, rg := range runs {
		for b := 0; b < rg[1]; b, packedPos = b+1, packedPos+1 {
			if packedPos >= off && packedPos < off+n {
				where = append(where, rg[0]+b)
			}
		}
	}

	src := fill(bufLen)
	want := make([]byte, n)
	for q, w := range where {
		want[q] = src[w]
	}
	got := bytes.Repeat([]byte{0xa5}, n+2)
	p.Gather(got[1:1+n], src, off)
	if !bytes.Equal(got[1:1+n], want) || got[0] != 0xa5 || got[n+1] != 0xa5 {
		t.Fatalf("%+v: Gather(off %d, n %d) = %x, want %x", ty, off, n, got, want)
	}

	dst := bytes.Repeat([]byte{0xee}, bufLen)
	wantDst := append([]byte(nil), dst...)
	for q, w := range where {
		wantDst[w] = want[q]
	}
	p.Scatter(dst, off, want)
	if !bytes.Equal(dst, wantDst) {
		t.Fatalf("%+v: Scatter(off %d, n %d) wrote the wrong bytes or outside the range", ty, off, n)
	}
	// Scatter then gather is a fixed point.
	back := make([]byte, n)
	p.Gather(back, dst, off)
	if !bytes.Equal(back, want) {
		t.Fatalf("%+v: Gather after Scatter(off %d, n %d) differs", ty, off, n)
	}
}

// FuzzPlanMatchesRuns is the bit-identity gate of the O(1) plan: for the
// three layout kinds — every merge case among the seeds — Gather and
// Scatter over any packed byte range (unaligned ends, zero length, a prefix
// shorter than one run, spans crossing both levels) move exactly the bytes
// the run table says, and nothing else.
func FuzzPlanMatchesRuns(f *testing.F) {
	// kind, a, b, c, dims, start, off, n. Fields are reduced to small
	// ranges below so that most inputs are valid layouts.
	f.Add(uint8(2), 6, 0, 0, 0, 0, 0, 0, 0, 0, 3, 17) // contiguous
	f.Add(uint8(0), 3, 2, 5, 0, 0, 0, 0, 0, 0, 0, 24) // vector
	f.Add(uint8(0), 4, 3, 3, 0, 0, 0, 0, 0, 0, 5, 40) // stride == blocklen
	f.Add(uint8(0), 1, 3, 7, 0, 0, 0, 0, 0, 0, 1, 10) // one block
	f.Add(uint8(0), 5, 1, 2, 0, 0, 0, 0, 0, 0, 2, 13) // one-word runs
	f.Add(uint8(0), 5, 2, 3, 0, 0, 0, 0, 0, 0, 7, 30) // two-word runs
	f.Add(uint8(0), 3, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0)  // zero length
	f.Add(uint8(0), 4, 9, 11, 0, 0, 0, 0, 0, 0, 35, 80)
	f.Add(uint8(1), 2, 3, 2, 6, 5, 4, 3, 1, 1, 5, 40) // interior box, both levels
	f.Add(uint8(1), 4, 2, 3, 4, 3, 5, 0, 1, 1, 9, 70) // full rows
	f.Add(uint8(1), 4, 3, 1, 4, 3, 2, 0, 0, 1, 0, 48) // full planes
	f.Add(uint8(1), 2, 1, 3, 4, 3, 5, 1, 2, 0, 3, 20) // one row per plane
	f.Add(uint8(1), 2, 2, 1, 4, 3, 5, 0, 0, 4, 1, 2)  // one plane, prefix inside a run
	f.Add(uint8(1), 1, 3, 2, 4, 3, 5, 2, 0, 1, 4, 19) // whole y axis (an X face)
	f.Add(uint8(1), 5, 1, 4, 5, 2, 4, 0, 1, 0, 6, 61) // a Y face
	f.Add(uint8(1), 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 4)  // a single word
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c, d0, d1, d2, s0, s1, s2, off, n int) {
		small := func(v, m int) int { return max(v%m, -(v % m)) }
		dims := [3]int{1 + small(d0, 7), 1 + small(d1, 7), 1 + small(d2, 7)}
		start := [3]int{small(s0, 7), small(s1, 7), small(s2, 7)}
		ty := fuzzLayout(kind, 1+small(a, 12), 1+small(b, 12), 1+small(c, 12), dims, start)
		bufLen := 4 * 12 * 12 * 12
		if ty.Validate(bufLen) != nil {
			return
		}
		off = small(off, ty.Size()+1)
		n = small(n, ty.Size()-off+1)
		checkPlan(t, ty, bufLen, off, n)
	})
}

// The two AWP-ODC halo faces of the bench mesh (320 x 320 x 32, 9 fields):
// an X face is 92,160 one-word runs, a Y face 288 rows of 1,280 bytes.
var (
	xFace = Subarray3D{Dims: [3]int{2, 320, 288}, Sub: [3]int{1, 320, 288}, Start: [3]int{1, 0, 0}}
	yFace = Subarray3D{Dims: [3]int{320, 2, 288}, Sub: [3]int{320, 1, 288}, Start: [3]int{0, 1, 0}}
)

func benchPack(b *testing.B, ty Subarray3D) {
	src := fill(4 * ty.Dims[0] * ty.Dims[1] * ty.Dims[2])
	packed := make([]byte, ty.Size())
	b.SetBytes(int64(ty.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Pack(packed, src, ty); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPackXFace(b *testing.B) { benchPack(b, xFace) }
func BenchmarkPackYFace(b *testing.B) { benchPack(b, yFace) }

func benchUnpack(b *testing.B, ty Subarray3D) {
	dst := make([]byte, 4*ty.Dims[0]*ty.Dims[1]*ty.Dims[2])
	packed := fill(ty.Size())
	b.SetBytes(int64(ty.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Unpack(dst, packed, ty); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnpackXFace(b *testing.B) { benchUnpack(b, xFace) }
func BenchmarkUnpackYFace(b *testing.B) { benchUnpack(b, yFace) }
