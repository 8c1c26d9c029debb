package dtype

import (
	"bytes"
	"errors"
	"math/big"
	"testing"
)

func fill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	return b
}

func TestContiguous(t *testing.T) {
	ty := Contiguous{Words: 6}
	if ty.Size() != 24 {
		t.Fatalf("size = %d, want 24", ty.Size())
	}
	if err := ty.Validate(24); err != nil {
		t.Fatalf("validate: %v", err)
	}
	runs := runsOf(ty)
	if len(runs) != 1 || runs[0] != [2]int{0, 24} {
		t.Fatalf("runs = %v, want [{0 24}]", runs)
	}
}

func TestVectorRuns(t *testing.T) {
	ty := Vector{Count: 3, BlockLen: 2, Stride: 5}
	if ty.Size() != 24 {
		t.Fatalf("size = %d, want 24", ty.Size())
	}
	runs := runsOf(ty)
	want := [][2]int{{0, 8}, {20, 8}, {40, 8}}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
}

func TestVectorCoalesce(t *testing.T) {
	// Stride == BlockLen: the blocks are contiguous and must merge into
	// one run so the codec sees the largest possible copy granule.
	ty := Vector{Count: 4, BlockLen: 3, Stride: 3}
	runs := runsOf(ty)
	if len(runs) != 1 || runs[0] != [2]int{0, 48} {
		t.Fatalf("runs = %v, want single coalesced run {0 48}", runs)
	}
}

func TestSubarrayRuns(t *testing.T) {
	// Full x rows coalesce across y when the box spans the whole x axis.
	full := Subarray3D{Dims: [3]int{4, 3, 2}, Sub: [3]int{4, 3, 1}, Start: [3]int{0, 0, 1}}
	runs := runsOf(full)
	if len(runs) != 1 || runs[0] != [2]int{4 * 12, 4 * 12} {
		t.Fatalf("full-plane runs = %v, want single run", runs)
	}

	face := Subarray3D{Dims: [3]int{4, 3, 2}, Sub: [3]int{1, 3, 2}, Start: [3]int{2, 0, 0}}
	runs = runsOf(face)
	if len(runs) != 6 {
		t.Fatalf("face runs = %v, want 6 single-word runs", runs)
	}
	for i, rg := range runs {
		if rg[1] != 4 {
			t.Fatalf("face run %d = %v, want length 4", i, rg)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		ty     Type
		bufLen int
	}{
		{"contig zero", Contiguous{Words: 0}, 64},
		{"contig overflow", Contiguous{Words: 17}, 64},
		{"vector zero count", Vector{Count: 0, BlockLen: 1, Stride: 1}, 64},
		{"vector zero blocklen", Vector{Count: 2, BlockLen: 0, Stride: 1}, 64},
		{"vector negative stride", Vector{Count: 2, BlockLen: 1, Stride: -3}, 64},
		{"vector overlapping stride", Vector{Count: 2, BlockLen: 4, Stride: 2}, 64},
		{"vector overflow", Vector{Count: 4, BlockLen: 2, Stride: 5}, 64},
		{"subarray zero dim", Subarray3D{Dims: [3]int{0, 1, 1}, Sub: [3]int{1, 1, 1}}, 64},
		{"subarray zero sub", Subarray3D{Dims: [3]int{2, 2, 2}, Sub: [3]int{1, 0, 1}}, 64},
		{"subarray negative start", Subarray3D{Dims: [3]int{2, 2, 2}, Sub: [3]int{1, 1, 1}, Start: [3]int{0, -1, 0}}, 64},
		{"subarray exceeds extent", Subarray3D{Dims: [3]int{2, 2, 2}, Sub: [3]int{2, 2, 2}, Start: [3]int{1, 0, 0}}, 64},
		{"subarray exceeds buffer", Subarray3D{Dims: [3]int{4, 4, 4}, Sub: [3]int{1, 1, 1}}, 64},
	}
	for _, tc := range cases {
		err := tc.ty.Validate(tc.bufLen)
		if err == nil {
			t.Errorf("%s: Validate(%d) = nil, want error", tc.name, tc.bufLen)
			continue
		}
		if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v does not wrap ErrInvalid", tc.name, err)
		}
	}
}

func TestSignatures(t *testing.T) {
	types := []Type{
		Contiguous{Words: 6},
		Contiguous{Words: 7},
		Vector{Count: 3, BlockLen: 2, Stride: 5},
		Vector{Count: 3, BlockLen: 2, Stride: 6},
		Vector{Count: 2, BlockLen: 3, Stride: 5},
		Subarray3D{Dims: [3]int{4, 3, 2}, Sub: [3]int{1, 3, 2}, Start: [3]int{2, 0, 0}},
		Subarray3D{Dims: [3]int{4, 3, 2}, Sub: [3]int{1, 3, 2}, Start: [3]int{1, 0, 0}},
	}
	seen := map[uint64]int{}
	for i, ty := range types {
		sig := ty.Signature()
		if sig == 0 {
			t.Fatalf("type %d: zero signature", i)
		}
		if sig != ty.Signature() {
			t.Fatalf("type %d: signature not stable", i)
		}
		if j, dup := seen[sig]; dup {
			t.Fatalf("types %d and %d collide on signature %#x", j, i, sig)
		}
		seen[sig] = i
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	types := []Type{
		Contiguous{Words: 16},
		Vector{Count: 5, BlockLen: 3, Stride: 7},
		Subarray3D{Dims: [3]int{6, 5, 4}, Sub: [3]int{2, 3, 2}, Start: [3]int{3, 1, 1}},
	}
	for i, ty := range types {
		src := fill(4 * 6 * 5 * 4)
		packed := make([]byte, ty.Size())
		if err := Pack(packed, src, ty); err != nil {
			t.Fatalf("type %d: pack: %v", i, err)
		}
		dst := make([]byte, len(src))
		if err := Unpack(dst, packed, ty); err != nil {
			t.Fatalf("type %d: unpack: %v", i, err)
		}
		repacked := make([]byte, ty.Size())
		if err := Pack(repacked, dst, ty); err != nil {
			t.Fatalf("type %d: repack: %v", i, err)
		}
		if !bytes.Equal(packed, repacked) {
			t.Fatalf("type %d: pack -> unpack -> pack not identity", i)
		}
	}
}

func TestPackMatchesManualGather(t *testing.T) {
	ty := Vector{Count: 3, BlockLen: 2, Stride: 4}
	src := fill(4 * ty.extentWords())
	packed := make([]byte, ty.Size())
	if err := Pack(packed, src, ty); err != nil {
		t.Fatalf("pack: %v", err)
	}
	var want []byte
	for i := 0; i < ty.Count; i++ {
		off := 4 * i * ty.Stride
		want = append(want, src[off:off+4*ty.BlockLen]...)
	}
	if !bytes.Equal(packed, want) {
		t.Fatalf("pack = %x, want %x", packed, want)
	}
}

func TestPackShortDst(t *testing.T) {
	ty := Contiguous{Words: 4}
	if err := Pack(make([]byte, 8), fill(16), ty); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short dst: err = %v, want ErrInvalid", err)
	}
	if err := Unpack(fill(16), make([]byte, 8), ty); !errors.Is(err, ErrInvalid) {
		t.Fatalf("short src: err = %v, want ErrInvalid", err)
	}
}

// overflowShapes are layouts whose extent, computed in int, wraps to
// something small: Validate must decide them without forming the product.
// Both subarrays passed Validate(8<<20) before the extent check went
// axis by axis (4 * 2^63 and 4 * 2^62 are 0 mod 2^64), and Pack then
// sliced out of range; the vector and the contiguous run are the analogous
// shapes for the other two layouts.
var overflowShapes = []Type{
	Subarray3D{Dims: [3]int{1 << 21, 1 << 21, 1 << 21}, Sub: [3]int{1, 1, 2}},
	Subarray3D{Dims: [3]int{1 << 21, 1 << 21, 1 << 20}, Sub: [3]int{1, 1, 2}},
	Vector{Count: 1<<31 + 1, BlockLen: 1, Stride: 1 << 31},
	Contiguous{Words: 1 << 62},
}

func TestValidateRejectsOverflowingExtents(t *testing.T) {
	src := make([]byte, 8<<20)
	dst := make([]byte, 64)
	for _, ty := range overflowShapes {
		if err := ty.Validate(len(src)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%+v: Validate(%d) = %v, want ErrInvalid", ty, len(src), err)
		}
		if err := Pack(dst, src, ty); !errors.Is(err, ErrInvalid) {
			t.Errorf("%+v: Pack = %v, want ErrInvalid", ty, err)
		}
		if err := Unpack(src, dst, ty); !errors.Is(err, ErrInvalid) {
			t.Errorf("%+v: Unpack = %v, want ErrInvalid", ty, err)
		}
	}
}

// extentBytes is the layout's source extent in bytes, computed without
// overflow; ok is false when a field is out of the range the formula
// assumes (Validate must then reject the layout on that ground).
func extentBytes(ty Type) (ext *big.Int, ok bool) {
	mul := func(vs ...int) *big.Int {
		p := big.NewInt(1)
		for _, v := range vs {
			p.Mul(p, big.NewInt(int64(v)))
		}
		return p
	}
	switch t := ty.(type) {
	case Contiguous:
		return mul(4, t.Words), t.Words >= 1
	case Vector:
		ext := mul(t.Count-1, t.Stride)
		ext.Add(ext, big.NewInt(int64(t.BlockLen)))
		return ext.Mul(ext, big.NewInt(4)), t.Count >= 1 && t.BlockLen >= 1 && t.Stride >= t.BlockLen
	case Subarray3D:
		ok := true
		for ax := 0; ax < 3; ax++ {
			ok = ok && t.Dims[ax] >= 1 && t.Sub[ax] >= 1 && t.Start[ax] >= 0 &&
				t.Sub[ax] <= t.Dims[ax] && t.Start[ax] <= t.Dims[ax]-t.Sub[ax]
		}
		return mul(4, t.Dims[0], t.Dims[1], t.Dims[2]), ok
	}
	return nil, false
}

// fuzzLayout builds one of the three layouts from raw fuzz integers.
func fuzzLayout(kind uint8, a, b, c int, dims, start [3]int) Type {
	switch kind % 3 {
	case 0:
		return Vector{Count: a, BlockLen: b, Stride: c}
	case 1:
		return Subarray3D{Dims: dims, Sub: [3]int{a, b, c}, Start: start}
	}
	return Contiguous{Words: a}
}

// FuzzPackUnpack checks Validate against the overflow-free extent for
// arbitrary layouts and buffer lengths — every field is the fuzzer's, the
// subarray's Dims included — and, where the buffer is small enough to
// allocate, round-trips Pack -> Unpack -> Pack to a fixed point. Invalid
// layouts must be rejected by Validate, never panic or read out of bounds.
func FuzzPackUnpack(f *testing.F) {
	f.Add(uint8(0), 3, 2, 5, 0, 0, 0, 0, 0, 0, 2048)
	f.Add(uint8(1), 4, 1, 1, 8, 8, 8, 2, 3, 0, 2048)
	f.Add(uint8(1), 2, 3, 3, 3, 5, 7, 1, 2, 4, 420)
	f.Add(uint8(2), 16, 0, 0, 0, 0, 0, 0, 0, 0, 64)
	for _, ty := range overflowShapes {
		switch t := ty.(type) {
		case Subarray3D:
			f.Add(uint8(1), t.Sub[0], t.Sub[1], t.Sub[2], t.Dims[0], t.Dims[1], t.Dims[2], 0, 0, 0, 8<<20)
		case Vector:
			f.Add(uint8(0), t.Count, t.BlockLen, t.Stride, 0, 0, 0, 0, 0, 0, 8<<20)
		case Contiguous:
			f.Add(uint8(2), t.Words, 0, 0, 0, 0, 0, 0, 0, 0, 8<<20)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, a, b, c, d0, d1, d2, s0, s1, s2, bufLen int) {
		if bufLen < 0 {
			bufLen = -(bufLen + 1)
		}
		ty := fuzzLayout(kind, a, b, c, [3]int{d0, d1, d2}, [3]int{s0, s1, s2})
		ext, wellFormed := extentBytes(ty)
		fits := wellFormed && ext.Cmp(big.NewInt(int64(bufLen))) <= 0
		err := ty.Validate(bufLen)
		if err != nil && !errors.Is(err, ErrInvalid) {
			t.Fatalf("validation error %v does not wrap ErrInvalid", err)
		}
		// Vector's guard also rejects a stride wider than the buffer
		// whatever the extent, so only the other two are decided exactly.
		if _, vec := ty.(Vector); (err == nil && !fits) || (err != nil && fits && !vec) {
			t.Fatalf("%+v: Validate(%d) = %v, but the extent is %v bytes (well-formed %v)", ty, bufLen, err, ext, wellFormed)
		}
		if err != nil || bufLen > 1<<16 {
			return
		}
		src := fill(bufLen)
		if ty.Size() <= 0 || ty.Size() > len(src) {
			t.Fatalf("valid layout with bad size %d", ty.Size())
		}
		packed := make([]byte, ty.Size())
		if err := Pack(packed, src, ty); err != nil {
			t.Fatalf("pack: %v", err)
		}
		dst := make([]byte, len(src))
		if err := Unpack(dst, packed, ty); err != nil {
			t.Fatalf("unpack: %v", err)
		}
		repacked := make([]byte, ty.Size())
		if err := Pack(repacked, dst, ty); err != nil {
			t.Fatalf("repack: %v", err)
		}
		if !bytes.Equal(packed, repacked) {
			t.Fatal("pack -> unpack -> pack not a fixed point")
		}
	})
}
