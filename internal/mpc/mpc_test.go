package mpc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func roundTripWords(t *testing.T, src []uint32, dim int) {
	t.Helper()
	comp, err := CompressWords(nil, src, dim)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	got, err := DecompressWords(nil, comp, len(src), dim)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if len(got) != len(src) {
		t.Fatalf("length: got %d want %d", len(got), len(src))
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("word %d: got %#x want %#x (dim=%d)", i, got[i], src[i], dim)
		}
	}
}

func TestRoundTripEmpty(t *testing.T)      { roundTripWords(t, nil, 1) }
func TestRoundTripOneWord(t *testing.T)    { roundTripWords(t, []uint32{0xdeadbeef}, 1) }
func TestRoundTripTailOnly(t *testing.T)   { roundTripWords(t, []uint32{1, 2, 3, 4, 5}, 2) }
func TestRoundTripExactChunk(t *testing.T) { roundTripWords(t, seq(32), 1) }
func TestRoundTripChunkPlusTail(t *testing.T) {
	roundTripWords(t, seq(35), 1)
	roundTripWords(t, seq(63), 3)
	roundTripWords(t, seq(97), 7)
}

func seq(n int) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = uint32(i) * 1000003
	}
	return s
}

func TestRoundTripAllDims(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]uint32, 257)
	for i := range src {
		src[i] = rng.Uint32()
	}
	for dim := 1; dim <= MaxDim; dim++ {
		roundTripWords(t, src, dim)
	}
}

func TestRoundTripFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := make([]float32, 1000)
	v := float32(1.0)
	for i := range src {
		v += float32(rng.NormFloat64()) * 0.01
		src[i] = v
	}
	comp, err := CompressFloat32(nil, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecompressFloat32(nil, comp, len(src), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
			t.Fatalf("value %d: got %v want %v", i, got[i], src[i])
		}
	}
}

// Lossless round-trip must hold for arbitrary bit patterns, including NaN
// payloads and infinities, because MPC operates on raw words.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, dimRaw uint8, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		dim := 1 + int(dimRaw)%MaxDim
		n := int(nRaw) % 600
		src := make([]uint32, n)
		for i := range src {
			// Mix smooth and random regions to exercise both
			// compressible and incompressible chunks.
			if i > 0 && rng.Intn(2) == 0 {
				src[i] = src[i-1] + uint32(rng.Intn(16))
			} else {
				src[i] = rng.Uint32()
			}
		}
		comp, err := CompressWords(nil, src, dim)
		if err != nil {
			return false
		}
		got, err := DecompressWords(nil, comp, n, dim)
		if err != nil {
			return false
		}
		for i := range src {
			if got[i] != src[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConstantDataCompressesHard(t *testing.T) {
	src := make([]uint32, 4096)
	for i := range src {
		src[i] = 0x3f800000 // 1.0f repeated
	}
	cs, err := CompressedSize(src, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(src)*4) / float64(cs)
	// Constant data should approach the format ceiling of 32x
	// (one bitmap word per 32 input words, one residual plane word for
	// the chunk-leading value at most).
	if ratio < 15 {
		t.Fatalf("constant data ratio too low: %.2f", ratio)
	}
}

func TestSmoothDataBeatsRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 8192
	smooth := make([]uint32, n)
	random := make([]uint32, n)
	v := float32(100)
	for i := 0; i < n; i++ {
		v += float32(rng.NormFloat64()) * 0.001
		smooth[i] = math.Float32bits(v)
		random[i] = rng.Uint32()
	}
	rs, err := Ratio(smooth, 1)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Ratio(random, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rs <= rr {
		t.Fatalf("smooth ratio %.3f should beat random ratio %.3f", rs, rr)
	}
	if rs < 1.2 {
		t.Fatalf("smooth data should compress at least 1.2x, got %.3f", rs)
	}
	// Random data should cost at most the bitmap overhead (~3%).
	if rr < 0.96 {
		t.Fatalf("random data expands too much: %.3f", rr)
	}
}

// Dimensionality must matter: data interleaved with stride d compresses
// best at dim=d.
func TestDimensionalitySelectsInterleaving(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const d = 4
	n := 4096
	src := make([]uint32, n)
	walks := [d]float32{10, 2000, -5, 0.5}
	for i := 0; i < n; i++ {
		c := i % d
		walks[c] += float32(rng.NormFloat64()) * 0.001
		src[i] = math.Float32bits(walks[c])
	}
	best, err := TuneDim(src, 8)
	if err != nil {
		t.Fatal(err)
	}
	if best != d {
		t.Fatalf("TuneDim picked %d, want %d", best, d)
	}
	rBest, _ := Ratio(src, d)
	r1, _ := Ratio(src, 1)
	if rBest <= r1 {
		t.Fatalf("dim=%d ratio %.3f should beat dim=1 ratio %.3f", d, rBest, r1)
	}
}

func TestCompressedSizeMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(500)
		src := make([]uint32, n)
		for i := range src {
			if rng.Intn(3) > 0 && i > 0 {
				src[i] = src[i-1] + 1
			} else {
				src[i] = rng.Uint32()
			}
		}
		le := wordsToLE(src)
		for dim := 1; dim <= MaxDim; dim++ {
			comp, err := CompressWords(nil, src, dim)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := CompressedSize(src, dim)
			if err != nil {
				t.Fatal(err)
			}
			csb, err := CompressedSizeBytes(le, dim)
			if err != nil {
				t.Fatal(err)
			}
			if cs != len(comp) || csb != len(comp) {
				t.Fatalf("CompressedSize=%d CompressedSizeBytes=%d but len(comp)=%d (n=%d dim=%d)", cs, csb, len(comp), n, dim)
			}
			if len(comp) > Bound(n) {
				t.Fatalf("compressed %d exceeds Bound %d", len(comp), Bound(n))
			}
		}
	}
}

// TestByteEntryPointsRejectPartialWords: the byte entry points take whole
// little-endian words only.
func TestByteEntryPointsRejectPartialWords(t *testing.T) {
	if _, err := AppendCompressBytes(nil, make([]byte, 7), 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("AppendCompressBytes: got %v, want ErrUnaligned", err)
	}
	if err := DecompressBytesInto(make([]byte, 7), nil, 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("DecompressBytesInto: got %v, want ErrUnaligned", err)
	}
	if _, err := CompressedSizeBytes(make([]byte, 7), 1); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("CompressedSizeBytes: got %v, want ErrUnaligned", err)
	}
	if _, err := AppendCompressBytes(nil, make([]byte, 8), 0); !errors.Is(err, ErrBadDim) {
		t.Fatalf("AppendCompressBytes dim 0: got %v, want ErrBadDim", err)
	}
}

func TestBadDimRejected(t *testing.T) {
	if _, err := CompressWords(nil, seq(10), 0); err == nil {
		t.Fatal("dim=0 should fail")
	}
	if _, err := CompressWords(nil, seq(10), MaxDim+1); err == nil {
		t.Fatal("dim too large should fail")
	}
	if _, err := DecompressWords(nil, nil, 0, -1); err == nil {
		t.Fatal("negative dim should fail")
	}
}

func TestCorruptDataRejected(t *testing.T) {
	src := seq(64)
	comp, err := CompressWords(nil, src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecompressWords(nil, comp[:len(comp)-2], 64, 1); err == nil {
		t.Fatal("truncated buffer should fail")
	}
	if _, err := DecompressWords(nil, append(comp, 0, 0, 0, 0), 64, 1); err == nil {
		t.Fatal("trailing bytes should fail")
	}
	if _, err := DecompressWords(nil, nil, 64, 1); err == nil {
		t.Fatal("empty buffer should fail for n>0")
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	src := seq(40)
	comp, _ := CompressWords(nil, src, 1)
	prefix := []uint32{111, 222}
	out, err := DecompressWords(append([]uint32(nil), prefix...), comp, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 42 || out[0] != 111 || out[1] != 222 || out[2] != src[0] {
		t.Fatalf("append semantics broken: %v...", out[:3])
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b [32]uint32
		for i := range a {
			a[i] = rng.Uint32()
		}
		b = a
		transpose32(&b)
		transpose32(&b)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeMovesBits(t *testing.T) {
	// The Hacker's Delight network uses MSB-first orientation: bit j of
	// word i lands at bit (31-i) of word (31-j). Any fixed bit
	// permutation works for zero-word elimination; this test pins the
	// orientation so encode and decode cannot silently diverge.
	var a [32]uint32
	a[5] = 1 << 17
	transpose32(&a)
	for i, w := range a {
		want := uint32(0)
		if i == 31-17 {
			want = 1 << (31 - 5)
		}
		if w != want {
			t.Fatalf("word %d: got %#x want %#x", i, w, want)
		}
	}
}

func TestZigzagInverse(t *testing.T) {
	cases := []uint32{0, 1, 0xffffffff, 0x80000000, 0x7fffffff, 12345, ^uint32(12344)}
	for _, v := range cases {
		if unzigzag(zigzag(v)) != v {
			t.Fatalf("zigzag round-trip failed for %#x", v)
		}
	}
	// Small magnitudes must map to small codes.
	if zigzag(1) != 2 || zigzag(^uint32(0)) != 1 || zigzag(0) != 0 {
		t.Fatalf("zigzag ordering wrong: z(1)=%d z(-1)=%d z(0)=%d", zigzag(1), zigzag(^uint32(0)), zigzag(0))
	}
}
