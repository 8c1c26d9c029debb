package zfp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func maxAbs(xs []float32) float64 {
	m := 0.0
	for _, x := range xs {
		if a := math.Abs(float64(x)); a > m {
			m = a
		}
	}
	return m
}

func maxErr(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if e := math.Abs(float64(a[i]) - float64(b[i])); e > m {
			m = e
		}
	}
	return m
}

func smoothData(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	v := 1.0
	for i := range out {
		v += rng.NormFloat64() * 0.01
		out[i] = float32(v)
	}
	return out
}

func TestCompressedSizeExact(t *testing.T) {
	cases := []struct {
		n, rate, want int
	}{
		{0, 16, 0},
		{1, 16, 8},  // 1 block * 64 bits
		{4, 16, 8},  // 1 block
		{5, 16, 16}, // 2 blocks
		{8, 16, 16}, // 2 blocks
		{1024, 16, 2048},
		{1024, 8, 1024},
		{1024, 4, 512},
		{1024, 32, 4096},
		{6, 4, 4}, // 2 blocks * 16 bits = 4 bytes
	}
	for _, c := range cases {
		got, err := CompressedSize(c.n, c.rate)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("CompressedSize(%d,%d)=%d want %d", c.n, c.rate, got, c.want)
		}
	}
}

func TestCompressMatchesCompressedSize(t *testing.T) {
	for _, rate := range []int{3, 4, 8, 16, 31, 32} {
		for _, n := range []int{0, 1, 3, 4, 5, 100, 1023} {
			src := smoothData(n, int64(n)+int64(rate))
			comp, err := Compress(nil, src, rate)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := CompressedSize(n, rate)
			if len(comp) != want {
				t.Fatalf("n=%d rate=%d: len=%d want %d", n, rate, len(comp), want)
			}
		}
	}
}

func TestZeroDataReconstructsExactly(t *testing.T) {
	src := make([]float32, 100)
	comp, err := Compress(nil, src, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(nil, comp, len(src), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("value %d: got %v want 0", i, v)
		}
	}
}

func TestRate16RelativeError(t *testing.T) {
	src := smoothData(4096, 5)
	comp, err := Compress(nil, src, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(nil, comp, len(src), 16)
	if err != nil {
		t.Fatal(err)
	}
	rel := maxErr(src, got) / maxAbs(src)
	if rel > 1e-3 {
		t.Fatalf("rate 16 relative error too large: %g", rel)
	}
}

func TestErrorDecreasesWithRate(t *testing.T) {
	src := smoothData(4096, 6)
	prev := math.Inf(1)
	for _, rate := range []int{4, 8, 12, 16, 24, 32} {
		comp, err := Compress(nil, src, rate)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(nil, comp, len(src), rate)
		if err != nil {
			t.Fatal(err)
		}
		e := maxErr(src, got)
		if e > prev*1.2 { // allow slight non-monotonic noise
			t.Fatalf("error at rate %d (%g) regressed vs previous (%g)", rate, e, prev)
		}
		prev = e
	}
	if prev > 1e-5 {
		t.Fatalf("rate 32 should be near-lossless, max err %g", prev)
	}
}

func TestRate32NearLossless(t *testing.T) {
	src := smoothData(1000, 7)
	comp, _ := Compress(nil, src, 32)
	got, _ := Decompress(nil, comp, len(src), 32)
	rel := maxErr(src, got) / maxAbs(src)
	if rel > 1e-6 {
		t.Fatalf("rate 32 relative error %g too large", rel)
	}
}

func TestMixedSignsAndMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	src := make([]float32, 512)
	for i := range src {
		src[i] = float32((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(7)-3)))
	}
	comp, err := Compress(nil, src, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(nil, comp, len(src), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Per-block error scales with the block max; check block-relative error.
	for b := 0; b < len(src); b += BlockValues {
		end := b + BlockValues
		blockMax := maxAbs(src[b:end])
		if blockMax == 0 {
			continue
		}
		if e := maxErr(src[b:end], got[b:end]); e/blockMax > 2e-3 {
			t.Fatalf("block %d relative error %g", b/4, e/blockMax)
		}
	}
}

func TestPartialBlockTail(t *testing.T) {
	for tail := 1; tail <= 3; tail++ {
		src := smoothData(32+tail, int64(tail))
		comp, err := Compress(nil, src, 16)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(nil, comp, len(src), 16)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(src) {
			t.Fatalf("tail %d: got %d values want %d", tail, len(got), len(src))
		}
		rel := maxErr(src, got) / maxAbs(src)
		if rel > 1e-3 {
			t.Fatalf("tail %d: relative error %g", tail, rel)
		}
	}
}

func TestDecompressRejectsShortBuffer(t *testing.T) {
	src := smoothData(64, 1)
	comp, _ := Compress(nil, src, 16)
	if _, err := Decompress(nil, comp[:len(comp)-1], 64, 16); err == nil {
		t.Fatal("short buffer should fail")
	}
}

func TestBadRates(t *testing.T) {
	if _, err := Compress(nil, []float32{1}, 0); err == nil {
		t.Fatal("rate 0 should fail")
	}
	if _, err := Compress(nil, []float32{1}, 33); err == nil {
		t.Fatal("rate 33 should fail")
	}
	if _, err := Decompress(nil, nil, 1, -5); err == nil {
		t.Fatal("negative rate should fail")
	}
	if _, err := CompressedSize(10, 99); err == nil {
		t.Fatal("CompressedSize with bad rate should fail")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(16) != 2 || Ratio(8) != 4 || Ratio(4) != 8 || Ratio(32) != 1 {
		t.Fatalf("fixed ratios wrong: %v %v %v %v", Ratio(16), Ratio(8), Ratio(4), Ratio(32))
	}
}

// Property: the reconstruction error of any finite block is bounded
// relative to the block magnitude at rate >= 16.
func TestBlockErrorBoundProperty(t *testing.T) {
	f := func(a, b, c, d float32) bool {
		for _, v := range []float32{a, b, c, d} {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return true // lossy codec semantics undefined for non-finite
			}
			if v != 0 && math.Abs(float64(v)) < 1e-30 {
				return true // denormal-tiny blocks round to zero by design
			}
		}
		src := []float32{a, b, c, d}
		comp, err := Compress(nil, src, 16)
		if err != nil {
			return false
		}
		got, err := Decompress(nil, comp, 4, 16)
		if err != nil {
			return false
		}
		blockMax := maxAbs(src)
		if blockMax == 0 {
			return maxErr(src, got) == 0
		}
		return maxErr(src, got)/blockMax <= 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode of the integer coder are exact inverses when the
// full bit budget (no truncation) is available.
func TestLiftInverse(t *testing.T) {
	f := func(a, b, c, d int32) bool {
		// Constrain to Q1.30 domain as in real blocks.
		in := [4]int32{a >> 2, b >> 2, c >> 2, d >> 2}
		var blk [4]int32
		blk[0], blk[1], blk[2], blk[3] = invLift(fwdLift(in[0], in[1], in[2], in[3]))
		// The lifting pair loses at most 1 ulp per stage in the low
		// bits; zfp guarantees |error| bounded by a few ulps.
		for i := range in {
			diff := int64(in[i]) - int64(blk[i])
			if diff < -8 || diff > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestNegabinaryInverse(t *testing.T) {
	f := func(v int32) bool { return nb2int(int2nb(v)) == v }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Negabinary must order magnitudes by MSB position: small values use
	// few bits.
	if int2nb(0) != 0 {
		t.Fatal("nb(0) != 0")
	}
}

func TestDecompressAppendsToDst(t *testing.T) {
	src := smoothData(8, 2)
	comp, _ := Compress(nil, src, 16)
	out, err := Decompress([]float32{99}, comp, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 9 || out[0] != 99 {
		t.Fatalf("append semantics broken")
	}
}
