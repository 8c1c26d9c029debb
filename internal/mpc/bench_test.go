package mpc

import (
	"math"
	"runtime/debug"
	"testing"
	"time"

	"mpicomp/internal/datasets"
)

// The benchmarks name their regime. msg_sppm at its Table III dim 1 is
// the sparse end (80 % of chunks repeat their predictors; 95 % of the
// rest carry one jump in one residual, the lone-residual case that codes
// without the transpose) and the message of the p2p_mpc workload; msg_sp
// at dim 5 is the dense end (every chunk keeps most planes). Each runs the word coder,
// the byte coder and the loop coder of reference_test.go ("loop") on the
// same 16 MiB with a reused destination, so one `go test -bench 16MB`
// prints before and after.

// benchWords returns size bytes of the dataset name as words.
func benchWords(tb testing.TB, name string, size int) []uint32 {
	d, ok := datasets.ByName(name)
	if !ok {
		tb.Fatalf("no dataset %s", name)
	}
	vals := d.Values(size / 4)
	w := make([]uint32, len(vals))
	for i, f := range vals {
		w[i] = math.Float32bits(f)
	}
	return w
}

func benchCompress(b *testing.B, name string, dim int) {
	src := benchWords(b, name, 16<<20)
	le := wordsToLE(src)
	dst := make([]byte, 0, Bound(len(src)))
	run := func(name string, compress func() ([]byte, error)) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(le)))
			for i := 0; i < b.N; i++ {
				if _, err := compress(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("words", func() ([]byte, error) { return AppendCompressWords(dst, src, dim) })
	run("bytes", func() ([]byte, error) { return AppendCompressBytes(dst, le, dim) })
	run("loop", func() ([]byte, error) { return refCompressWords(dst, src, dim) })
}

func benchDecompress(b *testing.B, name string, dim int) {
	src := benchWords(b, name, 16<<20)
	comp, err := CompressWords(nil, src, dim)
	if err != nil {
		b.Fatal(err)
	}
	words := make([]uint32, len(src))
	le := make([]byte, 4*len(src))
	run := func(name string, decompress func() error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(le)))
			for i := 0; i < b.N; i++ {
				if err := decompress(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("words", func() error { return DecompressWordsInto(words, comp, dim) })
	run("bytes", func() error { return DecompressBytesInto(le, comp, dim) })
	run("loop", func() error { return refDecompressWordsInto(words, comp, dim) })
}

func BenchmarkCompressSppm16MB(b *testing.B)   { benchCompress(b, "msg_sppm", 1) }
func BenchmarkDecompressSppm16MB(b *testing.B) { benchDecompress(b, "msg_sppm", 1) }
func BenchmarkCompressSp16MB(b *testing.B)     { benchCompress(b, "msg_sp", 5) }
func BenchmarkDecompressSp16MB(b *testing.B)   { benchDecompress(b, "msg_sp", 5) }

// BenchmarkCompressedSizeSp16MB is one of TuneDim's 32 trial passes.
func BenchmarkCompressedSizeSp16MB(b *testing.B) {
	src := benchWords(b, "msg_sp", 16<<20)
	b.SetBytes(int64(4 * len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := CompressedSize(src, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSweep16MB(b *testing.B)   { benchCompress(b, "msg_sweep3d", 1) }
func BenchmarkDecompressSweep16MB(b *testing.B) { benchDecompress(b, "msg_sweep3d", 1) }

// TestByteCoderOutrunsLoopCoder is the chunk coder's speed gate. The byte
// coder and the loop coder run in one process, interleaved pass by pass,
// best single pass each, so their ratio does not depend on how fast the
// machine is.
// Each floor sits at about 70 % of the ratio the 64-bit network measures
// (EXPERIMENTS.md, "Host codec throughput — MPC").
func TestByteCoderOutrunsLoopCoder(t *testing.T) {
	if testing.Short() || raceEnabled() {
		t.Skip("timing gate: skipped under -short and -race")
	}
	for _, c := range []struct {
		name                 string
		dim                  int
		compress, decompress float64 // floors on byte-coder over loop-coder speed
	}{
		{"msg_sppm", 1, 4.9, 5.2},
		{"msg_sp", 5, 1.6, 1.45},
	} {
		src := benchWords(t, c.name, 2<<20)
		le := wordsToLE(src)
		comp, err := CompressWords(nil, src, c.dim)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, Bound(len(src)))
		words := make([]uint32, len(src))
		gate := func(op string, floor float64, fast, loop func() error) {
			ratio, err := speedRatio(fast, loop)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s dim %d %s: byte coder %.2fx the loop coder (floor %.2fx)", c.name, c.dim, op, ratio, floor)
			if ratio < floor {
				t.Errorf("%s dim %d %s: byte coder only %.2fx the loop coder, floor %.2fx", c.name, c.dim, op, ratio, floor)
			}
		}
		gate("compress", c.compress,
			func() error { _, err := AppendCompressBytes(dst, le, c.dim); return err },
			func() error { _, err := refCompressWords(dst, src, c.dim); return err })
		gate("decompress", c.decompress,
			func() error { return DecompressBytesInto(le, comp, c.dim) },
			func() error { return refDecompressWordsInto(words, comp, c.dim) })
	}
}

// speedRatio returns how many times faster fast runs than loop: the best
// of many single-pass samples per coder, the two taking turns pass by
// pass. Load from a neighbouring test package then spoils only the
// samples it lands on, and each side's best sample is one it spared;
// with a few long multi-pass blocks, one burst could spoil every block
// of one side.
func speedRatio(fast, loop func() error) (float64, error) {
	const samples = 12
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for s := 0; s < samples; s++ {
		for i, f := range [2]func() error{fast, loop} {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	return float64(best[1]) / float64(best[0]), nil
}

// raceEnabled reports whether the test binary was built with -race, which
// slows the two coders by different factors.
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}
