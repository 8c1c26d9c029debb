package zfp

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime/debug"
	"testing"
	"time"

	"mpicomp/internal/datasets"
)

// The benchmarks are one matrix: msg_sppm (smooth, the p2p_zfp workload's
// message: one table step, then value 0 alone to the end of the budget),
// msg_sp (dense: most blocks end in the verbatim tail) and num_plasma
// (table steps after the run, the step path's cell), each at rates 8 and
// 16, on 4 MiB. Every cell runs the coder through its byte entry points
// (what internal/core calls), its float32 ones (the ladder's) and the
// bit-serial coder of reference_test.go ("ref"), so one
// `go test -bench 4MB` prints before and after.

// benchValues returns size bytes of the dataset name as float32 values.
func benchValues(tb testing.TB, name string, size int) []float32 {
	d, ok := datasets.ByName(name)
	if !ok {
		tb.Fatalf("no dataset %s", name)
	}
	return d.Values(size / 4)
}

// littleEndian returns vals as they sit in a message buffer.
func littleEndian(vals []float32) []byte {
	le := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(le[4*i:], math.Float32bits(v))
	}
	return le
}

var benchRates = []int{8, 16}

func benchCompress(b *testing.B, name string) {
	src := benchValues(b, name, 4<<20)
	le := littleEndian(src)
	for _, rate := range benchRates {
		want, _ := CompressedSize(len(src), rate)
		dst := make([]byte, 0, want)
		run := func(arm string, compress func() error) {
			b.Run(fmt.Sprintf("rate%d/%s", rate, arm), func(b *testing.B) {
				b.SetBytes(int64(len(le)))
				for i := 0; i < b.N; i++ {
					if err := compress(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("bytes", func() error { _, err := AppendCompressBytes(dst, le, rate); return err })
		run("floats", func() error { _, err := AppendCompress(dst, src, rate); return err })
		run("ref", func() error { refAppendCompress(dst, src, rate); return nil })
	}
}

func benchDecompress(b *testing.B, name string) {
	src := benchValues(b, name, 4<<20)
	le := make([]byte, 4*len(src))
	out := make([]float32, len(src))
	for _, rate := range benchRates {
		comp, err := Compress(nil, src, rate)
		if err != nil {
			b.Fatal(err)
		}
		run := func(arm string, decompress func() error) {
			b.Run(fmt.Sprintf("rate%d/%s", rate, arm), func(b *testing.B) {
				b.SetBytes(int64(len(le)))
				for i := 0; i < b.N; i++ {
					if err := decompress(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		run("bytes", func() error { return DecompressBytesInto(le, comp, rate) })
		run("floats", func() error { return DecompressInto(out, comp, rate) })
		run("ref", func() error { refDecompressInto(out, comp, rate); return nil })
	}
}

func BenchmarkCompressSppm4MB(b *testing.B)     { benchCompress(b, "msg_sppm") }
func BenchmarkDecompressSppm4MB(b *testing.B)   { benchDecompress(b, "msg_sppm") }
func BenchmarkCompressSp4MB(b *testing.B)       { benchCompress(b, "msg_sp") }
func BenchmarkDecompressSp4MB(b *testing.B)     { benchDecompress(b, "msg_sp") }
func BenchmarkCompressPlasma4MB(b *testing.B)   { benchCompress(b, "num_plasma") }
func BenchmarkDecompressPlasma4MB(b *testing.B) { benchDecompress(b, "num_plasma") }

// TestBlockCoderOutrunsReference is the block coder's speed gate. The byte
// entry points and the bit-serial reference coder run in one process,
// interleaved, best of three runs each, so their ratio does not depend on
// how fast the machine is. Each floor sits at about 70 % of the ratio
// measured (EXPERIMENTS.md, "Host codec throughput — ZFP, second pass").
func TestBlockCoderOutrunsReference(t *testing.T) {
	if testing.Short() || raceEnabled() {
		t.Skip("timing gate: skipped under -short and -race")
	}
	for _, c := range []struct {
		name                 string
		rate                 int
		compress, decompress float64 // floors on block-coder over reference speed
	}{
		{"msg_sppm", 8, 5.0, 3.5},
		{"msg_sp", 16, 5.2, 5.0},
	} {
		src := benchValues(t, c.name, 1<<20)
		le := littleEndian(src)
		comp, err := Compress(nil, src, c.rate)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]byte, 0, len(comp))
		out := make([]float32, len(src))
		gate := func(op string, floor float64, fast, ref func() error) {
			ratio, err := speedRatio(fast, ref)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s rate %d %s: block coder %.1fx the reference (floor %.1fx)", c.name, c.rate, op, ratio, floor)
			if ratio < floor {
				t.Errorf("%s rate %d %s: block coder only %.1fx the reference, floor %.1fx", c.name, c.rate, op, ratio, floor)
			}
		}
		gate("compress", c.compress,
			func() error { _, err := AppendCompressBytes(dst, le, c.rate); return err },
			func() error { refAppendCompress(dst, src, c.rate); return nil })
		gate("decompress", c.decompress,
			func() error { return DecompressBytesInto(le, comp, c.rate) },
			func() error { refDecompressInto(out, comp, c.rate); return nil })
	}
}

// speedRatio returns how many times faster fast runs than ref: the best of
// three runs of four passes each, the two coders taking turns.
func speedRatio(fast, ref func() error) (float64, error) {
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	for run := 0; run < 3; run++ {
		for i, f := range [2]func() error{fast, ref} {
			start := time.Now()
			for pass := 0; pass < 4; pass++ {
				if err := f(); err != nil {
					return 0, err
				}
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
