package mpc

import (
	"math"
	"testing"

	"mpicomp/internal/datasets"
)

// The benchmarks name their regime. msg_sppm at its Table III dim 1 is
// the sparse end (most chunks repeat their predictors, the rest carry one
// jump) and the message of the p2p_mpc workload; msg_sp at dim 5 is the
// dense end (every chunk keeps most planes). Each runs the word coder,
// the byte coder and the loop coder of reference_test.go ("loop") on the
// same 16 MiB with a reused destination, so one `go test -bench 16MB`
// prints before and after.

func benchWords(b *testing.B, name string) []uint32 {
	d, ok := datasets.ByName(name)
	if !ok {
		b.Fatalf("no dataset %s", name)
	}
	vals := d.Values(16 << 20 / 4)
	w := make([]uint32, len(vals))
	for i, f := range vals {
		w[i] = math.Float32bits(f)
	}
	return w
}

func benchCompress(b *testing.B, name string, dim int) {
	src := benchWords(b, name)
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
	src := benchWords(b, name)
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
	src := benchWords(b, "msg_sp")
	b.SetBytes(int64(4 * len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := CompressedSize(src, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressSweep16MB(b *testing.B)   { benchCompress(b, "msg_sweep3d", 1) }
func BenchmarkDecompressSweep16MB(b *testing.B) { benchDecompress(b, "msg_sweep3d", 1) }
