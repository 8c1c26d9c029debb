package mpc

import (
	"math/rand"
	"testing"
)

// FuzzDecompressWords: arbitrary bytes must either decode into exactly n
// words or return an error — never panic, never mis-size.
func FuzzDecompressWords(f *testing.F) {
	good, _ := CompressWords(nil, seq(100), 3)
	f.Add(good, 100, 3)
	f.Add([]byte{}, 0, 1)
	f.Add([]byte{1, 2, 3}, 32, 1)
	f.Fuzz(func(t *testing.T, comp []byte, n, dim int) {
		if n < 0 || n > 1<<16 {
			return
		}
		out, err := DecompressWords(nil, comp, n, dim)
		if err == nil && len(out) != n {
			t.Fatalf("decoded %d words, want %d", len(out), n)
		}
	})
}

// TestDecompressRandomBytes drives the decoder over random garbage as a
// plain test so the property is exercised on every `go test` run.
func TestDecompressRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(300)
		comp := make([]byte, rng.Intn(600))
		rng.Read(comp)
		dim := 1 + rng.Intn(MaxDim)
		out, err := DecompressWords(nil, comp, n, dim)
		if err == nil && len(out) != n {
			t.Fatalf("silent mis-size on garbage input")
		}
	}
}
