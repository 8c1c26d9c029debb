package core

import (
	"testing"

	"mpicomp/internal/model"
)

// TestChunkCandidatesReachThreshold holds the chooser's candidate set to
// its rule: every k it prices cuts an n-byte send into exactly k chunks,
// the last of at least Threshold bytes, so every chunk compresses. n runs
// over multiples of 16 from two Threshold-sized chunks to 64 MiB, sampled,
// plus 32 MiB, where k = 123-127 leave a last chunk under Threshold.
func TestChunkCandidatesReachThreshold(t *testing.T) {
	const threshold = DefaultThreshold
	sizes := []int{32 << 20}
	for n := 2 * threshold; n <= 64<<20; n += 16 * 7919 {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		var priced []int
		chooseChunks(n, threshold, func(k int) model.Params {
			priced = append(priced, k)
			return model.Params{MsgBytes: n, BandwidthGBps: 12.5, CR: 1}
		})
		for _, k := range priced {
			c := ChunkBytes(n, k)
			if chunks, last := (n+c-1)/c, n-(k-1)*c; chunks != k || last < threshold {
				t.Fatalf("n=%d: candidate k=%d cuts %d chunks of %d bytes, the last %d", n, k, chunks, c, last)
			}
		}
	}
}
