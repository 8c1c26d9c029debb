package core

import (
	"mpicomp/internal/model"
	"mpicomp/internal/mpc"
	"mpicomp/internal/simtime"
)

// The pipelined send's cut. A send cut into k chunks overlaps chunk i's
// transfer with chunk i+1's compression and chunk i-1's decompression (the
// chunked tier of internal/mpi), so it costs model.Pipelined: one chunk's
// whole path plus k-1 of its slowest stage. More chunks shorten every
// stage but pay each chunk's fixed charges again — launches, syncs,
// readbacks, the d_off memset, pool takes — and below about 1 MiB a chunk
// gets one MPC partition and pays the full-GPU busy-wait.

// chunkAlign is the granule every cut falls on: one MPC chunk (32 words),
// a whole number of ZFP's 16-byte blocks. Each chunk then encodes exactly
// the blocks the whole message would, so it decodes to the same bytes.
const chunkAlign = 4 * mpc.ChunkWords

// ChunkBytes is the size of the chunks an n-byte send is cut into when it
// is cut into k: n/k rounded up to a whole chunkAlign, the last chunk
// taking what is left.
func ChunkBytes(n, k int) int {
	if k <= 1 {
		return n
	}
	c := (n + k - 1) / k
	return (c + chunkAlign - 1) / chunkAlign * chunkAlign
}

// chooseForm is the chooser. Its candidates are the uncompressed transfer
// of an n-byte send over a link of bwGBps (k = 0, equation 1), the whole
// message compressed (k = 1) and, up to maxK, every cut whose last chunk
// reaches threshold — so every chunk compresses, and the cut makes
// exactly k chunks. It returns the k that minimises the predicted time,
// the least such k on a tie, and that time; part(k) prices one chunk of a
// k-way cut for model.Pipelined.
func chooseForm(n, maxK, threshold int, bwGBps float64, part func(k int) model.Params) (int, simtime.Duration) {
	best, bestT := 0, model.Baseline(model.Params{MsgBytes: n, BandwidthGBps: bwGBps})
	for k := 1; k <= maxK; k++ {
		if k > 1 && n-(k-1)*ChunkBytes(n, k) < threshold {
			continue
		}
		if t := model.Pipelined(part(k), k); t < bestT {
			best, bestT = k, t
		}
	}
	return best, bestT
}
