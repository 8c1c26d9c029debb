package core

import (
	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
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
// gets one MPC partition and pays the full-GPU busy-wait. The chooser
// prices every k with the gate's own per-part costs (chunkParamsLocked)
// and keeps the cheapest.

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

// chooseChunks is the chooser: among the cuts of an n-byte send whose
// last chunk reaches threshold — so every chunk compresses, and the cut
// makes exactly k chunks — the chunk count k that minimises
// model.Pipelined(part(k), k), the least such k on a tie, and that
// predicted time. k = 1, the whole message, is always a candidate. part(k)
// prices one chunk of a k-way cut.
func chooseChunks(n, threshold int, part func(k int) model.Params) (int, simtime.Duration) {
	best, bestT := 1, model.Pipelined(part(1), 1)
	for k := 2; k <= n/threshold; k++ {
		if n-(k-1)*ChunkBytes(n, k) < threshold {
			continue
		}
		if t := model.Pipelined(part(k), k); t < bestT {
			best, bestT = k, t
		}
	}
	return best, bestT
}

// PipelineChunks returns the number of chunks an n-byte point-to-point
// send of the words t selects from buf (of buf itself when t is nil) is
// cut into over a link of bwGBps, and the time the model predicts for that
// cut (zero when it priced none). It is 1 — the whole message of the
// paper's Figure 4 — outside ModeOpt, for a message the engine would not
// compress, and for one too small for two chunks of Threshold bytes. Any
// other send is a pick, counted in ChunkPicks: 1 while an estimated ratio
// is still the prior guess, 1 for a message the compress-once cache holds
// whole, and the chooser's k otherwise. For a tracked buffer the chooser
// prices the compress stage at zero — such a buffer is tracked for the
// repeats the cache serves, so its cut is sized for them — until the
// buffer is written between two sends (gpusim.Buffer.RewrittenSinceSend):
// from then on its kernel runs, and the stage is priced as it runs. The
// call is a pure query: the send itself records what it sent
// (CompressChunkCached), so asking twice returns the same k.
func (e *Engine) PipelineChunks(buf *gpusim.Buffer, t dtype.Type, n int, bwGBps float64) (int, simtime.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := codecFor(e.cfg.Algorithm)
	if e.cfg.Mode != ModeOpt || c == nil || !e.ShouldCompressPacked(buf, n) || n < 2*e.cfg.Threshold {
		return 1, 0
	}
	k, predicted := e.pickChunksLocked(c, buf, t, n, bwGBps)
	e.notePickLocked(k)
	return k, predicted
}

func (e *Engine) pickChunksLocked(c *codec, buf *gpusim.Buffer, t dtype.Type, n int, bwGBps float64) (int, simtime.Duration) {
	if c.probe != nil && e.crEstimate <= 0 {
		return 1, 0
	}
	warm := false
	if key, epoch, ok := e.cacheKeyFor(buf, t, 0, n, 1, bwGBps); ok {
		if i := e.cacheFindLocked(key); i >= 0 && e.cache[i].epoch == epoch {
			return 1, 0
		}
		warm = !buf.RewrittenSinceSend()
	}
	return chooseChunks(n, e.cfg.Threshold, func(k int) model.Params {
		p := e.chunkParamsLocked(ChunkBytes(n, k), bwGBps)
		if warm {
			p.Tcompr, p.TohCompr = 0, 0
		}
		return p
	})
}
