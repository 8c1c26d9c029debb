package core

import (
	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/model"
	"mpicomp/internal/simtime"
)

// The dynamic design is the paper's stated future work ("explore the
// dynamic design to automatically determine the use of compression ...
// based on the compression costs and communication time"): the Section
// II-A cost model picks each send's form (SendForm, chooseForm) from the
// bandwidth the caller passes and a running estimate of the ratio. It
// reproduces Figure 9(c): MPC-OPT does not pay off over 3-lane NVLink.

// ratioEWMAWeight is the update weight for the running compression-ratio
// estimate (new observations count 30%).
const ratioEWMAWeight = 0.3

// PredictedRatio returns the engine's current compression-ratio estimate
// for its configured algorithm.
func (e *Engine) PredictedRatio() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.predictedRatioLocked()
}

func (e *Engine) predictedRatioLocked() float64 {
	if c := codecFor(e.cfg.Algorithm); c != nil {
		return c.ratio(e)
	}
	return 1
}

// observeRatio folds an achieved ratio into the running estimate.
func (e *Engine) observeRatio(r float64) {
	if r <= 0 {
		return
	}
	if e.crEstimate <= 0 {
		e.crEstimate = r
		return
	}
	e.crEstimate = (1-ratioEWMAWeight)*e.crEstimate + ratioEWMAWeight*r
}

// formCodec returns the codec whose model picks the form of an n-byte
// send from buf, nil when there is no pick to make: outside ModeOpt, at a
// PipelineChunkBytes other than 0 (a positive one cuts at its fixed size
// and a negative one sends whole, both compressing every eligible message
// or chunk, as the paper's Figure 4 does), and for a message the engine
// would not compress.
func (e *Engine) formCodec(buf *gpusim.Buffer, n int) *codec {
	if e.cfg.Mode != ModeOpt || e.cfg.PipelineChunkBytes != 0 || !e.ShouldCompressPacked(buf, n) {
		return nil
	}
	return codecFor(e.cfg.Algorithm)
}

// chunkParamsLocked prices an n-byte message, or one n-byte chunk of a
// send, over a link of bwGBps for the model: the codec's kernels, the
// ratio estimate, every fixed charge around the kernels and the checksum
// pass over the predicted payload, on the sender and again on the
// receiver. c is the engine's codec.
func (e *Engine) chunkParamsLocked(c *codec, n int, bwGBps float64) model.Params {
	p := model.Params{MsgBytes: n, BandwidthGBps: bwGBps, CR: e.predictedRatioLocked()}
	p.Tcompr, p.Tdecompr = c.kernelCosts(e, n)
	p.TohCompr, p.TohDecompr = c.overheads(e, n)
	sum := simtime.ThroughputTime(int(float64(n)/p.CR), e.dev.Spec.MemBWGBps*8)
	p.TohCompr += sum
	p.TohDecompr += sum
	return p
}

// SendForm picks the form of an n-byte send of the words t selects from
// buf (of buf itself when t is nil) over a wire of bwGBps, and the time
// the model predicts (zero when it priced none): 0 uncompressed, 1 whole
// and compressed, k >= 2 cut into k chunks of ChunkBytes(n, k), which only
// a send with cut set may be. Without a pick to make (formCodec) it is 1,
// the paper's Figure 4. A send the model would leave uncompressed is
// probed every probeInterval-th time and picked again, so a pessimistic
// estimate cannot bypass forever. Every pick is counted in ChunkPicks.
func (e *Engine) SendForm(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, n int, bwGBps float64, cut bool) (int, simtime.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.formCodec(buf, n)
	if c == nil {
		return 1, 0
	}
	k, predicted := e.pickFormLocked(c, buf, t, n, bwGBps, cut)
	if k == 0 && c.probe != nil {
		probe := e.probes%probeInterval == 0
		e.probes++
		if probe {
			e.probeRatioLocked(c, clk, message{buf: buf, t: t, n: n})
			k, predicted = e.pickFormLocked(c, buf, t, n, bwGBps, cut)
		}
	}
	e.notePickLocked(k)
	return k, predicted
}

// PredictForm is SendForm as a pure query: it neither probes nor counts,
// so asking before a send returns what that send picks unless it probes.
func (e *Engine) PredictForm(buf *gpusim.Buffer, t dtype.Type, n int, bwGBps float64, cut bool) (int, simtime.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.formCodec(buf, n)
	if c == nil {
		return 1, 0
	}
	return e.pickFormLocked(c, buf, t, n, bwGBps, cut)
}

// pickFormLocked runs the chooser on an eligible send. A cut needs a
// measured ratio (the prior guess of a learning codec never cuts) and
// room for two Threshold-sized chunks. A message the compress-once cache
// holds whole at its current epoch stays whole, its compress stage free:
// the hit charges no kernel. So does the compress stage of any tracked
// buffer not written between two sends — it is tracked for the repeats
// the cache serves — until gpusim.Buffer.RewrittenSinceSend reports a
// write; from then on its kernel runs, and the stage is priced as it runs.
func (e *Engine) pickFormLocked(c *codec, buf *gpusim.Buffer, t dtype.Type, n int, bwGBps float64, cut bool) (int, simtime.Duration) {
	maxK := 1
	if cut && (c.probe == nil || e.crEstimate > 0) {
		maxK = n / e.cfg.Threshold
	}
	warm := false
	if key, epoch, ok := e.cacheKeyFor(buf, t, 0, n); ok {
		warm = !buf.RewrittenSinceSend()
		if i := e.cacheFindLocked(key); i >= 0 && e.cache[i].epoch == epoch {
			maxK, warm = 1, true
		}
	}
	return chooseForm(n, maxK, e.cfg.Threshold, bwGBps, func(k int) model.Params {
		p := e.chunkParamsLocked(c, ChunkBytes(n, k), bwGBps)
		if warm {
			p.Tcompr, p.TohCompr = 0, 0
		}
		return p
	})
}

// probeBytes is the prefix sampled to estimate a message's MPC
// compressibility when the model would otherwise send it uncompressed —
// the "real-time monitor" role the paper assigns to OSU INAM.
const probeBytes = 64 << 10

// probeInterval spaces out probes: the first message the model would
// leave uncompressed and every 16th thereafter pay the small sampling
// cost.
const probeInterval = 16

// probeRatioLocked refreshes codec c's ratio estimate from a small prefix
// of m's packed stream — read in place for a contiguous message, gathered through
// the layout's plan otherwise — with a real (sampled) compression.
func (e *Engine) probeRatioLocked(c *codec, clk *simtime.Clock, m message) {
	pn := probeBytes
	if pn > m.n {
		pn = m.n
	}
	sample := m.buf.Data[m.off : m.off+pn&^3]
	if m.t != nil {
		sample = e.ar.packedFor(pn &^ 3)
		m.t.Plan().Gather(sample, m.buf.Data, m.off)
	}
	c.probe(e, clk, sample, pn)
}
