package core

import (
	"mpicomp/internal/model"
	"mpicomp/internal/simtime"
)

// Dynamic selection is the paper's stated future work ("explore the
// dynamic design to automatically determine the use of compression ...
// based on the compression costs and communication time"): before
// compressing, the engine evaluates the Section II-A cost model with the
// destination link's bandwidth and its running estimate of the achievable
// compression ratio, and bypasses compression when the model predicts a
// loss. This automatically reproduces Figure 9(c)'s finding that MPC-OPT
// does not pay off over 3-lane NVLink while still engaging on IB and PCIe.

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

// chunkParamsLocked prices an n-byte message, or one n-byte chunk of a
// send, over a link of bwGBps for the model: the codec's kernels and the
// ratio estimate, and in ModeOpt every fixed charge around the kernels
// plus the checksum pass over the predicted payload, on the sender and
// again on the receiver. ModeNaive keeps the gate's first, coarse overhead
// of two launches and two syncs a side: nothing chooses chunks there, and
// its per-message cudaMalloc, cudaFree and device-property queries
// (Section III) were never priced.
func (e *Engine) chunkParamsLocked(n int, bwGBps float64) model.Params {
	p := model.Params{MsgBytes: n, BandwidthGBps: bwGBps, CR: e.predictedRatioLocked()}
	c := codecFor(e.cfg.Algorithm)
	if c == nil {
		return p
	}
	p.Tcompr, p.Tdecompr = c.kernelCosts(e, n)
	if e.cfg.Mode != ModeOpt {
		spec := e.dev.Spec
		p.TohCompr = 2*spec.KernelLaunch + 2*spec.StreamSync
		p.TohDecompr = p.TohCompr
		return p
	}
	p.TohCompr, p.TohDecompr = c.overheads(e, n)
	sum := simtime.ThroughputTime(int(float64(n)/p.CR), e.dev.Spec.MemBWGBps*8)
	p.TohCompr += sum
	p.TohDecompr += sum
	return p
}

// PredictBenefit evaluates equation (2) against equation (1) for an
// n-byte message over a link of bwGBps and reports whether compression is
// predicted to reduce latency.
func (e *Engine) PredictBenefit(n int, bwGBps float64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.predictBenefitLocked(n, 1, bwGBps)
}

// predictBenefitLocked is the dynamic gate's price: a send of k parts of n
// bytes, pipelined (model.Pipelined; k = 1 is equation 2), against the
// uncompressed transfer of all k·n bytes (equation 1).
func (e *Engine) predictBenefitLocked(n, k int, bwGBps float64) bool {
	base := model.Baseline(model.Params{MsgBytes: k * n, BandwidthGBps: bwGBps})
	return base > model.Pipelined(e.chunkParamsLocked(n, bwGBps), k)
}

// probeBytes is the prefix sampled to estimate a message's MPC
// compressibility when the dynamic gate would otherwise bypass it — the
// "real-time monitor" role the paper assigns to OSU INAM.
const probeBytes = 64 << 10

// probeInterval spaces out probes: the first gated message and every 16th
// thereafter pay the small sampling cost.
const probeInterval = 16

// probeRatioLocked refreshes the ratio estimate from a small prefix of m's
// packed stream — read in place for a contiguous message, gathered through
// the layout's plan otherwise — with a real (sampled) compression.
func (e *Engine) probeRatioLocked(clk *simtime.Clock, m message) {
	c := codecFor(e.cfg.Algorithm)
	if c == nil || c.probe == nil {
		return
	}
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

// compressForLinkLocked is compressLocked behind the dynamic-selection
// gate: when Config.Dynamic is set, a part m of a send cut into k parts
// (k = 1: m is the whole message) bypasses compression when the model
// predicts no benefit for the send over the given link. To avoid a
// cold-start lock-in (a pessimistic initial ratio estimate would bypass
// forever and never be corrected), gated messages are periodically probed:
// a small prefix is sample-compressed to refresh the ratio estimate before
// the final decision.
func (e *Engine) compressForLinkLocked(clk *simtime.Clock, m message, k int, bwGBps float64) ([]byte, Header) {
	if e.cfg.Dynamic && e.eligible(m) && !e.predictBenefitLocked(m.n, k, bwGBps) {
		probe := e.probes%probeInterval == 0
		e.probes++
		if probe {
			e.probeRatioLocked(clk, m)
		}
		if !probe || !e.predictBenefitLocked(m.n, k, bwGBps) {
			e.Bypasses++
			return e.bypassViewLocked(clk, m)
		}
	}
	return e.compressLocked(clk, m)
}
