package core

import (
	"mpicomp/internal/gpusim"
	"mpicomp/internal/model"
	"mpicomp/internal/mpc"
	"mpicomp/internal/simtime"
	"mpicomp/internal/zfp"
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

// initialMPCRatioEstimate seeds the MPC ratio estimate before any message
// has been observed (a conservative mid-regime value from Table III).
const initialMPCRatioEstimate = 1.4

// PredictedRatio returns the engine's current compression-ratio estimate
// for its configured algorithm.
func (e *Engine) PredictedRatio() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.predictedRatioLocked()
}

func (e *Engine) predictedRatioLocked() float64 {
	switch e.cfg.Algorithm {
	case AlgoZFP:
		// ZFP's fixed-rate ratio is exact by construction.
		return zfp.Ratio(e.cfg.ZFPRate)
	case AlgoMPC:
		if e.crEstimate > 0 {
			return e.crEstimate
		}
		return initialMPCRatioEstimate
	default:
		return 1
	}
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

// estimateKernelCosts predicts the compression-side and decompression-side
// kernel-and-overhead costs for a message of n bytes under the current
// configuration, mirroring the Engine's own cost accounting.
func (e *Engine) estimateKernelCosts(n int) (compr, decompr simtime.Duration) {
	spec := e.dev.Spec
	fixed := 2*spec.KernelLaunch + 2*spec.StreamSync
	switch e.cfg.Algorithm {
	case AlgoMPC:
		parts := 1
		if e.cfg.Mode == ModeOpt {
			parts = DefaultPartitions(n, e.cfg.MaxPartitions)
		}
		blocks := spec.SMs / parts
		if blocks < 1 {
			blocks = 1
		}
		kc := e.dev.KernelTime(gpusim.KernelSpec{
			Blocks: blocks, Bytes: n / parts,
			ThroughputGbps: spec.MPCCompressGbps, BusyWaitSync: true,
		})
		kd := e.dev.KernelTime(gpusim.KernelSpec{
			Blocks: blocks, Bytes: n / parts,
			ThroughputGbps: spec.MPCDecompressGbps, BusyWaitSync: true,
		})
		readback := spec.GDRCopySmall * simtime.Duration(parts)
		if e.cfg.Mode != ModeOpt {
			readback = spec.MemcpyD2HSmall * simtime.Duration(parts)
		}
		return kc + fixed + readback, kd + fixed
	case AlgoZFP:
		kc := e.dev.KernelTime(gpusim.KernelSpec{
			Blocks: spec.SMs, Bytes: n,
			ThroughputGbps: zfpKernelGbps(spec.ZFPCompressGbps, e.cfg.ZFPRate),
		})
		kd := e.dev.KernelTime(gpusim.KernelSpec{
			Blocks: spec.SMs, Bytes: n,
			ThroughputGbps: zfpKernelGbps(spec.ZFPDecompressGbps, e.cfg.ZFPRate),
		})
		return kc + fixed, kd + fixed
	default:
		return 0, 0
	}
}

// PredictBenefit evaluates equation (2) against equation (1) for an
// n-byte message over a link of bwGBps and reports whether compression is
// predicted to reduce latency.
func (e *Engine) PredictBenefit(n int, bwGBps float64) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	compr, decompr := e.estimateKernelCosts(n)
	p := model.Params{
		Tcompr:        compr,
		Tdecompr:      decompr,
		MsgBytes:      n,
		BandwidthGBps: bwGBps,
		CR:            e.predictedRatioLocked(),
	}
	return model.Benefit(p) > 0
}

// probeBytes is the prefix sampled to estimate a message's MPC
// compressibility when the dynamic gate would otherwise bypass it — the
// "real-time monitor" role the paper assigns to OSU INAM.
const probeBytes = 64 << 10

// probeInterval spaces out probes: the first gated message and every 16th
// thereafter pay the small sampling cost.
const probeInterval = 16

// probeRatio measures the compression ratio of a small prefix of buf with
// a real (sampled) compression, charging one small kernel launch.
func (e *Engine) probeRatio(clk *simtime.Clock, buf *gpusim.Buffer) {
	if e.cfg.Algorithm != AlgoMPC {
		return
	}
	n := probeBytes
	if n > buf.Len() {
		n = buf.Len()
	}
	cs, err := mpc.CompressedSizeBytes(buf.Data[:n&^3], e.cfg.MPCDim)
	if err != nil || cs == 0 {
		return
	}
	blocks := e.dev.Spec.SMs / 2
	if blocks < 1 {
		blocks = 1
	}
	e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{
		Blocks: blocks, Bytes: n, ThroughputGbps: e.dev.Spec.MPCCompressGbps, BusyWaitSync: true,
	})
	e.dev.StreamSync(clk, e.dev.Stream(0))
	e.observeRatio(float64(n) / float64(cs))
}

// CompressForLink is Compress with the dynamic-selection gate: when
// Config.Dynamic is set, messages whose predicted benefit over the given
// link is non-positive bypass compression. To avoid a cold-start lock-in
// (a pessimistic initial ratio estimate would bypass forever and never be
// corrected), gated messages are periodically probed: a small prefix is
// sample-compressed to refresh the ratio estimate before the final
// decision.
func (e *Engine) CompressForLink(clk *simtime.Clock, buf *gpusim.Buffer, bwGBps float64) ([]byte, Header) {
	if e.cfg.Dynamic && e.ShouldCompress(buf) && !e.PredictBenefit(buf.Len(), bwGBps) {
		e.mu.Lock()
		probe := e.probes%probeInterval == 0
		e.probes++
		if probe {
			e.probeRatio(clk, buf)
		}
		e.mu.Unlock()
		if !probe || !e.PredictBenefit(buf.Len(), bwGBps) {
			e.mu.Lock()
			e.Bypasses++
			payload, hdr := e.bypassLocked(clk, buf)
			e.mu.Unlock()
			return payload, hdr
		}
	}
	return e.Compress(clk, buf)
}
