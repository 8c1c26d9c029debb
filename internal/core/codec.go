package core

import (
	"mpicomp/internal/gpusim"
	"mpicomp/internal/mpc"
	"mpicomp/internal/simtime"
	"mpicomp/internal/zfp"
)

// codec is everything the framework needs to know about one compression
// algorithm. The framework itself (engine.go, dynamic.go) is codec-blind:
// this file is the only place a codec id is branched on, and
// TestCodecIDBranchesOnlyInTable keeps it that way.
type codec struct {
	name string
	// compress and decompress are the codec's kernels under the
	// compressMPC contract (engine.go): packed sizes, arena-aliased output.
	compress func(e *Engine, clk *simtime.Clock, src []byte, n int, view typedView) ([]byte, Header)
	// decoded is runDecode's: the job's output when another rank already
	// holds it, nil otherwise.
	decompress func(e *Engine, clk *simtime.Clock, hdr Header, payload, dst []byte, view typedView, decoded []byte) error
	// ratio predicts the compression ratio of the next message.
	ratio func(e *Engine) float64
	// kernelCosts predicts the compression-side and decompression-side
	// kernel costs of an n-byte message (MPC's size readback included),
	// mirroring the kernels' own accounting; overheads predicts the fixed
	// charges around them in ModeOpt (launches, syncs, pool takes, the
	// d_off memset, the combine).
	kernelCosts func(e *Engine, n int) (compr, decompr simtime.Duration)
	overheads   func(e *Engine, n int) (compr, decompr simtime.Duration)
	// probe sample-compresses the packed prefix of a gated message (pn
	// bytes, word-truncated into sample) to refresh the ratio estimate;
	// nil for fixed-rate codecs, whose ratio is known without looking.
	probe func(e *Engine, clk *simtime.Clock, sample []byte, pn int)
	// needsOffPool marks a codec whose kernels also draw a d_off
	// synchronization array from offPool.
	needsOffPool bool
	// check reports the codec's error for cfg's control parameter (the
	// one its first message would fail with), nil when it is in range.
	check func(cfg Config) error
}

// codecs is the fixed codec table, indexed by Algorithm. AlgoNone's row
// is empty; codecFor hides it.
var codecs = [...]codec{
	AlgoMPC: {
		name:         "MPC",
		compress:     (*Engine).compressMPC,
		decompress:   (*Engine).decompressMPC,
		ratio:        (*Engine).mpcRatio,
		kernelCosts:  (*Engine).mpcKernelCosts,
		overheads:    (*Engine).mpcOverheads,
		probe:        (*Engine).mpcProbe,
		needsOffPool: true,
		check: func(cfg Config) error {
			_, err := mpc.CompressedSize(nil, cfg.MPCDim)
			return err
		},
	},
	AlgoZFP: {
		name:        "ZFP",
		compress:    (*Engine).compressZFP,
		decompress:  (*Engine).decompressZFP,
		ratio:       (*Engine).zfpRatio,
		kernelCosts: (*Engine).zfpKernelCosts,
		overheads:   (*Engine).zfpOverheads,
		check: func(cfg Config) error {
			_, err := zfp.CompressedSize(0, cfg.ZFPRate)
			return err
		},
	},
}

// codecFor returns a's table row, or nil for AlgoNone and for any id
// outside the table — header ids arrive off the wire, so the bounds
// check is what turns a corrupt Algo byte into an error instead of a
// panic.
func codecFor(a Algorithm) *codec {
	if a == AlgoNone || int(a) >= len(codecs) {
		return nil
	}
	return &codecs[a]
}

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	if c := codecFor(a); c != nil {
		return c.name
	}
	return "none"
}

// initialMPCRatioEstimate seeds the MPC ratio estimate before any message
// has been observed (a conservative mid-regime value from Table III).
const initialMPCRatioEstimate = 1.4

func (e *Engine) mpcRatio() float64 {
	if e.crEstimate > 0 {
		return e.crEstimate
	}
	return initialMPCRatioEstimate
}

// zfpRatio is exact by construction: ZFP is fixed-rate.
func (e *Engine) zfpRatio() float64 { return zfp.Ratio(e.cfg.ZFPRate) }

func (e *Engine) mpcKernelCosts(n int) (compr, decompr simtime.Duration) {
	spec := e.dev.Spec
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
	return kc + readback, kd
}

func (e *Engine) zfpKernelCosts(n int) (compr, decompr simtime.Duration) {
	spec := e.dev.Spec
	kc := e.dev.KernelTime(gpusim.KernelSpec{
		Blocks: spec.SMs, Bytes: n,
		ThroughputGbps: zfpKernelGbps(spec.ZFPCompressGbps, e.cfg.ZFPRate),
	})
	kd := e.dev.KernelTime(gpusim.KernelSpec{
		Blocks: spec.SMs, Bytes: n,
		ThroughputGbps: zfpKernelGbps(spec.ZFPDecompressGbps, e.cfg.ZFPRate),
	})
	return kc, kd
}

// mpcOverheads mirrors the fixed charges of compressMPC and
// decompressMPC in ModeOpt. The partitions' kernels run concurrently, one
// stream each, launched one after another behind the d_off memset, and the
// last launched finishes last: each side pays its pool takes, one launch
// for the memset and one per partition, and the closing sync. The sender
// adds, for several partitions, the combine: a launch per moved partition,
// the last copy (sized by the ratio estimate) and a sync.
func (e *Engine) mpcOverheads(n int) (compr, decompr simtime.Duration) {
	spec := e.dev.Spec
	parts := DefaultPartitions(n, e.cfg.MaxPartitions)
	launches := simtime.Duration(1+parts) * spec.KernelLaunch
	compr = 2*gpusim.PoolHit + launches + spec.StreamSync
	if parts > 1 {
		part := int(float64(n) / e.mpcRatio() / float64(parts))
		compr += simtime.Duration(parts-1)*spec.KernelLaunch +
			simtime.TransferTime(part, spec.MemBWGBps/2) + spec.StreamSync
	}
	return compr, gpusim.PoolHit + launches + spec.StreamSync
}

// zfpOverheads mirrors the fixed charges of compressZFP and decompressZFP
// in ModeOpt: the stream and field set-up, the sender's pool take, one
// launch and one sync a side (the cached grid query is free).
func (e *Engine) zfpOverheads(int) (compr, decompr simtime.Duration) {
	spec := e.dev.Spec
	fixed := zfpStreamSetup + spec.KernelLaunch + spec.StreamSync
	return fixed + gpusim.PoolHit, fixed
}

// mpcProbe measures the sample's real compressed size, charging one small
// kernel launch over the pn sampled bytes.
func (e *Engine) mpcProbe(clk *simtime.Clock, sample []byte, pn int) {
	cs, err := mpc.CompressedSizeBytes(sample, e.cfg.MPCDim)
	if err != nil || cs == 0 {
		return
	}
	blocks := e.dev.Spec.SMs / 2
	if blocks < 1 {
		blocks = 1
	}
	e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{
		Blocks: blocks, Bytes: pn, ThroughputGbps: e.dev.Spec.MPCCompressGbps, BusyWaitSync: true,
	})
	e.dev.StreamSync(clk, e.dev.Stream(0))
	e.observeRatio(float64(pn) / float64(cs))
}
