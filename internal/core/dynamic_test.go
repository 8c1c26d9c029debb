package core

import (
	"testing"

	"mpicomp/internal/zfp"
)

func TestPredictedRatioZFPIsExact(t *testing.T) {
	for _, rate := range []int{4, 8, 16} {
		e, _, _ := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoZFP, ZFPRate: rate})
		if got := e.PredictedRatio(); got != zfp.Ratio(rate) {
			t.Fatalf("rate %d: predicted %v want %v", rate, got, zfp.Ratio(rate))
		}
	}
}

func TestPredictedRatioMPCLearns(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	if got := e.PredictedRatio(); got != initialMPCRatioEstimate {
		t.Fatalf("initial estimate: %v", got)
	}
	// Compress highly duplicated data; the estimate must move toward the
	// observed (large) ratio.
	vals := make([]float32, 1<<20)
	for i := range vals {
		vals[i] = 3.25
	}
	e.Compress(clk, deviceBufferWith(dev, vals))
	after1 := e.PredictedRatio()
	if after1 <= initialMPCRatioEstimate {
		t.Fatalf("estimate should rise after seeing compressible data: %v", after1)
	}
	// Feeding incompressible data must pull the estimate back down
	// (EWMA), but not all the way to 1 in a single observation.
	noisy := make([]float32, 1<<20)
	h := uint32(0x6a09e667)
	for i := range noisy {
		h ^= h << 13
		h ^= h >> 17
		h ^= h << 5
		noisy[i] = float32(h) / float32(1<<32)
	}
	e.Compress(clk, deviceBufferWith(dev, noisy))
	after2 := e.PredictedRatio()
	if after2 >= after1 {
		t.Fatalf("estimate should fall after incompressible data: %v -> %v", after1, after2)
	}
	if after2 < after1*0.5 {
		t.Fatalf("EWMA should damp single observations: %v -> %v", after1, after2)
	}
}

func TestPredictBenefitByLinkSpeed(t *testing.T) {
	// 16 MB message, MPC with a learned high ratio: the model must say
	// "compress" for IB EDR (12.5 GB/s) and "don't" for NVLink (75 GB/s)
	// — the Figure 9(a) vs 9(c) dichotomy.
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	vals := make([]float32, 4<<20)
	for i := range vals {
		vals[i] = 1.0
	}
	e.Compress(clk, deviceBufferWith(dev, vals)) // teach it the high CR
	n := len(vals) * 4
	if !e.PredictBenefit(n, 12.5) {
		t.Fatal("MPC at high CR should win on EDR")
	}
	if e.PredictBenefit(n, 75) {
		t.Fatal("MPC should not win on 3-lane NVLink")
	}
}

func TestCompressForLinkGates(t *testing.T) {
	vals := make([]float32, 4<<20)
	for i := range vals {
		vals[i] = 1.0
	}

	dyn, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Dynamic: true})
	// Over NVLink the dynamic engine must bypass even after its first
	// gated message probes the data and learns the high ratio: MPC's
	// kernels cannot beat a 75 GB/s link.
	payload, hdr := dyn.CompressForLinkCached(clk, deviceBufferWith(dev, vals), 75)
	if hdr.Compressed {
		t.Fatal("dynamic engine should bypass compression on NVLink")
	}
	if len(payload) != len(vals)*4 {
		t.Fatal("bypass payload should be the raw message")
	}
	if dyn.PredictedRatio() < 10 {
		t.Fatalf("the probe should have learned the high ratio, estimate %v", dyn.PredictedRatio())
	}
	// Over EDR the learned ratio predicts a clear win.
	_, hdr = dyn.CompressForLinkCached(clk, deviceBufferWith(dev, vals), 12.5)
	if !hdr.Compressed {
		t.Fatal("dynamic engine should compress on EDR at the learned ratio")
	}

	// A dynamic engine seeing incompressible data keeps bypassing even
	// on EDR: the probe reports a ratio near 1.
	noisy := make([]float32, 4<<20)
	h := uint32(0x9e3779b9)
	for i := range noisy {
		h ^= h << 13
		h ^= h >> 17
		h ^= h << 5
		noisy[i] = float32(h) / float32(1<<32)
	}
	dyn2, dev2, clk2 := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Dynamic: true})
	_, hdr = dyn2.CompressForLinkCached(clk2, deviceBufferWith(dev2, noisy), 12.5)
	if hdr.Compressed {
		t.Fatal("incompressible data should stay uncompressed on EDR")
	}

	// A non-dynamic engine compresses regardless of link.
	static, sdev, sclk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	_, hdr = static.CompressForLinkCached(sclk, deviceBufferWith(sdev, vals), 75)
	if !hdr.Compressed {
		t.Fatal("static engine should compress on any link")
	}
}

func TestDynamicBypassStillSnapshotsPayload(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Dynamic: true})
	vals := make([]float32, 1<<20)
	buf := deviceBufferWith(dev, vals)
	payload, _ := e.CompressForLinkCached(clk, buf, 75)
	buf.Data[0] = 0xFF
	if payload[0] == 0xFF {
		t.Fatal("bypass payload must be a snapshot, not an alias")
	}
}
