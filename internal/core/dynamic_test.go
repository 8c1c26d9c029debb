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
	// 16 MB message, MPC with a learned high ratio: the model must pick
	// "compress" for IB EDR (12.5 GB/s) and "don't" for NVLink (75 GB/s)
	// — the Figure 9(a) vs 9(c) dichotomy.
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	vals := make([]float32, 4<<20)
	for i := range vals {
		vals[i] = 1.0
	}
	buf := deviceBufferWith(dev, vals)
	e.Compress(clk, buf) // teach it the high CR
	n := len(vals) * 4
	if k, _ := e.PredictForm(buf, nil, n, 12.5, false); k != 1 {
		t.Fatalf("MPC at high CR should win on EDR, picked form %d", k)
	}
	if k, _ := e.PredictForm(buf, nil, n, 75, false); k != 0 {
		t.Fatalf("MPC should not win on 3-lane NVLink, picked form %d", k)
	}
}

func TestCompressForLinkGates(t *testing.T) {
	vals := make([]float32, 4<<20)
	for i := range vals {
		vals[i] = 1.0
	}

	// In ModeOpt with the default PipelineChunkBytes the model picks the
	// form. Over NVLink it must bypass even after its first message probes
	// the data and learns the high ratio: MPC's kernels cannot beat a
	// 75 GB/s link.
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	payload, hdr := e.CompressForLinkCached(clk, deviceBufferWith(dev, vals), 75)
	if hdr.Compressed {
		t.Fatal("the model should bypass compression on NVLink")
	}
	if len(payload) != len(vals)*4 {
		t.Fatal("bypass payload should be the raw message")
	}
	if e.PredictedRatio() < 10 {
		t.Fatalf("the probe should have learned the high ratio, estimate %v", e.PredictedRatio())
	}
	// Over EDR the learned ratio predicts a clear win.
	_, hdr = e.CompressForLinkCached(clk, deviceBufferWith(dev, vals), 12.5)
	if !hdr.Compressed {
		t.Fatal("the model should compress on EDR at the learned ratio")
	}
	if got := e.ChunkPicks(); len(got) != 2 || got[0] != 1 || got[1] != 1 {
		t.Fatalf("picks %v, want one uncompressed and one whole", got)
	}

	// Incompressible data stays uncompressed even on EDR: the probe
	// reports a ratio near 1.
	noisy := make([]float32, 4<<20)
	h := uint32(0x9e3779b9)
	for i := range noisy {
		h ^= h << 13
		h ^= h >> 17
		h ^= h << 5
		noisy[i] = float32(h) / float32(1<<32)
	}
	e2, dev2, clk2 := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	_, hdr = e2.CompressForLinkCached(clk2, deviceBufferWith(dev2, noisy), 12.5)
	if hdr.Compressed {
		t.Fatal("incompressible data should stay uncompressed on EDR")
	}

	// The paper's Figure 4 form (PipelineChunkBytes -1), a fixed chunk
	// size and ModeNaive compress regardless of link.
	for _, cfg := range []Config{
		{Mode: ModeOpt, Algorithm: AlgoMPC, PipelineChunkBytes: -1},
		{Mode: ModeOpt, Algorithm: AlgoMPC, PipelineChunkBytes: 1 << 20},
		{Mode: ModeNaive, Algorithm: AlgoMPC},
	} {
		static, sdev, sclk := newTestEngine(t, cfg)
		if _, hdr = static.CompressForLinkCached(sclk, deviceBufferWith(sdev, vals), 75); !hdr.Compressed {
			t.Fatalf("%+v: should compress on any link", cfg)
		}
	}
}

func TestDynamicBypassStillSnapshotsPayload(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	vals := make([]float32, 1<<20)
	buf := deviceBufferWith(dev, vals)
	payload, hdr := e.CompressForLinkCached(clk, buf, 75)
	if hdr.Compressed {
		t.Fatal("the model should bypass compression on NVLink")
	}
	buf.Data[0] = 0xFF
	if payload[0] == 0xFF {
		t.Fatal("bypass payload must be a snapshot, not an alias")
	}
}
