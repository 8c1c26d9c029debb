package dask

import (
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
)

// testMatrix keeps chunks above the compression threshold used in tests
// (512x512 floats = 1 MB chunks).
func testMatrix() Matrix { return Matrix{Dim: 2048, ChunkDim: 512} }

func newWorkers(t testing.TB, n int, cfg core.Config) *mpi.World {
	t.Helper()
	// RI2: 1 GPU per node, the paper's Dask testbed.
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.RI2(), Nodes: n, PPN: 1, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestTransposeSumExactWithoutCompression(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		w := newWorkers(t, workers, core.Config{})
		res, err := TransposeSum(w, testMatrix())
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxErr != 0 {
			t.Fatalf("%d workers: baseline transpose-sum must be exact, err %g", workers, res.MaxErr)
		}
		if res.ExecTime <= 0 || res.ThroughputGBps <= 0 {
			t.Fatalf("%d workers: degenerate result %+v", workers, res)
		}
	}
}

func TestTransposeSumExactWithMPC(t *testing.T) {
	// Every eligible chunk compressed (PipelineChunkBytes -1): the cost
	// model would send these smooth chunks uncompressed.
	w := newWorkers(t, 4, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1})
	res, err := TransposeSum(w, testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxErr != 0 {
		t.Fatalf("MPC transport must be lossless, err %g", res.MaxErr)
	}
	if res.Ratio <= 1.05 {
		t.Fatalf("smooth array chunks should compress: ratio %v", res.Ratio)
	}
}

func TestTransposeSumZFPBoundedError(t *testing.T) {
	w := newWorkers(t, 4, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16, PipelineChunkBytes: -1})
	res, err := TransposeSum(w, testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio < 1.9 || res.Ratio > 2.1 {
		t.Fatalf("ZFP rate 16 ratio should be 2: %v", res.Ratio)
	}
	// Values are O(1); rate-16 reconstruction error stays small.
	if res.MaxErr == 0 || res.MaxErr > 1e-2 {
		t.Fatalf("ZFP rate 16 error out of range: %g", res.MaxErr)
	}
}

func TestZFPImprovesExecutionTime(t *testing.T) {
	// Figure 14(a): ZFP-OPT(rate 8/16) beats the baseline.
	base, err := TransposeSum(newWorkers(t, 4, core.Config{}), testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := TransposeSum(newWorkers(t, 4,
		core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}), testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if comp.ExecTime >= base.ExecTime {
		t.Fatalf("ZFP-OPT(8) should beat baseline: %v vs %v", comp.ExecTime, base.ExecTime)
	}
	// Paper: average speedup 1.18x (exec time), up to 1.56x throughput.
	speedup := float64(base.ExecTime) / float64(comp.ExecTime)
	if speedup > 3 {
		t.Fatalf("speedup suspiciously large: %.2f", speedup)
	}
	if comp.ThroughputGBps <= base.ThroughputGBps {
		t.Fatal("aggregate throughput should improve with ZFP-OPT")
	}
}

func TestThroughputScalesWithWorkers(t *testing.T) {
	// Figure 14(b): aggregate throughput grows with worker count.
	cfg := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16}
	r2, err := TransposeSum(newWorkers(t, 2, cfg), testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := TransposeSum(newWorkers(t, 8, cfg), testMatrix())
	if err != nil {
		t.Fatal(err)
	}
	if r8.ThroughputGBps <= r2.ThroughputGBps {
		t.Fatalf("throughput should grow with workers: %v -> %v GB/s",
			r2.ThroughputGBps, r8.ThroughputGBps)
	}
}

func TestChunkValidation(t *testing.T) {
	w := newWorkers(t, 2, core.Config{})
	if _, err := TransposeSum(w, Matrix{Dim: 1000, ChunkDim: 300}); err == nil {
		t.Fatal("non-dividing chunk size should fail")
	}
}

func TestMatrixHelpers(t *testing.T) {
	m := Matrix{Dim: 10000, ChunkDim: 1000}
	if m.Chunks() != 10 {
		t.Fatalf("Chunks: %d", m.Chunks())
	}
	if m.ChunkBytes() != 4_000_000 {
		t.Fatalf("ChunkBytes: %d", m.ChunkBytes())
	}
	// Ownership covers all workers round-robin.
	seen := map[int]bool{}
	for i := 0; i < m.Chunks(); i++ {
		for j := 0; j < m.Chunks(); j++ {
			seen[m.owner(i, j, 4)] = true
		}
	}
	if len(seen) != 4 {
		t.Fatalf("ownership should span 4 workers: %v", seen)
	}
}
