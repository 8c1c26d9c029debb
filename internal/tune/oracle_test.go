package tune_test

// The tuner's end-to-end oracle, driven through omb the way ombrun does.

import (
	"bytes"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/omb"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
	"mpicomp/internal/tune"
)

// TestTunerMatchesOracleOnFlatWorlds drives a tuner over live worlds the
// way ombrun does — one epoch per measurement, folded at each
// world-synchronous Advance — on the 8x1 Longhorn cells of the latency, mid
// and bandwidth regimes (MPC-OPT, 128K chunks, dummy data). The converged
// pick must land within 10 % of the fastest pinned schedule, and a tuner
// warm-started from the persisted table must answer every cell with the
// same pick. The committed snapshot must be byte-identical across
// exploration seeds 0-3 and codec worker counts 1/2/8: the seed only
// orders the exploration walk, every candidate is still run, and the pick
// is the argmin of what was measured. The runs pair each seed with a
// worker count, so every seed and every count is compared against the
// first. Flat layouts only: on hierarchical ones the EMAs are not yet a
// function of virtual time alone (ROADMAP item 1).
func TestTunerMatchesOracleOnFlatWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("a simulated-latency gate: 6 s here, minutes under the -race -short pass, which has nothing to add to it")
	}
	const nodes = 8
	cells := []int{32 << 10, 1 << 20, 4 << 20}
	candidates := sched.AllreduceCandidates(false)
	world := func(workers int, algo sched.AllreduceAlgo, tn *tune.Tuner) *mpi.World {
		opt := mpi.Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: 1, Allreduce: algo,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				PipelineChunkBytes: 128 << 10, Workers: workers}}
		if tn != nil {
			opt.Tuner = tn
		}
		w, err := mpi.NewWorld(opt)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	measure := func(w *mpi.World, bytes int) simtime.Duration {
		res, err := omb.CollectiveLatency(w, "allreduce", bytes, 1, 2, nil)
		if err != nil {
			t.Fatalf("allreduce at %d B: %v", bytes, err)
		}
		return res.Latency
	}

	var (
		first []byte
		tuned *tune.Tuner
	)
	for seed, workers := range []int{1, 2, 8, 1} {
		tn := tune.NewTuner(tune.Options{Seed: int64(seed)})
		for _, bytes := range cells {
			w := world(workers, sched.AllreduceAuto, tn)
			// Every candidate explored once, then two epochs to settle.
			for e := 0; e < len(candidates)+2; e++ {
				measure(w, bytes)
				tn.Advance()
			}
		}
		snap, err := tn.Snapshot().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if tuned == nil {
			first, tuned = snap, tn
		} else if !bytes.Equal(snap, first) {
			t.Errorf("tuner snapshot differs between seed 0 on workers=1 and seed %d on workers=%d:\n%s\nvs\n%s", seed, workers, first, snap)
		}
	}

	tab, err := tune.ParseTable(first)
	if err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	warm := tune.NewTuner(tune.Options{Table: tab})
	for _, bytes := range cells {
		p := sched.TunePoint{Bytes: bytes, Ranks: nodes, Nodes: nodes, PPN: 1}
		lat := map[sched.AllreduceAlgo]simtime.Duration{}
		oracle := sched.AllreduceAuto
		for _, algo := range candidates {
			lat[algo] = measure(world(1, algo, nil), bytes)
			if oracle == sched.AllreduceAuto || lat[algo] < lat[oracle] {
				oracle = algo
			}
		}
		pick := tuned.PickAllreduce(p)
		if gap := float64(lat[pick])/float64(lat[oracle]) - 1; gap > 0.10 {
			t.Errorf("%d B: pick %s (%v) is %.1f %% over oracle %s (%v), want <= 10 %%",
				bytes, pick, lat[pick], 100*gap, oracle, lat[oracle])
		}
		if wp := warm.PickAllreduce(p); wp != pick {
			t.Errorf("%d B: warm pick %s != converged pick %s", bytes, wp, pick)
		}
	}
}
