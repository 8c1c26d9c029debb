// Autotuner acceptance benchmark: evidence that internal/tune's
// deterministic online selector converges to (near-)oracle algorithm
// choices from live measurements.
//
// TestWriteBenchTune (env-gated: BENCH_TUNE=1) sweeps a grid of
// (message size, world shape) cells. For each cell it measures every
// candidate schedule in a pinned world — the oracle is the fastest —
// then runs a tuner-driven world for enough epochs to explore all
// candidates and settle. Gates, per cell: the tuner's converged pick
// must land within 10% of the oracle-best latency. Globally: the
// tuner's committed snapshot must be byte-identical across codec
// worker counts 1/2/8 for a fixed seed on every entry inside the
// strict determinism envelope (flat and single-node layouts —
// hierarchical ppn>1 timings can shift by more than the tuner's
// quantum when ragged compressed transfers race a shared intra-node
// adapter calendar, DESIGN.md §13), every cell's pick — hierarchical
// included — must agree across worker counts, and a tuner
// warm-started from the persisted table must answer every cell
// without re-probing and with the same pick. Results go to
// BENCH_tune.json.
package mpicomp_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/netsim"
	"mpicomp/internal/omb"
	"mpicomp/internal/tune"
)

const benchTuneSeed = 7

// benchTuneCell is one grid point.
type benchTuneCell struct {
	Bytes int `json:"bytes"`
	Nodes int `json:"nodes"`
	PPN   int `json:"ppn"`
}

// benchTuneCells is the sweep grid: the small-message latency regime,
// the mid regime, and the bandwidth regime, on a flat and a
// hierarchical shape.
var benchTuneCells = []benchTuneCell{
	{32 << 10, 8, 1},
	{1 << 20, 8, 1},
	{4 << 20, 8, 1},
	{32 << 10, 4, 2},
	{1 << 20, 4, 2},
	{4 << 20, 4, 2},
}

// benchTuneCandidates mirrors the tuner's schedule space for a shape.
func benchTuneCandidates(nodes, ppn int) []mpi.AllreduceAlgo {
	cands := []mpi.AllreduceAlgo{
		mpi.AllreduceRing, mpi.AllreduceRecursiveDoubling, mpi.AllreduceRabenseifner,
	}
	if netsim.ClassifyTopo(nodes, ppn) == netsim.TopoHierarchical {
		cands = append(cands, mpi.AllreduceTwoLevel)
	}
	return cands
}

func benchTuneConfig(workers int) core.Config {
	return core.Config{
		Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
		PipelineChunkBytes: 128 << 10, Workers: workers,
	}
}

// benchTuneMeasure measures one pinned schedule for a cell on a fresh
// world (workers=1) and returns the simulated latency in microseconds.
func benchTuneMeasure(t *testing.T, cell benchTuneCell, algo mpi.AllreduceAlgo) float64 {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Options{
		Cluster: hw.Longhorn(), Nodes: cell.Nodes, PPN: cell.PPN,
		Engine: benchTuneConfig(1), Allreduce: algo,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := omb.CollectiveLatency(w, "allreduce", cell.Bytes, 1, 2, nil)
	if err != nil {
		t.Fatalf("%s at %dB on %dx%d: %v", algo, cell.Bytes, cell.Nodes, cell.PPN, err)
	}
	return res.Latency.Microseconds()
}

// benchTuneRun drives one tuner through the whole grid the way ombrun
// does — per cell, one epoch per measurement run, counters folded at
// each world-synchronous Advance — for enough epochs that every
// candidate is explored and the EMA settles. Returns the tuner.
func benchTuneRun(t *testing.T, workers int) *tune.Tuner {
	t.Helper()
	tn := tune.NewTuner(tune.Options{Seed: benchTuneSeed, Cluster: hw.Longhorn()})
	for _, cell := range benchTuneCells {
		w, err := mpi.NewWorld(mpi.Options{
			Cluster: hw.Longhorn(), Nodes: cell.Nodes, PPN: cell.PPN,
			Engine: benchTuneConfig(workers), Tuner: tn,
		})
		if err != nil {
			t.Fatal(err)
		}
		epochs := len(benchTuneCandidates(cell.Nodes, cell.PPN)) + 2
		for e := 0; e < epochs; e++ {
			if _, err := omb.CollectiveLatency(w, "allreduce", cell.Bytes, 1, 2, nil); err != nil {
				t.Fatalf("tuned allreduce at %dB on %dx%d: %v", cell.Bytes, cell.Nodes, cell.PPN, err)
			}
			var c tune.Counters
			for r := 0; r < w.Size(); r++ {
				eng := w.Rank(r).Engine
				c.Compressions += int64(eng.Compressions)
				c.Bypasses += int64(eng.Bypasses)
				c.PoolFallbacks += int64(eng.PoolFallbacks)
				c.CacheHits += int64(eng.CacheHits)
				c.CacheMisses += int64(eng.CacheMisses)
				c.PipelinedChunks += int64(eng.PipelinedChunks)
			}
			tn.NoteCounters(c)
			tn.Advance()
		}
	}
	return tn
}

// envelopeOnly strips table entries outside the strict worker-count
// determinism envelope: hierarchical (ppn>1 multi-node) layouts, where
// ragged compressed transfers racing a shared intra-node adapter
// calendar can shift collective timings by more than the tuner's
// latency quantum (DESIGN.md §13). Flat and single-node entries must
// still match byte for byte across worker counts.
func envelopeOnly(tab *tune.Table) *tune.Table {
	out := &tune.Table{Version: tab.Version, Seed: tab.Seed}
	for _, e := range tab.Entries {
		if e.Topo != string(netsim.TopoHierarchical) {
			out.Entries = append(out.Entries, e)
		}
	}
	return out
}

type benchTuneEntry struct {
	Bytes     int                `json:"bytes"`
	Nodes     int                `json:"nodes"`
	PPN       int                `json:"ppn"`
	Ranks     int                `json:"ranks"`
	Topo      string             `json:"topo"`
	LatencyUs map[string]float64 `json:"latency_us"`
	Oracle    string             `json:"oracle"`
	Pick      string             `json:"pick"`
	OracleUs  float64            `json:"oracle_us"`
	PickUs    float64            `json:"pick_us"`
	GapPct    float64            `json:"gap_pct"`
}

type benchTuneDoc struct {
	Seed                 int64            `json:"seed"`
	GoMaxProcs           int              `json:"gomaxprocs"`
	NumCPU               int              `json:"num_cpu"`
	Note                 string           `json:"note"`
	WorkersDeterministic bool             `json:"workers_deterministic"`
	WarmStartNoReprobe   bool             `json:"warm_start_no_reprobe"`
	Results              []benchTuneEntry `json:"results"`
}

func TestWriteBenchTune(t *testing.T) {
	if os.Getenv("BENCH_TUNE") == "" {
		t.Skip("set BENCH_TUNE=1 to run the autotuner sweep and write BENCH_tune.json")
	}
	doc := benchTuneDoc{
		Seed:       benchTuneSeed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "tuner pick vs per-cell oracle, MPC opt, 128K chunks, dummy data, Longhorn; " +
			"oracle = fastest pinned schedule; gap = pick latency over oracle latency",
	}

	// One tuner per worker count; fixed seed. Inside the determinism
	// envelope (flat and single-node layouts) the committed snapshots
	// must agree byte for byte — virtual time and the fold are both
	// worker-count invariant there. Hierarchical entries carry the
	// documented timing-plane wiggle (DESIGN.md §13), so they are held
	// to pick equality in the per-cell loop below, not byte equality.
	tuners := map[int]*tune.Tuner{}
	for _, workers := range []int{1, 2, 8} {
		tuners[workers] = benchTuneRun(t, workers)
	}
	snap1, err := tuners[1].Snapshot().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	env1, err := envelopeOnly(tuners[1].Snapshot()).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	doc.WorkersDeterministic = true
	for _, workers := range []int{2, 8} {
		envN, err := envelopeOnly(tuners[workers].Snapshot()).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(env1, envN) {
			doc.WorkersDeterministic = false
			t.Errorf("envelope tuner snapshot differs between workers=1 and workers=%d:\n%s\nvs\n%s", workers, env1, envN)
		}
	}

	// Warm start from the persisted table: no re-probing, same picks.
	tab, err := tune.ParseTable(snap1)
	if err != nil {
		t.Fatalf("snapshot table does not round-trip: %v", err)
	}
	warm := tune.NewTuner(tune.Options{Seed: benchTuneSeed, Cluster: hw.Longhorn(), Table: tab})
	doc.WarmStartNoReprobe = true

	for _, cell := range benchTuneCells {
		p := mpi.TunePoint{Bytes: cell.Bytes, Ranks: cell.Nodes * cell.PPN, Nodes: cell.Nodes, PPN: cell.PPN}
		entry := benchTuneEntry{
			Bytes: cell.Bytes, Nodes: cell.Nodes, PPN: cell.PPN, Ranks: p.Ranks,
			Topo:      string(netsim.ClassifyTopo(cell.Nodes, cell.PPN)),
			LatencyUs: map[string]float64{},
		}
		oracleUs := -1.0
		for _, algo := range benchTuneCandidates(cell.Nodes, cell.PPN) {
			us := benchTuneMeasure(t, cell, algo)
			entry.LatencyUs[algo.String()] = us
			if oracleUs < 0 || us < oracleUs {
				oracleUs, entry.Oracle = us, algo.String()
			}
		}
		pick := tuners[1].PickAllreduce(p)
		entry.Pick = pick.String()
		// Every cell — hierarchical included — must converge to the
		// same pick regardless of codec worker count.
		for _, workers := range []int{2, 8} {
			if wp := tuners[workers].PickAllreduce(p); wp != pick {
				doc.WorkersDeterministic = false
				t.Errorf("cell %dB %dx%d: workers=%d pick %s != workers=1 pick %s",
					cell.Bytes, cell.Nodes, cell.PPN, workers, wp, pick)
			}
		}
		entry.OracleUs = oracleUs
		entry.PickUs = entry.LatencyUs[pick.String()]
		entry.GapPct = (entry.PickUs - oracleUs) / oracleUs * 100
		if entry.GapPct > 10 {
			t.Errorf("cell %dB %dx%d: pick %s is %.1f%% over oracle %s (%.1fus vs %.1fus), want <= 10%%",
				cell.Bytes, cell.Nodes, cell.PPN, entry.Pick, entry.GapPct, entry.Oracle, entry.PickUs, entry.OracleUs)
		}
		if warm.NeedProbe(p) {
			doc.WarmStartNoReprobe = false
			t.Errorf("cell %dB %dx%d: warm-started tuner wants to re-probe", cell.Bytes, cell.Nodes, cell.PPN)
		}
		if wp := warm.PickAllreduce(p); wp != pick {
			t.Errorf("cell %dB %dx%d: warm pick %s != converged pick %s", cell.Bytes, cell.Nodes, cell.PPN, wp, pick)
		}
		doc.Results = append(doc.Results, entry)
		t.Logf("%dB %dx%d: oracle=%s (%.1fus) pick=%s (%.1fus, +%.1f%%)",
			cell.Bytes, cell.Nodes, cell.PPN, entry.Oracle, oracleUs, entry.Pick, entry.PickUs, entry.GapPct)
	}

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_tune.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
