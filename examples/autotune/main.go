// Autotune: the dynamic-selection extension (the paper's future work
// made real), now driven by the first-class internal/tune package. A
// seeded deterministic tuner watches live allreduce timings on a world,
// explores the candidate schedules (ring / recursive doubling /
// Rabenseifner), converges on the fastest per message size, and
// persists a versioned tuning table. A second tuner warm-started from
// that table answers immediately: no compressibility probe, no
// re-exploration.
//
//	go run ./examples/autotune [-table autotune_table.json]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"mpicomp/internal/cli"
	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/omb"
	"mpicomp/internal/sched"
	"mpicomp/internal/tune"
)

const (
	nodes = 8
	ppn   = 1
	seed  = 7
)

// epoch runs one measured allreduce, then folds the engine counters and
// the epoch's observations into the tuner at the world-synchronous
// point — the same loop ombrun drives.
func epoch(w *mpi.World, tn *tune.Tuner, bytes int) error {
	if _, err := omb.CollectiveLatency(w, "allreduce", bytes, 1, 2, nil); err != nil {
		return err
	}
	tn.NoteCounters(omb.WorldCounters(w))
	tn.Advance()
	return nil
}

func main() {
	tablePath := flag.String("table", "autotune_table.json", "where to persist the tuning table")
	flag.Parse()
	if err := run(os.Stdout, *tablePath); err != nil {
		log.Fatal(err)
	}
}

// run drives the demo and writes the tuning table to tablePath. Split
// from main so the example's test can assert on the output.
func run(out io.Writer, tablePath string) error {
	fmt.Fprintln(out, "Online algorithm autotuning: explore, converge, persist, warm-start")
	fmt.Fprintf(out, "(%dx%d Longhorn, MPC-OPT, 128K chunks, seed %d)\n\n", nodes, ppn, seed)

	cfg := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: 128 << 10}
	tn := tune.NewTuner(tune.Options{Seed: seed, Cluster: hw.Longhorn()})
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn, Engine: cfg, Tuner: tn})
	if err != nil {
		return err
	}

	sizes := []int{32 << 10, 4 << 20}
	t := cli.NewTable("Size", "Epoch", "Pick", "Predicted")
	for _, bytes := range sizes {
		p := sched.TunePoint{Bytes: bytes, Ranks: nodes * ppn, Nodes: nodes, PPN: ppn}
		for e := 0; e < 5; e++ {
			if err := epoch(w, tn, bytes); err != nil {
				return err
			}
			pick := tn.PickAllreduce(p)
			t.Row(fmt.Sprintf("%d KB", bytes>>10), fmt.Sprintf("%d", e+1),
				pick.String(), fmt.Sprintf("%d us", tn.PredictNanos(pick, p)/1000))
		}
	}
	t.Write(out)
	fmt.Fprintln(out)
	fmt.Fprintln(out, tn.StatsLine())

	blob, err := tn.Snapshot().Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(tablePath, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "tuning table written to %s\n\n", tablePath)

	// Warm start: a fresh tuner loaded from the persisted table knows
	// every key already — no probe, no exploration, same picks.
	tab, err := tune.ParseTable(blob)
	if err != nil {
		return err
	}
	warm := tune.NewTuner(tune.Options{Seed: seed, Cluster: hw.Longhorn(), Table: tab})
	for _, bytes := range sizes {
		p := sched.TunePoint{Bytes: bytes, Ranks: nodes * ppn, Nodes: nodes, PPN: ppn}
		fmt.Fprintf(out, "warm start at %4d KB: pick=%s reprobe=%v\n",
			bytes>>10, warm.PickAllreduce(p), warm.NeedProbe(p))
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Small messages converge on recursive doubling (log2 P rounds),")
	fmt.Fprintln(out, "large ones on a bandwidth-optimal schedule; the persisted table")
	fmt.Fprintln(out, "makes the next run skip straight to the answer.")
	return nil
}
