// Autotune: the dynamic-selection extension (the paper's future work
// made real), driven by the internal/tune package. A seeded deterministic
// tuner watches live allreduce timings on a world, runs each candidate
// schedule (ring / recursive doubling / Rabenseifner) once, converges on
// the fastest measured one per message size, and persists a versioned
// tuning table. A second tuner warm-started from that table answers
// immediately, with no re-exploration.
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
	"mpicomp/internal/simtime"
	"mpicomp/internal/tune"
)

const (
	nodes = 8
	ppn   = 1
	seed  = 7
)

// epoch runs one measured allreduce, then folds the epoch's observations
// into the tuner at the world-synchronous point — the same loop ombrun
// drives. It returns the measured latency.
func epoch(w *mpi.World, tn *tune.Tuner, bytes int) (simtime.Duration, error) {
	res, err := omb.CollectiveLatency(w, "allreduce", bytes, 1, 2, nil)
	if err != nil {
		return 0, err
	}
	tn.Advance()
	return res.Latency, nil
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
	tn := tune.NewTuner(tune.Options{Seed: seed})
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn, Engine: cfg, Tuner: tn})
	if err != nil {
		return err
	}

	sizes := []int{32 << 10, 4 << 20}
	// Ran is the schedule the epoch ran and Measured its latency; Pick is
	// the tuner's answer once the epoch has folded.
	t := cli.NewTable("Size", "Epoch", "Ran", "Measured", "Pick")
	for _, bytes := range sizes {
		p := sched.TunePoint{Bytes: bytes, Ranks: nodes * ppn, Nodes: nodes, PPN: ppn}
		for e := 0; e < 5; e++ {
			ran := tn.PickAllreduce(p)
			lat, err := epoch(w, tn, bytes)
			if err != nil {
				return err
			}
			t.Row(fmt.Sprintf("%d KB", bytes>>10), fmt.Sprintf("%d", e+1),
				ran.String(), fmt.Sprintf("%.2f us", lat.Microseconds()), tn.PickAllreduce(p).String())
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
	// every key already — no exploration, same picks.
	tab, err := tune.ParseTable(blob)
	if err != nil {
		return err
	}
	warm := tune.NewTuner(tune.Options{Seed: seed, Table: tab})
	for _, bytes := range sizes {
		p := sched.TunePoint{Bytes: bytes, Ranks: nodes * ppn, Nodes: nodes, PPN: ppn}
		fmt.Fprintf(out, "warm start at %4d KB: pick=%s\n", bytes>>10, warm.PickAllreduce(p))
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "Small messages converge on recursive doubling (log2 P rounds),")
	fmt.Fprintln(out, "large ones on a bandwidth-optimal schedule; the persisted table")
	fmt.Fprintln(out, "makes the next run skip straight to the answer.")
	return nil
}
