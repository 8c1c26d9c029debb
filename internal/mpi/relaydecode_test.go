package mpi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
)

// Same simulation, fewer decodes: a relayed payload's decoded form rides
// the message (core.Decoded), so of the ranks that consume one wire
// payload only the first runs the codec job. These tests run every relay
// collective both ways — companions on, and off through the test-only
// World.decodePerRank — and require that nothing a program or a figure can
// observe tells the two apart, while the host counter core.HostStats.
// DecodeJobs reads one job per payload instead of one per consumer.

// relayObs is what one run exposes for the comparison.
type relayObs struct {
	cell    transportCell
	stats   []core.Breakdown // per rank
	jobs    int              // codec decode jobs actually run, all ranks
	decomps int              // decompressions the simulation charged, all ranks
	corrupt int64            // payloads the injector corrupted on the wire
}

// outputs is the part of a cell's protocol plane that says what each rank
// ended up with: payload CRC, error classes, leaked slots.
func outputs(c transportCell) []string {
	var out []string
	for _, line := range c.Protocol {
		if strings.Contains(line, "crc=") {
			out = append(out, line)
		}
	}
	return out
}

const relayIters = 2

// relayRun runs op relayIters times on nodes x ppn (golden cell shapes:
// 64 KiB vectors, a relayed broadcast payload travels as segments when
// chunk is goldenCollChunk) and renders what it observed.
func relayRun(t *testing.T, nodes, ppn, chunk int, cfg core.Config, op collOp, perRank bool, fcfg *faults.Config) relayObs {
	t.Helper()
	cfg.Mode, cfg.Threshold, cfg.PipelineChunkBytes = core.ModeOpt, 4<<10, chunk
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn, Engine: cfg, Faults: fcfg})
	w.decodePerRank = perRank
	obs := make([]rankObs, w.Size())
	times, err := w.Run(func(r *Rank) error {
		run, out := op.setup(r, goldenCollWords)
		for it := 0; it < relayIters; it++ {
			if err := r.Barrier(); err != nil {
				return err
			}
			if err := run(); err != nil {
				return err
			}
			obs[r.ID()].mark(r)
			obs[r.ID()].sum(out)
		}
		obs[r.ID()].note(nil)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", op.name, err)
	}
	o := relayObs{cell: observeCell(op.name, w, times, obs, fcfg != nil), corrupt: w.FaultStats().Corruptions}
	for id := 0; id < w.Size(); id++ {
		e := w.Rank(id).Engine
		o.stats = append(o.stats, e.Stats)
		o.jobs += e.HostSnapshot().DecodeJobs
		o.decomps += e.Decompressions
		if free, total := e.PoolBalance(); free < total {
			t.Errorf("%s: rank %d leaked %d staging slots", op.name, id, total-free)
		}
	}
	return o
}

// relayOps picks the collectives that relay a payload (and bcast-hier and
// the two-level allreduce, which the same worlds run over plain sends: the
// companion must be invisible there too).
func relayOps() []collOp {
	want := map[string]bool{"bcast": true, "bcast-hier": true, "bcast-sag": true, "allgather": true,
		"allgather-hier": true, "ring-allreduce": true, "two-level-allreduce": true}
	var ops []collOp
	for _, op := range goldenCollectives() {
		if want[op.name] {
			ops = append(ops, op)
		}
	}
	return ops
}

func TestRelayDecodeOnce(t *testing.T) {
	codecs := []struct {
		name string
		cfg  core.Config
	}{
		{"mpc", core.Config{Algorithm: core.AlgoMPC}},
		{"zfp8", core.Config{Algorithm: core.AlgoZFP, ZFPRate: 8}},
	}
	for _, topo := range [][2]int{{4, 2}, {3, 1}, {1, 4}} {
		nodes, ppn := topo[0], topo[1]
		p := nodes * ppn
		for _, codec := range codecs {
			for _, chunk := range []int{0, goldenCollChunk} {
				for _, workers := range []int{1, 2, 8} {
					for _, op := range relayOps() {
						name := fmt.Sprintf("%dx%d/%s/chunk=%d/workers=%d/%s", nodes, ppn, codec.name, chunk, workers, op.name)
						cfg := codec.cfg
						cfg.Workers = workers
						each := relayRun(t, nodes, ppn, chunk, cfg, op, true, nil)
						once := relayRun(t, nodes, ppn, chunk, cfg, op, false, nil)

						// Payload CRCs, error classes, engine and cache counters,
						// pipeline counters, fabric bytes and messages: everywhere.
						if !reflect.DeepEqual(once.cell.Protocol, each.cell.Protocol) {
							t.Errorf("%s: protocol plane differs\n once: %q\n each: %q", name, once.cell.Protocol, each.cell.Protocol)
						}
						// Clocks, marks, pool balance and calendars: wherever two runs
						// of one build agree on them. Adapters book in host arrival
						// order (ROADMAP item 1), so — exactly as in the transport
						// golden — ranks sharing a node and a root fanning out to
						// several children keep no timing plane; the ring-shaped
						// schedules on one rank per node do. Stats phases are engine
						// time and hold wherever calendars are not shared.
						if ppn == 1 {
							if !strings.HasPrefix(op.name, "bcast") && !reflect.DeepEqual(once.cell.Timing, each.cell.Timing) {
								t.Errorf("%s: timing plane differs\n once: %q\n each: %q", name, once.cell.Timing, each.cell.Timing)
							}
							if !reflect.DeepEqual(once.stats, each.stats) {
								t.Errorf("%s: Stats phases differ\n once: %v\n each: %v", name, once.stats, each.stats)
							}
						}
						if once.decomps != each.decomps {
							t.Errorf("%s: %d decompressions simulated, %d without companions", name, once.decomps, each.decomps)
						}
						if each.jobs != each.decomps {
							t.Errorf("%s: per-rank decoding ran %d jobs for %d decompressions", name, each.jobs, each.decomps)
						}
						if once.jobs > each.jobs {
							t.Errorf("%s: %d codec jobs with companions, %d without", name, once.jobs, each.jobs)
						}
						// The two counts the design is named after.
						switch op.name {
						case "bcast":
							if once.jobs != relayIters || each.jobs != relayIters*(p-1) {
								t.Errorf("%s: %d / %d decode jobs, want %d (one per broadcast) / %d (one per rank)",
									name, once.jobs, each.jobs, relayIters, relayIters*(p-1))
							}
						case "allgather":
							if once.jobs != relayIters*p || each.jobs != relayIters*p*(p-1) {
								t.Errorf("%s: %d / %d decode jobs, want %d (one per block) / %d (one per block per rank)",
									name, once.jobs, each.jobs, relayIters*p, relayIters*p*(p-1))
							}
						}
					}
				}
			}
		}
	}
}

// TestRelayDecodeOnceUnderCorruption injects wire corruption into relay
// hops: the corrupted copy is NACKed and retried inside the transport as
// ever, so it reaches neither a decoder nor the companion, every rank's
// output is bit-identical to the fault-free run, and the job count does
// not move.
func TestRelayDecodeOnceUnderCorruption(t *testing.T) {
	cfg := core.Config{Algorithm: core.AlgoMPC}
	for _, chunk := range []int{0, goldenCollChunk} {
		for _, op := range relayOps() {
			if op.name != "bcast" && op.name != "allgather" {
				continue
			}
			clean := relayRun(t, 4, 1, chunk, cfg, op, false, nil)
			fcfg := faults.Config{Seed: 211, CorruptRate: 0.2, ChunkCorruptRate: 0.2}
			dirty := relayRun(t, 4, 1, chunk, cfg, op, false, &fcfg)
			name := fmt.Sprintf("%s/chunk=%d", op.name, chunk)
			if dirty.corrupt == 0 {
				t.Fatalf("%s: the fault plan corrupted nothing", name)
			}
			if got, want := outputs(dirty.cell), outputs(clean.cell); len(got) != 4 || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: outputs differ from the fault-free run\n dirty: %q\n clean: %q", name, got, want)
			}
			if dirty.jobs != clean.jobs || dirty.decomps != clean.decomps {
				t.Errorf("%s: %d jobs / %d decompressions under corruption, %d / %d without",
					name, dirty.jobs, dirty.decomps, clean.jobs, clean.decomps)
			}
		}
	}
}

// TestScratchSlotsDoNotAlias pins the scratch hand-out: a reduction's two
// vectors are distinct, a taker nested under two holders gets memory of
// its own, and a finished call's vectors are reused, not re-made.
func TestScratchSlotsDoNotAlias(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 1})
	r := w.Rank(0)
	like := emptyDevBuf(r, 1)
	a, b := r.takeScratch(like, 64), r.takeScratch(like, 64)
	c := r.takeScratch(like, 64)
	a.Data[0], b.Data[0], c.Data[0] = 1, 2, 3
	if a.Data[0] != 1 || b.Data[0] != 2 || c.Data[0] != 3 {
		t.Fatalf("scratch buffers alias: %d %d %d", a.Data[0], b.Data[0], c.Data[0])
	}
	if a.Loc != gpusim.Device || a.Dev != r.Dev {
		t.Fatalf("scratch does not live where its model does")
	}
	r.putScratch()
	r.putScratch()
	r.putScratch()
	a2, b2 := r.takeScratch(like, 32), r.takeScratch(like, 64)
	if &a2.Data[0] != &a.Data[0] || &b2.Data[0] != &b.Data[0] {
		t.Fatal("a returned scratch vector was not reused")
	}
	r.putScratch()
	r.putScratch()
	if r.scratchHeld != 0 {
		t.Fatalf("scratchHeld = %d after balanced takes", r.scratchHeld)
	}
	// Every exit of a collective hands its scratch back, errors included.
	w2 := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	if _, err := w2.Run(func(r *Rank) error {
		send, recv := goldenPayload(r, 1, 1024), emptyDevBuf(r, 1024)
		if err := r.ReduceSum(0, send, recv); err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := r.ReduceSum(0, send, emptyDevBuf(r, 8)); err == nil {
				return fmt.Errorf("short receive buffer accepted")
			}
		} else if err := r.ReduceSum(0, send, recv); err != nil {
			return err
		}
		for _, gen := range []sched.Generator{sched.Ring, sched.RecursiveDoubling, sched.Rabenseifner, sched.TwoLevel} {
			if err := allreduceBy(gen, true)(r, send, recv); err != nil {
				return err
			}
		}
		if r.scratchHeld != 0 {
			return fmt.Errorf("rank %d still holds %d scratch vectors", r.ID(), r.scratchHeld)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestQueuesReleaseRemovedMessages: a matched receive, a matched
// envelope, a consumed raw staging buffer or a completed request must not
// stay reachable from the vacated tail of the queue it was removed from —
// an envelope pins its payload and, now, the payload's decoded form.
func TestQueuesReleaseRemovedMessages(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Engine: core.Config{
		Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 4 << 10}})
	if _, err := w.Run(func(r *Rank) error {
		buf := goldenPayload(r, 2, goldenCollWords)
		blk, all := goldenPayload(r, 3, goldenCollWords/4), emptyDevBuf(r, goldenCollWords/4*r.Size())
		for it := 0; it < 3; it++ {
			if err := r.Bcast(0, buf); err != nil {
				return err
			}
			if err := r.Allgather(blk, all); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < w.Size(); id++ {
		r := w.Rank(id)
		posted, unexpected := r.box.queues()
		if len(posted)+len(unexpected)+len(r.rawStaged)+len(r.inflight) != 0 {
			t.Fatalf("rank %d: queues not drained: %d posted, %d unexpected, %d raw, %d inflight",
				id, len(posted), len(unexpected), len(r.rawStaged), len(r.inflight))
		}
		for i, p := range posted[:cap(posted)] {
			if p != nil {
				t.Errorf("rank %d: posted[%d] of %d still holds a matched receive", id, i, cap(posted))
			}
		}
		for i, env := range unexpected[:cap(unexpected)] {
			if env != nil {
				t.Errorf("rank %d: unexpected[%d] of %d still holds a matched envelope (%d payload bytes)", id, i, cap(unexpected), len(env.payload))
			}
		}
		for i, b := range r.rawStaged[:cap(r.rawStaged)] {
			if b != nil {
				t.Errorf("rank %d: rawStaged[%d] of %d still holds a consumed staging buffer", id, i, cap(r.rawStaged))
			}
		}
		for i, req := range r.inflight[:cap(r.inflight)] {
			if req != nil {
				t.Errorf("rank %d: inflight[%d] of %d still holds a completed request", id, i, cap(r.inflight))
			}
		}
	}
}
