package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
	"mpicomp/internal/trace"
)

// TestWaitallConsumesInArrivalOrder: a wait on several receives verifies
// and decodes them in the order they landed, not the order they were
// listed, while a single pair is charged as waiting its parts in list
// order. Three cases:
//   - a user Waitall listing two 1 MiB MPC receives in the reverse of their
//     landing order: each decode kernel starts no earlier than its own
//     receive landed and no later than the latest of that landing and the
//     previous decode's end, plus the verification and the charges ahead
//     of a kernel — a list-order loop starts the first decode only once
//     the late message is in;
//   - Gather at the root on 4x2 and 4x4 (MPC, 1 MiB blocks), whose root
//     waits on a fan of receives: after each call both pools are whole;
//   - Sendrecv, whose clocks equal those of Isend, Irecv and a Wait on
//     each in Sendrecv's order, for a whole compressed exchange, an eager
//     one, and one rendezvous send paired with an eager receive.
func TestWaitallConsumesInArrivalOrder(t *testing.T) {
	mpcOpt := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, PipelineChunkBytes: -1}
	const words = 256 << 10 // 1 MiB

	t.Run("reverse-listed", func(t *testing.T) {
		tr := trace.New()
		spec := hw.Longhorn()
		w := mustWorld(t, Options{Cluster: spec, Nodes: 3, PPN: 1, Engine: mpcOpt, Tracer: tr})
		if _, err := w.Run(func(r *Rank) error {
			switch r.ID() {
			case 0:
				late, early := emptyDevBuf(r, words), emptyDevBuf(r, words)
				r1, err := r.Irecv(1, 0, late)
				if err != nil {
					return err
				}
				r2, err := r.Irecv(2, 0, early)
				if err != nil {
					return err
				}
				return r.Waitall(r1, r2)
			case 1:
				// Rank 1 sends well after rank 2: its message lands last.
				r.Clock.Advance(500 * simtime.Microsecond)
			}
			return r.Send(0, 0, goldenPayload(r, 1, words))
		}); err != nil {
			t.Fatal(err)
		}
		type landing struct {
			src int
			at  simtime.Time
		}
		var landings []landing
		var decodes []trace.Event
		for _, e := range tr.Events() {
			var src, dst int
			switch {
			case e.Name == "transfer":
				if _, err := fmt.Sscanf(e.Track, "net %d->%d", &src, &dst); err != nil {
					t.Fatalf("transfer track %q: %v", e.Track, err)
				}
				if dst == 0 {
					landings = append(landings, landing{src, e.End})
				}
			case e.Track == "rank 0" && e.Name == core.PhaseDecompressKernel.String():
				decodes = append(decodes, e)
			}
		}
		if len(landings) != 2 || len(decodes) != 2 {
			t.Fatalf("rank 0 saw %d landings and %d decode kernels, want 2 of each", len(landings), len(decodes))
		}
		slices.SortFunc(landings, func(a, b landing) int { return cmp.Compare(a.at, b.at) })
		if landings[0].src != 2 {
			t.Fatalf("rank %d's message landed first: the case needs the second-listed receive to land first", landings[0].src)
		}
		// Ahead of its kernel a decode pays the verification pass, a
		// staging-pool hit and the d_off kernel's launch.
		slack := 2 * spec.GPU.KernelLaunch
		var prevEnd simtime.Time
		for k, d := range decodes {
			from := max(landings[k].at, prevEnd)
			if d.Start < landings[k].at || d.Start > from.Add(slack) {
				t.Errorf("decode %d runs from %v, want within [%v, %v]: landing of rank %d's message at %v, previous decode's end %v",
					k, d.Start, landings[k].at, from.Add(slack), landings[k].src, landings[k].at, prevEnd)
			}
			prevEnd = d.End
		}
	})

	t.Run("gather", func(t *testing.T) {
		for _, lay := range []struct{ nodes, ppn int }{{4, 2}, {4, 4}} {
			w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: lay.nodes, PPN: lay.ppn, Engine: mpcOpt})
			if _, err := w.Run(func(r *Rank) error {
				send := goldenPayload(r, 5, words)
				recv := emptyDevBuf(r, words*r.Size())
				for call := range 2 {
					if err := r.Gather(0, send, recv); err != nil {
						return err
					}
					sf, st := r.Engine.PoolBalance()
					of, ot := r.Engine.OffPoolBalance()
					if sf != st || of != ot {
						return fmt.Errorf("%dx%d rank %d after call %d: staging pool %d/%d free, d_off pool %d/%d",
							lay.nodes, lay.ppn, r.ID(), call, sf, st, of, ot)
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("sendrecv", func(t *testing.T) {
		for _, c := range []struct {
			name         string
			send0, recv0 int // rank 0's words; rank 1 mirrors them
		}{
			{"rendezvous", words, words},
			{"eager", 1 << 10, 1 << 10},
			{"rendezvous-send-eager-recv", words, 1 << 10},
		} {
			run := func(pair bool) []simtime.Time {
				w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: mpcOpt})
				times, err := w.Run(func(r *Rank) error {
					n, m := c.send0, c.recv0
					if r.ID() == 1 {
						n, m = m, n
					}
					peer := 1 - r.ID()
					send, recv := goldenPayload(r, 2, n), emptyDevBuf(r, m)
					if pair {
						return r.Sendrecv(peer, 0, send, peer, 0, recv)
					}
					rreq, err := r.Irecv(peer, 0, recv)
					if err != nil {
						return err
					}
					sreq, err := r.Isend(peer, 0, send)
					if err != nil {
						return err
					}
					if err := r.Wait(sreq); err != nil {
						return err
					}
					return r.Wait(rreq)
				})
				if err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				return times
			}
			if got, want := run(true), run(false); !slices.Equal(got, want) {
				t.Errorf("%s: Sendrecv ends the ranks at %v, a wait on each part in turn at %v", c.name, got, want)
			}
		}
	})
}
