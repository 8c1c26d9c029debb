package mpi

import (
	"math/rand"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
)

// TestSoakRandomTraffic fuzzes the runtime: a seeded random communication
// plan (every rank knows the full plan, so matching sends/recvs exist for
// every transfer) with mixed message sizes straddling the eager and
// rendezvous paths, compressed and bypassed, verified value by value.
func TestSoakRandomTraffic(t *testing.T) {
	const (
		ranks = 8
		msgs  = 120
	)
	type transfer struct {
		src, dst, tag, words int
	}
	seeds := []int64{1, 7, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		plan := make([]transfer, msgs)
		for i := range plan {
			src := rng.Intn(ranks)
			dst := rng.Intn(ranks - 1)
			if dst >= src {
				dst++
			}
			var words int
			switch rng.Intn(3) {
			case 0:
				words = 1 + rng.Intn(1024) // eager
			case 1:
				words = 4096 + rng.Intn(1<<15) // rendezvous, below threshold
			default:
				words = 1<<16 + rng.Intn(1<<17) // compressed
			}
			plan[i] = transfer{src: src, dst: dst, tag: i, words: words}
		}

		w := mustWorld(t, Options{
			Cluster: hw.Lassen(), Nodes: 2, PPN: 4,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				Threshold: 256 << 10, PoolBufBytes: 2 << 20},
		})
		_, err := w.Run(func(r *Rank) error {
			// Post all receives first, then all sends, then wait —
			// the harshest legal ordering.
			var reqs []*Request
			var checks []func() error
			for _, tr := range plan {
				if tr.dst == r.ID() {
					buf := emptyDevBuf(r, tr.words)
					req, err := r.Irecv(tr.src, tr.tag, buf)
					if err != nil {
						return err
					}
					reqs = append(reqs, req)
					tr := tr
					checks = append(checks, func() error {
						got := core.BytesToFloats(buf.Data)
						want := float32(tr.src*1000 + tr.tag)
						for i := 0; i < tr.words; i += 997 {
							if got[i] != want+float32(i) {
								t.Errorf("seed %d: msg %d word %d = %v want %v",
									seed, tr.tag, i, got[i], want+float32(i))
								return nil
							}
						}
						return nil
					})
				}
			}
			for _, tr := range plan {
				if tr.src == r.ID() {
					vals := make([]float32, tr.words)
					base := float32(tr.src*1000 + tr.tag)
					for i := range vals {
						vals[i] = base + float32(i)
					}
					req, err := r.Isend(tr.dst, tr.tag, devBuf(r, vals))
					if err != nil {
						return err
					}
					reqs = append(reqs, req)
				}
			}
			if err := r.Waitall(reqs...); err != nil {
				return err
			}
			for _, c := range checks {
				if err := c(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestSoakCollectiveStorm runs every collective back to back on the same
// world to catch cross-collective tag or state leakage.
func TestSoakCollectiveStorm(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.FronteraLiquid(), Nodes: 4, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16,
			Threshold: 64 << 10, PoolBufBytes: 4 << 20},
	})
	const n = 1 << 16
	_, err := w.Run(func(r *Rank) error {
		for round := 0; round < 3; round++ {
			buf := emptyDevBuf(r, n)
			if r.ID() == 0 {
				for i := range buf.Data {
					buf.Data[i] = byte(round)
				}
			}
			if err := r.Bcast(0, buf); err != nil {
				return err
			}
			if buf.Data[n] != byte(round) {
				t.Errorf("round %d: bcast leaked state", round)
			}
			send := emptyDevBuf(r, n/8)
			recv := emptyDevBuf(r, n)
			if err := r.Allgather(send, recv); err != nil {
				return err
			}
			out := emptyDevBuf(r, n)
			if err := allreduceBy(sched.Ring, true)(r, buf, out); err != nil {
				return err
			}
			a2aIn := emptyDevBuf(r, n)
			a2aOut := emptyDevBuf(r, n)
			if err := r.Alltoall(a2aIn, a2aOut); err != nil {
				return err
			}
			if err := r.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
