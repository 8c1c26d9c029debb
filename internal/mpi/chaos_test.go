package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/dtype"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// Chaos soak: the fault injector supplies drops, bit flips, and degraded
// links; these tests assert the transport's contract under that adversary —
// either a message is delivered with exactly the bytes that were sent
// (MPC, lossless) or within the codec's error bound (ZFP), or Wait returns
// a typed error; never a hang, never silent corruption.

// TestChaosP2PSweep replays a seeded random point-to-point plan (eager,
// rendezvous, and compressed sizes) through a faulty fabric and verifies
// every delivered message bit-exactly.
func TestChaosP2PSweep(t *testing.T) {
	const (
		ranks = 8
		msgs  = 80
	)
	type transfer struct {
		src, dst, tag, words int
	}
	rng := rand.New(rand.NewSource(99))
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
			words = 4096 + rng.Intn(1<<14) // rendezvous, below threshold
		default:
			words = 1<<16 + rng.Intn(1<<16) // compressed
		}
		plan[i] = transfer{src: src, dst: dst, tag: i, words: words}
	}

	w := mustWorld(t, Options{
		Cluster: hw.Lassen(), Nodes: 2, PPN: 4,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 128 << 10, PoolBufBytes: 2 << 20},
		Faults: &faults.Config{
			Seed: 7, DropRate: 0.08, CorruptRate: 0.08,
			DegradeRate: 0.5, DegradeFactor: 0.5,
		},
	})
	_, err := w.Run(func(r *Rank) error {
		var reqs []*Request
		var checks []func()
		for _, tr := range plan {
			if tr.dst == r.ID() {
				buf := emptyDevBuf(r, tr.words)
				req, err := r.Irecv(tr.src, tr.tag, buf)
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
				tr := tr
				checks = append(checks, func() {
					got := core.BytesToFloats(buf.Data)
					want := float32(tr.src*1000 + tr.tag)
					for i := 0; i < tr.words; i += 499 {
						if got[i] != want+float32(i) {
							t.Errorf("msg %d word %d = %v want %v (lossless path must stay bit-exact under faults)",
								tr.tag, i, got[i], want+float32(i))
							return
						}
					}
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
			c()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("chaos sweep failed: %v", err)
	}
	st := w.FaultStats()
	if st.Drops == 0 || st.Corruptions == 0 || st.Degrades == 0 {
		t.Fatalf("the adversary never showed up: %+v", st)
	}
}

// TestChaosCollectivesZFP pushes the compression-aware collectives (relay
// chains included) through a faulty fabric with a lossy codec: results
// must stay within ZFP's error bound, not merely "look plausible".
func TestChaosCollectivesZFP(t *testing.T) {
	// PipelineChunkBytes routes the ring reduce-scatter (and large
	// point-to-point sends) through the chunk pipeline, so the drop and
	// corruption adversary hits individual chunks too.
	w := mustWorld(t, Options{
		Cluster: hw.FronteraLiquid(), Nodes: 2, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16,
			Threshold: 16 << 10, PoolBufBytes: 4 << 20,
			PipelineChunkBytes: 16 << 10},
		Faults: &faults.Config{Seed: 11, DropRate: 0.1, CorruptRate: 0.1},
	})
	const n = 1 << 15 // float32 words
	const tol = 1e-2  // generous bound for rate-16 ZFP on smooth data
	want := make([]float32, n)
	for i := range want {
		want[i] = float32(math.Sin(float64(i) * 0.01))
	}
	_, err := w.Run(func(r *Rank) error {
		buf := emptyDevBuf(r, n)
		if r.ID() == 0 {
			core.FloatsToBytes(buf.Data[:0], want)
		}
		if err := r.Bcast(0, buf); err != nil {
			return err
		}
		got := core.BytesToFloats(buf.Data)
		for i := range got {
			if e := math.Abs(float64(got[i] - want[i])); e > tol {
				t.Errorf("rank %d: bcast word %d off by %g (> %g)", r.ID(), i, e, tol)
				break
			}
		}
		// Every rank now holds ≈want; the ring allreduce must produce
		// ≈size*want on all ranks despite faulty hops.
		out := emptyDevBuf(r, n)
		if err := r.RingAllreduceSum(buf, out); err != nil {
			return err
		}
		sum := core.BytesToFloats(out.Data)
		scale := float64(r.Size())
		for i := 0; i < n; i += 257 {
			if e := math.Abs(float64(sum[i]) - scale*float64(want[i])); e > scale*2*tol {
				t.Errorf("rank %d: allreduce word %d off by %g", r.ID(), i, e)
				break
			}
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatalf("chaos collectives failed: %v", err)
	}
	if st := w.FaultStats(); st.Drops == 0 && st.Corruptions == 0 {
		t.Fatalf("no faults injected: %+v", st)
	}
}

// chaosPingPong runs a deterministic two-rank ping-pong (one message in
// flight at a time, so calendar bookings cannot race) and returns the
// makespan and fault counters.
func chaosPingPong(t *testing.T, cfg *faults.Config) (simtime.Time, faults.Stats) {
	t.Helper()
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 32 << 10, PoolBufBytes: 2 << 20},
		Faults: cfg,
	})
	times, err := w.Run(func(r *Rank) error {
		for it := 0; it < 12; it++ {
			words := 256 << (it % 5) // straddles eager and rendezvous
			vals := make([]float32, words)
			for i := range vals {
				vals[i] = float32(it*words + i)
			}
			if r.ID() == 0 {
				if err := r.Send(1, it, devBuf(r, vals)); err != nil {
					return err
				}
				buf := emptyDevBuf(r, words)
				if err := r.Recv(1, it, buf); err != nil {
					return err
				}
			} else {
				buf := emptyDevBuf(r, words)
				if err := r.Recv(0, it, buf); err != nil {
					return err
				}
				if err := r.Send(0, it, devBuf(r, vals)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return MaxTime(times), w.FaultStats()
}

// TestChaosDeterministic: equal seeds must reproduce the run exactly —
// same makespan, same fault counters — and injected faults can only push
// the virtual timeline later, never earlier, than the clean run.
func TestChaosDeterministic(t *testing.T) {
	cfg := &faults.Config{Seed: 21, DropRate: 0.2, CorruptRate: 0.2}
	m1, s1 := chaosPingPong(t, cfg)
	m2, s2 := chaosPingPong(t, cfg)
	if m1 != m2 {
		t.Fatalf("same seed, different makespans: %v vs %v", m1, m2)
	}
	if s1 != s2 {
		t.Fatalf("same seed, different fault stats: %+v vs %+v", s1, s2)
	}
	if s1.Drops == 0 && s1.Corruptions == 0 {
		t.Fatalf("fault rates of 0.2 injected nothing: %+v", s1)
	}
	clean, cleanStats := chaosPingPong(t, nil)
	if cleanStats != (faults.Stats{}) {
		t.Fatalf("fault-free run counted faults: %+v", cleanStats)
	}
	if m1 < clean {
		t.Fatalf("retries made the timeline shorter: faulty %v < clean %v", m1, clean)
	}
	other, _ := chaosPingPong(t, &faults.Config{Seed: 22, DropRate: 0.2, CorruptRate: 0.2})
	if other == m1 {
		t.Logf("warning: different seeds produced identical makespans (%v); legal but suspicious", m1)
	}
}

// TestRetriesDisabledSurfacesError: with the retry budget off and a fully
// lossy wire, Wait must return a wrapped ErrDeliveryFailed on both sides
// instead of deadlocking. The wall-clock guard is the assertion: the seed
// runtime hung forever here.
func TestRetriesDisabledSurfacesError(t *testing.T) {
	cases := []struct {
		name  string
		words int
		cfg   faults.Config
	}{
		{"eager-dropped", 64, faults.Config{Seed: 3, DropRate: 1}},
		{"rendezvous-dropped", 1 << 16, faults.Config{Seed: 3, DropRate: 1}},
		{"rendezvous-corrupted", 1 << 16, faults.Config{Seed: 3, CorruptRate: 1}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w := mustWorld(t, Options{
				Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
				Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
					Threshold: 32 << 10, PoolBufBytes: 2 << 20},
				Faults: &tc.cfg,
				Retry:  RetryPolicy{Limit: -1},
			})
			errc := make(chan error, 1)
			go func() {
				_, err := w.Run(func(r *Rank) error {
					buf := emptyDevBuf(r, tc.words)
					if r.ID() == 0 {
						return r.Send(1, 0, buf)
					}
					return r.Recv(0, 0, buf)
				})
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, ErrDeliveryFailed) {
					t.Fatalf("want ErrDeliveryFailed, got %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("delivery failure did not unblock the ranks (deadlock)")
			}
		})
	}
}

// TestRetryBudgetRecovers: a finite budget rides out a partially lossy
// wire — the same plan that fails with retries off completes with them on.
func TestRetryBudgetRecovers(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 32 << 10, PoolBufBytes: 2 << 20},
		Faults: &faults.Config{Seed: 5, DropRate: 0.4, CorruptRate: 0.4},
		Retry:  RetryPolicy{Limit: 12, Backoff: 5 * simtime.Microsecond},
	})
	vals := make([]float32, 1<<16)
	for i := range vals {
		vals[i] = float32(i % 777)
	}
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, vals))
		}
		buf := emptyDevBuf(r, len(vals))
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		got := core.BytesToFloats(buf.Data)
		for i := range got {
			if got[i] != vals[i] {
				t.Errorf("word %d = %v want %v", i, got[i], vals[i])
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry budget should have absorbed the losses: %v", err)
	}
	if st := w.FaultStats(); st.Drops == 0 && st.Corruptions == 0 {
		t.Fatalf("no faults injected: %+v", st)
	}
}

// TestUserTagValidation is the regression test for the tag-range check:
// `tag < 0 && tag > internalTagBase` let any tag at or below
// internalTagBase slip into the collectives' reserved namespace.
func TestUserTagValidation(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 2})
	_, err := w.Run(func(r *Rank) error {
		buf := emptyDevBuf(r, 16)
		if r.ID() == 0 {
			bad := []int{-1, AnyTag, internalTagBase, internalTagBase - 3, internalTagBase + 1}
			for _, tag := range bad {
				if _, err := r.Isend(1, tag, buf); err == nil {
					t.Errorf("Isend accepted negative user tag %d", tag)
				}
			}
			if _, err := r.Irecv(1, -7, buf); err == nil {
				t.Error("Irecv accepted negative tag")
			}
			// AnyTag stays legal on the receive side.
			req, err := r.Irecv(1, AnyTag, buf)
			if err != nil {
				t.Errorf("Irecv rejected AnyTag: %v", err)
				return nil
			}
			return r.Wait(req)
		}
		return r.Send(0, 5, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAnyTagSkipsCollectiveTraffic: a user AnyTag receive must not match
// a collective's internal (negative) tag — in MPI, collectives run in a
// hidden context MPI_ANY_TAG never reaches. Rank 1 posts Irecv(0, AnyTag)
// and then joins Bcast(0); the user receive used to take the broadcast's
// payload, leaving the broadcast's own receive to wait forever. The
// wall-clock guard turns that hang into a failure in seconds.
func TestAnyTagSkipsCollectiveTraffic(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	const n = 256
	bcastVals, userVals := make([]float32, n), make([]float32, n)
	for i := range bcastVals {
		bcastVals[i], userVals[i] = float32(i), float32(-i-1)
	}
	got := make([][]byte, 2)
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				if err := r.Bcast(0, devBuf(r, bcastVals)); err != nil {
					return err
				}
				return r.Send(1, 7, devBuf(r, userVals))
			}
			user, bcast := emptyDevBuf(r, n), emptyDevBuf(r, n)
			req, err := r.Irecv(0, AnyTag, user)
			if err != nil {
				return err
			}
			if err := r.Bcast(0, bcast); err != nil {
				return err
			}
			if err := r.Wait(req); err != nil {
				return err
			}
			got[0], got[1] = bcast.Data, user.Data
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hung: the AnyTag receive took the broadcast's message")
	}
	if !bytes.Equal(got[0], core.FloatsToBytes(nil, bcastVals)) {
		t.Error("broadcast delivered the wrong payload")
	}
	if !bytes.Equal(got[1], core.FloatsToBytes(nil, userVals)) {
		t.Error("AnyTag receive got the wrong payload")
	}
}

// TestChaosTypedHaloCrash drives the fused typed halo pattern — ring
// neighbors exchanging Subarray3D faces via SendrecvTyped — under
// seeded crash-stop and silent-peer fates, on both the rendezvous and
// the chunk-pipelined tier. The contract matches the collective soak:
// failures only in worlds with fated ranks, every error wraps a typed
// sentinel, and no rank goroutine outlives the run. Seeds can be
// overridden with CHAOS_SEED.
func TestChaosTypedHaloCrash(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		seeds = nil
		for _, s := range strings.Split(env, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				t.Fatalf("CHAOS_SEED %q: %v", env, err)
			}
			seeds = append(seeds, v)
		}
	}
	const nx, ny, nz = 40, 32, 32
	sendFace := dtype.Subarray3D{Dims: [3]int{nx, ny, nz}, Sub: [3]int{4, ny, nz}, Start: [3]int{4, 0, 0}}
	recvFace := dtype.Subarray3D{Dims: [3]int{nx, ny, nz}, Sub: [3]int{4, ny, nz}, Start: [3]int{0, 0, 0}}
	engines := []struct {
		name   string
		engine core.Config
	}{
		{"rendezvous", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 2 << 10}},
		{"pipelined", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 2 << 10, PipelineChunkBytes: 4 << 10}},
	}
	for _, seed := range seeds {
		for _, eng := range engines {
			fcfg := &faults.Config{
				Seed: seed, CrashRate: 0.18, SilentRate: 0.08,
				FailWindow: 200 * simtime.Microsecond,
			}
			w := mustWorld(t, Options{
				Cluster: hw.Longhorn(), Nodes: 2, PPN: 2,
				Engine: eng.engine, Faults: fcfg,
				Health: HealthPolicy{Deadline: 150 * simtime.Microsecond},
			})
			doomed := w.HealthStats().Doomed
			_, errs := w.RunAll(func(r *Rank) error {
				vals := datasets.Smooth(nx*ny*nz, uint64(seed)+uint64(r.ID()), 1e-3)
				grid := devBuf(r, vals)
				right := (r.ID() + 1) % r.Size()
				left := (r.ID() - 1 + r.Size()) % r.Size()
				for it := 0; it < 6; it++ {
					if err := r.SendrecvTyped(right, it, grid, sendFace, left, it, grid, recvFace); err != nil {
						return err
					}
				}
				return nil
			})
			assertNoRankGoroutines(t)
			for id, err := range errs {
				if err == nil {
					continue
				}
				if len(doomed) == 0 {
					t.Errorf("seed %d %s: rank %d failed in a fault-free world: %v", seed, eng.name, id, err)
					continue
				}
				if !(errors.Is(err, ErrPeerFailed) || errors.Is(err, ErrRankCrashed) || errors.Is(err, ErrRankSilent)) {
					t.Errorf("seed %d %s: rank %d returned an untyped error: %v", seed, eng.name, id, err)
				}
			}
		}
	}
}

// TestChaosCrashSoakCollectives hammers every collective with seeded
// crash-stop and silent-peer fates across several worlds. The contract
// under this adversary: every error wraps one of the typed failure
// sentinels, errors only appear in worlds that actually have fated ranks,
// and no rank goroutine ever hangs. Seeds can be overridden with
// CHAOS_SEED (comma-separated); CHAOS_STATS names a file to receive a
// per-cell summary for CI artifacts.
func TestChaosCrashSoakCollectives(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if env := os.Getenv("CHAOS_SEED"); env != "" {
		seeds = nil
		for _, s := range strings.Split(env, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				t.Fatalf("CHAOS_SEED %q: %v", env, err)
			}
			seeds = append(seeds, v)
		}
	}
	const (
		nodes = 4
		ppn   = 2
		words = 8 << 10
		iters = 8
	)
	colls := []struct {
		name   string
		engine core.Config
		run    func(r *Rank, send, recv *gpusim.Buffer) error
	}{
		{name: "barrier", run: func(r *Rank, _, _ *gpusim.Buffer) error { return r.Barrier() }},
		{name: "bcast", run: func(r *Rank, send, _ *gpusim.Buffer) error { return r.Bcast(0, send) }},
		{name: "allgather", run: func(r *Rank, send, recv *gpusim.Buffer) error {
			return r.Allgather(send.Slice(0, send.Len()/r.Size()), recv)
		}},
		{name: "gather", run: func(r *Rank, send, recv *gpusim.Buffer) error {
			return r.Gather(0, send.Slice(0, send.Len()/r.Size()), recv)
		}},
		{name: "scatter", run: func(r *Rank, send, recv *gpusim.Buffer) error {
			return r.Scatter(0, send, recv.Slice(0, recv.Len()/r.Size()))
		}},
		{name: "reduce", run: func(r *Rank, send, recv *gpusim.Buffer) error { return r.ReduceSum(0, send, recv) }},
		{name: "allreduce", run: func(r *Rank, send, recv *gpusim.Buffer) error { return r.AllreduceSum(send, recv) }},
		{name: "ringallreduce", run: func(r *Rank, send, recv *gpusim.Buffer) error {
			return r.RingAllreduceSum(send, recv)
		}},
		// The pipelined-ring cell crashes ranks mid-stream while the
		// reduce-scatter has several chunk messages in flight per step —
		// the chunk plumbing must surface the same typed errors.
		{name: "ringallreduce-pipelined",
			engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				Threshold: 2 << 10, PipelineChunkBytes: 1 << 10},
			run: func(r *Rank, send, recv *gpusim.Buffer) error {
				return r.RingAllreduceSum(send, recv)
			}},
		{name: "alltoall", run: func(r *Rank, send, recv *gpusim.Buffer) error { return r.Alltoall(send, recv) }},
		// omb's ragged (i+j)%3 segments of 8, 16 and 24 KiB: the smallest
		// stay eager, the others compress before the waves, arrive as raw
		// receives parking their staging across barriers, and decode after —
		// an abort anywhere in between must hand every slot back.
		{name: "alltoallv",
			engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 2 << 10},
			run: func(r *Rank, send, _ *gpusim.Buffer) error {
				seg := func(i, j int) int { return 8 << 10 * (1 + (i+j)%3) }
				size := r.Size()
				sc, sd, rc, rd := make([]int, size), make([]int, size), make([]int, size), make([]int, size)
				stot, rtot := 0, 0
				for j := 0; j < size; j++ {
					sd[j], rd[j] = stot, rtot
					sc[j], rc[j] = seg(r.ID(), j), seg(j, r.ID())
					stot += sc[j]
					rtot += rc[j]
				}
				sb := &gpusim.Buffer{Data: bytes.Repeat(send.Data, stot/send.Len()+1)[:stot], Loc: gpusim.Device, Dev: r.Dev}
				return r.Alltoallv(sb, sc, sd, emptyDevBuf(r, rtot/4), rc, rd)
			}},
	}

	var report strings.Builder
	totalFailures := 0
	for _, seed := range seeds {
		for _, coll := range colls {
			fcfg := &faults.Config{
				Seed: seed, CrashRate: 0.18, SilentRate: 0.08,
				FailWindow: 200 * simtime.Microsecond,
			}
			w := mustWorld(t, Options{
				Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
				Engine: coll.engine, Faults: fcfg,
				Health: HealthPolicy{Deadline: 150 * simtime.Microsecond},
			})
			doomed := w.HealthStats().Doomed
			fated := make(map[int]bool, len(doomed))
			for _, id := range doomed {
				fated[id] = true
			}
			vals := make([]float32, words)
			for i := range vals {
				vals[i] = float32(seed) + float32(i%29)
			}
			times, errs := w.RunAll(func(r *Rank) error {
				send := devBuf(r, vals)
				recv := emptyDevBuf(r, words)
				for it := 0; it < iters; it++ {
					if err := coll.run(r, send, recv); err != nil {
						return err
					}
				}
				return nil
			})
			assertNoRankGoroutines(t)
			assertPoolBalance(t, w, fmt.Sprintf("seed %d %s", seed, coll.name))
			cellFailures := 0
			for id, err := range errs {
				if err == nil {
					continue
				}
				cellFailures++
				if len(doomed) == 0 {
					t.Errorf("seed %d %s: rank %d failed in a fault-free world: %v", seed, coll.name, id, err)
					continue
				}
				if !(errors.Is(err, ErrPeerFailed) || errors.Is(err, ErrRankCrashed) || errors.Is(err, ErrRankSilent)) {
					t.Errorf("seed %d %s: rank %d returned an untyped error: %v", seed, coll.name, id, err)
				}
			}
			// A fated rank may legitimately finish a cheap collective
			// before its onset arrives, but once its clock passes onset
			// it must not keep reporting success: every MPI entry point
			// checks health, so a nil error with a finish time past the
			// fail window means a missed self-announcement.
			inj := faults.New(*fcfg)
			for id := range fated {
				onset, _, _ := inj.RankFate(id)
				if errs[id] == nil && times[id] > onset+simtime.Time(fcfg.FailWindow) {
					t.Errorf("seed %d %s: fated rank %d (onset %v) completed at %v without noticing its own failure",
						seed, coll.name, id, onset, times[id])
				}
			}
			totalFailures += cellFailures
			hs := w.HealthStats()
			fmt.Fprintf(&report, "seed=%d coll=%s doomed=%v failures=%d wakeups=%d quiets=%d\n",
				seed, coll.name, doomed, cellFailures, hs.WatchdogWakeups, hs.CascadeQuiets)
		}
	}
	if totalFailures == 0 {
		t.Error("soak produced zero failures across all seeds — fault rates too low to exercise anything")
	}
	if path := os.Getenv("CHAOS_STATS"); path != "" {
		if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
			t.Errorf("writing CHAOS_STATS: %v", err)
		}
	}
}
