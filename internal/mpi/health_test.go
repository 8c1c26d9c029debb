package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// findFateSeed scans for a seed whose fate draws produce exactly the
// requested crash/silence split over ranks ranks. Fates are a pure
// function of (seed, rank), so the scan exactly predicts what NewWorld
// will draw.
func findFateSeed(t *testing.T, ranks int, cfg faults.Config, wantCrashes, wantSilences int) int64 {
	t.Helper()
	for seed := int64(1); seed < 20000; seed++ {
		c := cfg
		c.Seed = seed
		inj := faults.New(c)
		crashes, silences := 0, 0
		for id := 0; id < ranks; id++ {
			if _, silent, failed := inj.RankFate(id); failed {
				if silent {
					silences++
				} else {
					crashes++
				}
			}
		}
		if crashes == wantCrashes && silences == wantSilences {
			return seed
		}
	}
	t.Fatalf("no seed yields crashes=%d silences=%d over %d ranks", wantCrashes, wantSilences, ranks)
	return 0
}

// assertNoRankGoroutines fails the test if rank goroutines from a
// completed RunAll are still alive — a blocked waiter the watchdog
// missed. RunAll joins its goroutines, so any survivor here is a real
// leak, not a straggler; a short grace period absorbs exit latency.
func assertNoRankGoroutines(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		leaked := 0
		for _, g := range strings.Split(stacks, "\n\n") {
			if strings.Contains(g, "(*World).RunAll") {
				leaked++
			}
		}
		if leaked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d rank goroutines leaked after RunAll returned:\n%s", leaked, stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashStopAllReduceAbort is the tentpole acceptance scenario: a
// 16-rank allreduce with one seeded crash-stop. Every survivor must
// return a PeerError carrying the identical failed-rank set within a
// bounded simulated time, the fated rank must observe its own crash, and
// no goroutine may hang.
func TestCrashStopAllReduceAbort(t *testing.T) {
	const nodes, ppn = 8, 2
	fcfg := faults.Config{CrashRate: 0.12, FailWindow: 400 * simtime.Microsecond}
	fcfg.Seed = findFateSeed(t, nodes*ppn, fcfg, 1, 0)
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
		Faults: &fcfg,
		Health: HealthPolicy{Deadline: 200 * simtime.Microsecond},
	})
	doomed := w.HealthStats().Doomed
	if len(doomed) != 1 {
		t.Fatalf("doomed = %v, want exactly one fated rank", doomed)
	}

	vals := make([]float32, 16<<10) // 64 KiB: rendezvous path
	for i := range vals {
		vals[i] = 1
	}
	times, errs := w.RunAll(func(r *Rank) error {
		send := devBuf(r, vals)
		recv := emptyDevBuf(r, len(vals))
		for iter := 0; iter < 50; iter++ {
			if err := r.AllreduceSum(send, recv); err != nil {
				return err
			}
		}
		return errors.New("no failure surfaced in 50 allreduces")
	})
	assertNoRankGoroutines(t)

	for id, err := range errs {
		if err == nil {
			t.Fatalf("rank %d returned nil, want a failure", id)
		}
		if id == doomed[0] {
			if !errors.Is(err, ErrRankCrashed) {
				t.Errorf("fated rank %d: %v, want ErrRankCrashed", id, err)
			}
			continue
		}
		var pe *PeerError
		if !errors.As(err, &pe) || !errors.Is(err, ErrPeerFailed) {
			t.Errorf("survivor %d: %v, want a PeerError wrapping ErrPeerFailed", id, err)
			continue
		}
		if len(pe.Ranks) != 1 || pe.Ranks[0] != doomed[0] {
			t.Errorf("survivor %d observed failed set %v, want %v (agreement property)", id, pe.Ranks, doomed)
		}
		if times[id] >= simtime.Time(simtime.Second) {
			t.Errorf("survivor %d finished at %v — watchdog deadline not bounded", id, times[id])
		}
	}
	if st := w.HealthStats(); st.WatchdogWakeups == 0 {
		t.Error("watchdog never woke a blocked operation")
	}
}

// TestSilentPeerWatchdog pins the watchdog timeline for a silent
// (partitioned) peer: the receiver unblocks with ErrPeerFailed close to
// onset + Deadline instead of hanging, and the silent rank observes its
// own partition.
func TestSilentPeerWatchdog(t *testing.T) {
	fcfg := faults.Config{SilentRate: 0.5, FailWindow: 150 * simtime.Microsecond}
	for seed := int64(1); ; seed++ {
		if seed > 20000 {
			t.Fatal("no seed leaves rank 0 healthy and silences rank 1")
		}
		c := fcfg
		c.Seed = seed
		inj := faults.New(c)
		_, _, failed0 := inj.RankFate(0)
		_, silent1, failed1 := inj.RankFate(1)
		if !failed0 && failed1 && silent1 {
			fcfg.Seed = seed
			break
		}
	}
	const deadline = 250 * simtime.Microsecond
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Faults: &fcfg,
		Health: HealthPolicy{Deadline: deadline},
	})

	times, errs := w.RunAll(func(r *Rank) error {
		buf := emptyDevBuf(r, 1024) // 4 KiB: eager path
		vals := make([]float32, 1024)
		for i := 0; i < 1000; i++ {
			var err error
			if r.ID() == 0 {
				err = r.Recv(1, i, buf)
			} else {
				err = r.Send(0, i, devBuf(r, vals))
			}
			if err != nil {
				return err
			}
		}
		return errors.New("silence never surfaced")
	})
	assertNoRankGoroutines(t)
	if !errors.Is(errs[0], ErrPeerFailed) {
		t.Errorf("receiver: %v, want ErrPeerFailed", errs[0])
	}
	if !errors.Is(errs[1], ErrRankSilent) {
		t.Errorf("silent rank: %v, want ErrRankSilent", errs[1])
	}
	// The receiver's failure is detected at max(post, onset) + Deadline;
	// with onset under FailWindow and eager traffic before it, the finish
	// time must stay within a small multiple of that horizon.
	if bound := simtime.Time(2 * (fcfg.FailWindow + deadline)); times[0] >= bound {
		t.Errorf("receiver finished at %v, want under %v", times[0], bound)
	}
}

// TestAgreeConsistentDoomedSet exercises the ULFM-style agreement: every
// caller gets the identical failed set, and the call charges simulated
// communication rounds.
func TestAgreeConsistentDoomedSet(t *testing.T) {
	const nodes, ppn = 8, 2
	fcfg := faults.Config{CrashRate: 0.1, SilentRate: 0.1}
	fcfg.Seed = findFateSeed(t, nodes*ppn, fcfg, 1, 1)
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn, Faults: &fcfg})
	doomed := w.HealthStats().Doomed
	if len(doomed) != 2 {
		t.Fatalf("doomed = %v, want two fated ranks", doomed)
	}

	sets := make([][]int, nodes*ppn)
	times, errs := w.RunAll(func(r *Rank) error {
		s, err := r.Agree()
		if err != nil {
			return err
		}
		sets[r.ID()] = s
		return nil
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("rank %d Agree: %v", id, err)
		}
		if len(sets[id]) != len(doomed) {
			t.Fatalf("rank %d agreed on %v, want %v", id, sets[id], doomed)
		}
		for i := range doomed {
			if sets[id][i] != doomed[i] {
				t.Errorf("rank %d agreed on %v, want %v", id, sets[id], doomed)
				break
			}
		}
		if times[id] == 0 {
			t.Errorf("rank %d Agree charged no simulated time", id)
		}
	}
	st := w.HealthStats()
	if st.Crashes != 1 || st.Silences != 1 {
		t.Errorf("HealthStats crashes=%d silences=%d, want 1 and 1", st.Crashes, st.Silences)
	}
}

// TestBreakerDegradesCodecFaults is the degradation acceptance scenario:
// a codec that corrupts every compressed transfer must not exhaust the
// retry budget — the per-peer breaker opens and the pair completes its
// traffic uncompressed, bit-exactly, with deterministic transitions.
func TestBreakerDegradesCodecFaults(t *testing.T) {
	const msgs = 6
	const words = 32 << 10 // 128 KiB, above the compression threshold
	vals := make([]float32, words)
	for i := range vals {
		vals[i] = float32(i % 251)
	}
	run := func() (core.BreakerStats, int, []simtime.Time) {
		w := mustWorld(t, Options{
			Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
			Engine: core.Config{
				Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				Threshold: 32 << 10, PoolBufBytes: 2 << 20,
				Breaker: core.BreakerPolicy{Threshold: 3, Cooldown: simtime.Millisecond},
			},
			Faults: &faults.Config{Seed: 5, CodecRate: 1},
		})
		times, errs := w.RunAll(func(r *Rank) error {
			if r.ID() == 0 {
				for m := 0; m < msgs; m++ {
					if err := r.Send(1, m, devBuf(r, vals)); err != nil {
						return err
					}
				}
				return nil
			}
			for m := 0; m < msgs; m++ {
				buf := emptyDevBuf(r, words)
				if err := r.Recv(0, m, buf); err != nil {
					return err
				}
				got := core.BytesToFloats(buf.Data)
				for i := 0; i < len(got); i += 997 {
					if got[i] != vals[i] {
						return fmt.Errorf("msg %d word %d = %v, want %v", m, i, got[i], vals[i])
					}
				}
			}
			return nil
		})
		for id, err := range errs {
			if err != nil {
				t.Fatalf("rank %d under total codec failure: %v (breaker must keep delivery alive)", id, err)
			}
		}
		return w.Rank(0).Engine.BreakerSnapshot(), w.Rank(1).Engine.FallbackRecvs, times
	}

	bs, recvs, times := run()
	if bs.Opens == 0 {
		t.Error("breaker never opened under a 100% codec fault rate")
	}
	if bs.FallbackSends == 0 {
		t.Error("no sends were forced onto the uncompressed path")
	}
	if recvs == 0 {
		t.Error("receiver never saw the Fallback negotiation bit")
	}

	bs2, recvs2, times2 := run()
	if bs != bs2 || recvs != recvs2 {
		t.Errorf("breaker transitions not deterministic: %+v/%d vs %+v/%d", bs, recvs, bs2, recvs2)
	}
	for i := range times {
		if times[i] != times2[i] {
			t.Errorf("rank %d timeline differs across identical runs: %v vs %v", i, times[i], times2[i])
		}
	}
}

// TestBreakerHalfOpenCloses drives the full state cycle against a codec
// that heals: closed -> open (consecutive failures) -> half-open probe
// after the cooldown -> closed again once the probe succeeds.
func TestBreakerHalfOpenCloses(t *testing.T) {
	const words = 32 << 10
	vals := make([]float32, words)
	for i := range vals {
		vals[i] = float32(i % 17)
	}
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{
			Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 32 << 10, PoolBufBytes: 2 << 20,
			Breaker: core.BreakerPolicy{Threshold: 2, Cooldown: 300 * simtime.Microsecond},
		},
		Faults: &faults.Config{
			Seed: 9, CodecRate: 1,
			CodecUntil: 200 * simtime.Microsecond, // the codec heals here
		},
	})
	const msgs = 3
	_, errs := w.RunAll(func(r *Rank) error {
		for m := 0; m < msgs; m++ {
			if r.ID() == 0 {
				if m == 1 {
					// Idle past the heal instant and the open cooldown so
					// the next send becomes the half-open probe.
					r.Clock.Advance(simtime.Millisecond)
				}
				if err := r.Send(1, m, devBuf(r, vals)); err != nil {
					return err
				}
			} else {
				buf := emptyDevBuf(r, words)
				if err := r.Recv(0, m, buf); err != nil {
					return err
				}
				got := core.BytesToFloats(buf.Data)
				for i := 0; i < len(got); i += 499 {
					if got[i] != vals[i] {
						return fmt.Errorf("msg %d word %d = %v, want %v", m, i, got[i], vals[i])
					}
				}
			}
		}
		return nil
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", id, err)
		}
	}
	bs := w.Rank(0).Engine.BreakerSnapshot()
	if bs.Opens == 0 || bs.Probes == 0 || bs.Closes == 0 {
		t.Errorf("expected a full open -> probe -> close cycle, got %+v", bs)
	}
}

// TestRetryDelayClamp pins the backoff clamp: delay() must saturate at
// maxRetryBackoff for any attempt count (the doubling previously
// overflowed for attempts past 62) and stay monotone below the cap.
func TestRetryDelayClamp(t *testing.T) {
	p := RetryPolicy{}
	prev := simtime.Duration(0)
	for a := 0; a < 70; a++ {
		d := p.delay(a)
		if d <= 0 || d > maxRetryBackoff {
			t.Fatalf("delay(%d) = %v, out of (0, %v]", a, d, maxRetryBackoff)
		}
		if d < prev {
			t.Fatalf("delay(%d) = %v < delay(%d) = %v: non-monotone", a, d, a-1, prev)
		}
		prev = d
	}
	for _, a := range []int{62, 63, 64, 100, 1 << 20, 1 << 30} {
		if d := p.delay(a); d != maxRetryBackoff {
			t.Errorf("delay(%d) = %v, want clamp at %v", a, d, maxRetryBackoff)
		}
	}
	if d := (RetryPolicy{Backoff: 2 * maxRetryBackoff}).delay(0); d != maxRetryBackoff {
		t.Errorf("oversized base backoff: delay(0) = %v, want %v", d, maxRetryBackoff)
	}
	if d := (RetryPolicy{Backoff: 3 * simtime.Microsecond}).delay(2); d != 12*simtime.Microsecond {
		t.Errorf("delay(2) with 3us base = %v, want 12us", d)
	}
}

// TestCrashDeterminismAcrossWorkers asserts the failure machinery is
// scheduling-independent: the same seeded chaos run produces identical
// fault counters, health counters, per-rank errors and clocks whether the
// host codec pool runs 1, 2 or 8 workers.
func TestCrashDeterminismAcrossWorkers(t *testing.T) {
	const nodes, ppn = 4, 2
	fcfg := faults.Config{CrashRate: 0.15, CodecRate: 0.3, FailWindow: 300 * simtime.Microsecond}
	fcfg.Seed = findFateSeed(t, nodes*ppn, fcfg, 1, 0)

	type outcome struct {
		fs    faults.Stats
		hs    HealthStats
		times []simtime.Time
		errs  []string
	}
	run := func(workers int) outcome {
		f := fcfg
		w := mustWorld(t, Options{
			Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
			Engine: core.Config{
				Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				Threshold: 32 << 10, PoolBufBytes: 2 << 20, Workers: workers,
				Breaker: core.BreakerPolicy{Threshold: 2},
			},
			Faults: &f,
			Health: HealthPolicy{Deadline: 200 * simtime.Microsecond},
		})
		vals := make([]float32, 32<<10)
		for i := range vals {
			vals[i] = float32(i % 101)
		}
		times, errs := w.RunAll(func(r *Rank) error {
			send := devBuf(r, vals)
			recv := emptyDevBuf(r, len(vals))
			for iter := 0; iter < 12; iter++ {
				if err := r.AllreduceSum(send, recv); err != nil {
					return err
				}
			}
			return nil
		})
		out := outcome{fs: w.FaultStats(), hs: w.HealthStats(), times: times}
		for _, err := range errs {
			out.errs = append(out.errs, fmt.Sprint(err))
		}
		return out
	}

	base := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.fs != base.fs {
			t.Errorf("workers=%d fault stats %+v != workers=1 %+v", workers, got.fs, base.fs)
		}
		if got.hs.WatchdogWakeups != base.hs.WatchdogWakeups || got.hs.CascadeQuiets != base.hs.CascadeQuiets ||
			got.hs.Crashes != base.hs.Crashes || got.hs.Silences != base.hs.Silences {
			t.Errorf("workers=%d health stats %+v != workers=1 %+v", workers, got.hs, base.hs)
		}
		for i := range base.times {
			if got.times[i] != base.times[i] {
				t.Errorf("workers=%d rank %d clock %v != %v", workers, i, got.times[i], base.times[i])
			}
		}
		for i := range base.errs {
			if got.errs[i] != base.errs[i] {
				t.Errorf("workers=%d rank %d error %q != %q", workers, i, got.errs[i], base.errs[i])
			}
		}
	}
}
