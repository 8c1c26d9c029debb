package mpi

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// findHealSeed scans for a seed whose fate draws crash exactly wantCrashes
// ranks, none of them in keep (ranks the scenario needs alive, e.g. a
// bcast root). Fates are pure functions of (seed, rank), so the scan
// exactly predicts NewWorld's draws.
func findHealSeed(t *testing.T, ranks int, cfg faults.Config, wantCrashes int, keep ...int) int64 {
	t.Helper()
	protected := make(map[int]bool, len(keep))
	for _, id := range keep {
		protected[id] = true
	}
seeds:
	for seed := int64(1); seed < 20000; seed++ {
		c := cfg
		c.Seed = seed
		inj := faults.New(c)
		crashes := 0
		for id := 0; id < ranks; id++ {
			if _, silent, failed := inj.RankFate(id); failed {
				if silent || protected[id] {
					continue seeds
				}
				crashes++
			}
		}
		if crashes == wantCrashes {
			return seed
		}
	}
	t.Fatalf("no seed crashes %d ranks (keeping %v) over %d ranks", wantCrashes, keep, ranks)
	return 0
}

// assertPoolBalance fails the test if any rank's staging pool has fewer
// free buffers than it owns — a credit leaked by an aborted or healed
// collective.
func assertPoolBalance(t *testing.T, w *World, ctx string) {
	t.Helper()
	for id := 0; id < w.Size(); id++ {
		free, total := w.Rank(id).Engine.PoolBalance()
		if free != total {
			t.Errorf("%s: rank %d staging pool free=%d total=%d — aborted collective leaked credits", ctx, id, free, total)
		}
	}
}

// hashBuf fingerprints a buffer's payload for bit-identity comparisons.
func hashBuf(b *gpusim.Buffer) uint64 {
	h := fnv.New64a()
	h.Write(b.Data)
	return h.Sum64()
}

// TestSelfHealRingAllreduceCompletes is the tentpole acceptance scenario:
// a pipelined ring allreduce loses a rank mid-run and the survivors
// revoke the attempt, agree on the failed set, splice the ring, and
// complete on the shrunken group with the exact survivor-only sum.
func TestSelfHealRingAllreduceCompletes(t *testing.T) {
	const nodes, ppn = 4, 2
	const words = 8 << 10
	const iters = 12
	fcfg := faults.Config{CrashRate: 0.15, FailWindow: 150 * simtime.Microsecond}
	fcfg.Seed = findHealSeed(t, nodes*ppn, fcfg, 1)
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 2 << 10, PoolBufBytes: 2 << 20, PipelineChunkBytes: 4 << 10},
		Faults: &fcfg,
		Health: HealthPolicy{SelfHeal: true, Deadline: 150 * simtime.Microsecond},
	})
	doomed := w.HealthStats().Doomed
	if len(doomed) != 1 {
		t.Fatalf("doomed = %v, want exactly one fated rank", doomed)
	}
	var survivorSum float32
	for id := 0; id < nodes*ppn; id++ {
		if id != doomed[0] {
			survivorSum += float32(id + 1)
		}
	}

	final := make([]*gpusim.Buffer, nodes*ppn)
	_, errs := w.RunAll(func(r *Rank) error {
		vals := make([]float32, words)
		for i := range vals {
			vals[i] = float32(r.ID() + 1)
		}
		send := devBuf(r, vals)
		recv := emptyDevBuf(r, words)
		final[r.ID()] = recv
		for it := 0; it < iters; it++ {
			if err := r.RingAllreduceSum(send, recv); err != nil {
				return err
			}
		}
		return nil
	})
	assertNoRankGoroutines(t)
	assertPoolBalance(t, w, "self-heal ring allreduce")
	for id, err := range errs {
		if id == doomed[0] {
			if err == nil {
				t.Errorf("fated rank %d completed all iterations", id)
			}
			continue
		}
		if err != nil {
			t.Fatalf("survivor %d failed under self-heal: %v", id, err)
		}
		got := core.BytesToFloats(final[id].Data)
		for i := 0; i < len(got); i += 499 {
			if got[i] != survivorSum {
				t.Errorf("survivor %d word %d = %v, want %v (survivor-only sum)", id, i, got[i], survivorSum)
				break
			}
		}
	}
	rs := w.RecoveryStats()
	if rs.Reroutes == 0 || rs.ShrinkCompletions == 0 || rs.RevokedOps == 0 {
		t.Errorf("recovery never engaged: %+v", rs)
	}
	if rs.RecoveryTime <= 0 {
		t.Errorf("recovery charged no simulated time: %+v", rs)
	}
}

// TestSelfHealPipelinedRingDeterminism races the shrink against in-flight
// pipelined chunks and pins scheduling independence: the same seeded
// failure produces bit-identical survivor payloads, clocks and recovery
// stats across 1/2/8 codec workers, and bit-identical payloads across
// watchdog deadlines (detection latency may move the clocks, never the
// bytes).
func TestSelfHealPipelinedRingDeterminism(t *testing.T) {
	const nodes, ppn = 4, 2
	const words = 8 << 10
	const iters = 10
	fcfg := faults.Config{CrashRate: 0.15, FailWindow: 150 * simtime.Microsecond}
	fcfg.Seed = findHealSeed(t, nodes*ppn, fcfg, 1)

	type outcome struct {
		hashes []uint64
		times  []simtime.Time
		rs     RecoveryStats
		errs   []string
	}
	run := func(workers int, deadline simtime.Duration) outcome {
		f := fcfg
		w := mustWorld(t, Options{
			Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				Threshold: 2 << 10, PoolBufBytes: 2 << 20,
				PipelineChunkBytes: 4 << 10, Workers: workers},
			Faults: &f,
			Health: HealthPolicy{SelfHeal: true, Deadline: deadline},
		})
		doomed := w.HealthStats().Doomed
		fated := make(map[int]bool, len(doomed))
		for _, id := range doomed {
			fated[id] = true
		}
		out := outcome{hashes: make([]uint64, nodes*ppn)}
		final := make([]*gpusim.Buffer, nodes*ppn)
		times, errs := w.RunAll(func(r *Rank) error {
			vals := make([]float32, words)
			for i := range vals {
				vals[i] = float32(r.ID()%13) + 0.5
			}
			send := devBuf(r, vals)
			recv := emptyDevBuf(r, words)
			final[r.ID()] = recv
			for it := 0; it < iters; it++ {
				if err := r.RingAllreduceSum(send, recv); err != nil {
					return err
				}
			}
			return nil
		})
		assertNoRankGoroutines(t)
		out.times = times
		out.rs = w.RecoveryStats()
		for id := range final {
			if !fated[id] {
				if errs[id] != nil {
					t.Fatalf("workers=%d deadline=%v: survivor %d failed: %v", workers, deadline, id, errs[id])
				}
				out.hashes[id] = hashBuf(final[id])
			}
			out.errs = append(out.errs, fmt.Sprint(errs[id]))
		}
		return out
	}

	base := run(1, 300*simtime.Microsecond)
	if base.rs.ShrinkCompletions == 0 {
		t.Fatalf("failure never raced the ring: %+v", base.rs)
	}
	for _, workers := range []int{2, 8} {
		got := run(workers, 300*simtime.Microsecond)
		if got.rs != base.rs {
			t.Errorf("workers=%d recovery stats %+v != workers=1 %+v", workers, got.rs, base.rs)
		}
		for i := range base.hashes {
			if got.hashes[i] != base.hashes[i] {
				t.Errorf("workers=%d rank %d payload differs from workers=1", workers, i)
			}
			if got.times[i] != base.times[i] {
				t.Errorf("workers=%d rank %d clock %v != %v", workers, i, got.times[i], base.times[i])
			}
			if got.errs[i] != base.errs[i] {
				t.Errorf("workers=%d rank %d error %q != %q", workers, i, got.errs[i], base.errs[i])
			}
		}
	}
	// Detection latency shifts the timeline but must not change the bytes.
	for _, deadline := range []simtime.Duration{150 * simtime.Microsecond, 160 * simtime.Microsecond, 600 * simtime.Microsecond} {
		got := run(1, deadline)
		for i := range base.hashes {
			if got.hashes[i] != base.hashes[i] {
				t.Errorf("deadline=%v rank %d payload differs from the 300us deadline", deadline, i)
			}
		}
	}
}

// TestSelfHealBcastHierarchicalCompletes kills a rank under the two-stage
// hierarchical bcast: survivors must re-elect node leaders on the shrunken
// view and all end up with the root's exact payload.
func TestSelfHealBcastHierarchicalCompletes(t *testing.T) {
	const nodes, ppn = 4, 2
	const words = 8 << 10
	fcfg := faults.Config{CrashRate: 0.15, FailWindow: 150 * simtime.Microsecond}
	fcfg.Seed = findHealSeed(t, nodes*ppn, fcfg, 1, 0) // root 0 stays alive
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
		Faults: &fcfg,
		Health: HealthPolicy{SelfHeal: true, Deadline: 150 * simtime.Microsecond},
	})
	doomed := w.HealthStats().Doomed
	if len(doomed) != 1 || doomed[0] == 0 {
		t.Fatalf("doomed = %v, want one fated non-root rank", doomed)
	}
	vals := make([]float32, words)
	for i := range vals {
		vals[i] = float32(i%101) + 0.25
	}
	final := make([]*gpusim.Buffer, nodes*ppn)
	_, errs := w.RunAll(func(r *Rank) error {
		buf := emptyDevBuf(r, words)
		final[r.ID()] = buf
		for it := 0; it < 8; it++ {
			if r.ID() == 0 {
				core.FloatsToBytes(buf.Data[:0], vals)
			}
			if err := r.BcastHierarchical(0, buf); err != nil {
				return err
			}
		}
		return nil
	})
	assertNoRankGoroutines(t)
	for id, err := range errs {
		if id == doomed[0] {
			continue
		}
		if err != nil {
			t.Fatalf("survivor %d failed under self-heal: %v", id, err)
		}
		got := core.BytesToFloats(final[id].Data)
		for i := range got {
			if got[i] != vals[i] {
				t.Errorf("survivor %d word %d = %v, want %v", id, i, got[i], vals[i])
				break
			}
		}
	}
	if rs := w.RecoveryStats(); rs.ShrinkCompletions == 0 {
		t.Errorf("hierarchical bcast never healed: %+v", rs)
	}
}

// TestSelfHealAlltoallvCompletes kills a rank under the wave-scheduled
// vector all-to-all: survivors complete on the shrunken group and every
// live-to-live segment lands bit-exactly.
func TestSelfHealAlltoallvCompletes(t *testing.T) {
	const nodes, ppn = 4, 1
	const blkWords = 2 << 10
	fcfg := faults.Config{CrashRate: 0.25, FailWindow: 100 * simtime.Microsecond}
	fcfg.Seed = findHealSeed(t, nodes*ppn, fcfg, 1)
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
		Faults: &fcfg,
		Health: HealthPolicy{SelfHeal: true, Deadline: 100 * simtime.Microsecond},
	})
	doomed := w.HealthStats().Doomed
	if len(doomed) != 1 {
		t.Fatalf("doomed = %v, want exactly one fated rank", doomed)
	}
	P := w.Size()
	segVal := func(src, dst, i int) float32 { return float32(src*1000+dst*100) + float32(i%97) }
	final := make([]*gpusim.Buffer, P)
	_, errs := w.RunAll(func(r *Rank) error {
		counts := make([]int, P)
		displs := make([]int, P)
		for j := 0; j < P; j++ {
			counts[j] = 4 * blkWords
			displs[j] = j * 4 * blkWords
		}
		send := emptyDevBuf(r, P*blkWords)
		recv := emptyDevBuf(r, P*blkWords)
		final[r.ID()] = recv
		vals := make([]float32, P*blkWords)
		for j := 0; j < P; j++ {
			for i := 0; i < blkWords; i++ {
				vals[j*blkWords+i] = segVal(r.ID(), j, i)
			}
		}
		core.FloatsToBytes(send.Data[:0], vals)
		for it := 0; it < 8; it++ {
			if err := r.Alltoallv(send, counts, displs, recv, counts, displs); err != nil {
				return err
			}
		}
		return nil
	})
	assertNoRankGoroutines(t)
	for id, err := range errs {
		if id == doomed[0] {
			continue
		}
		if err != nil {
			t.Fatalf("survivor %d failed under self-heal: %v", id, err)
		}
		got := core.BytesToFloats(final[id].Data)
		for j := 0; j < P; j++ {
			if j == doomed[0] {
				continue // segment from the dead rank is undefined post-shrink
			}
			for i := 0; i < blkWords; i += 331 {
				if got[j*blkWords+i] != segVal(j, id, i) {
					t.Errorf("survivor %d segment from %d word %d = %v, want %v",
						id, j, i, got[j*blkWords+i], segVal(j, id, i))
					break
				}
			}
		}
	}
	if rs := w.RecoveryStats(); rs.ShrinkCompletions == 0 {
		t.Errorf("alltoallv never healed: %+v", rs)
	}
}

// TestPartitionRideOut runs an allreduce straight through an operator
// partition window: the transport's backoff must ride out the severed
// cross-group links without any reroute, and every rank completes with
// the exact full-world sum.
func TestPartitionRideOut(t *testing.T) {
	const nodes, ppn = 4, 1
	const words = 2 << 10
	fcfg := faults.Config{
		PartitionGroups: [][]int{{0, 1}, {2, 3}},
		PartitionAt:     100 * simtime.Microsecond,
		PartitionHeal:   300 * simtime.Microsecond,
	}
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
		Faults: &fcfg,
		Health: HealthPolicy{SelfHeal: true},
	})
	var wantSum float32
	for id := 0; id < nodes*ppn; id++ {
		wantSum += float32(id + 1)
	}
	final := make([]*gpusim.Buffer, nodes*ppn)
	_, errs := w.RunAll(func(r *Rank) error {
		vals := make([]float32, words)
		for i := range vals {
			vals[i] = float32(r.ID() + 1)
		}
		send := devBuf(r, vals)
		recv := emptyDevBuf(r, words)
		final[r.ID()] = recv
		for it := 0; it < 10; it++ {
			if err := r.AllreduceSum(send, recv); err != nil {
				return err
			}
		}
		return nil
	})
	assertNoRankGoroutines(t)
	for id, err := range errs {
		if err != nil {
			t.Fatalf("rank %d failed across the partition window: %v", id, err)
		}
		got := core.BytesToFloats(final[id].Data)
		for i := 0; i < len(got); i += 331 {
			if got[i] != wantSum {
				t.Errorf("rank %d word %d = %v, want %v", id, i, got[i], wantSum)
				break
			}
		}
	}
	rs := w.RecoveryStats()
	if rs.LinkDrops == 0 {
		t.Errorf("partition window never severed a transmission: %+v", rs)
	}
	if rs.Reroutes != 0 {
		t.Errorf("ride-out took %d reroutes, want the backoff to absorb the outage", rs.Reroutes)
	}
}

// TestRetryRunsOverRouteOrder: once a collective has been retried on a
// world whose fated links make RouteAround something other than the
// identity, every survivor runs the collectives that follow over the live
// set in route order — ranks grouped by their node's position in the
// route. The world is the partition soak's seed 2 under allreduce, where
// RouteAround reads [0 3 2 1]. A planted identity view (routeView nil)
// passes every other tier-1 test.
func TestRetryRunsOverRouteOrder(t *testing.T) {
	const nodes, ppn, words = 4, 2, 4 << 10
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
		Faults: &faults.Config{Seed: 2, CrashRate: 0.15, FailWindow: 200 * simtime.Microsecond, LinkFlapRate: 0.15},
		Health: HealthPolicy{SelfHeal: true, Deadline: 300 * simtime.Microsecond},
	})
	route := w.Fabric().RouteAround()
	if fmt.Sprint(route) != "[0 3 2 1]" {
		t.Fatalf("RouteAround = %v, want the soak's [0 3 2 1]", route)
	}
	var want []int
	for _, node := range route {
		for id := node * ppn; id < (node+1)*ppn; id++ {
			if !w.Fated(id) {
				want = append(want, id)
			}
		}
	}
	views := make([][]int, nodes*ppn)
	_, errs := w.RunAll(func(r *Rank) error {
		vals := make([]float32, words)
		for i := range vals {
			vals[i] = float32(r.ID() + 1)
		}
		send, recv := devBuf(r, vals), emptyDevBuf(r, words)
		for it := 0; it < 6; it++ {
			if err := r.AllreduceSum(send, recv); err != nil {
				return err
			}
		}
		v, err := r.collView()
		views[r.ID()] = v.live
		return err
	})
	assertNoRankGoroutines(t)
	if rs := w.RecoveryStats(); rs.Reroutes == 0 {
		t.Fatalf("no collective was retried: %+v", rs)
	}
	for id, err := range errs {
		if w.Fated(id) {
			continue
		}
		if err != nil {
			t.Fatalf("survivor %d failed: %v", id, err)
		}
		if fmt.Sprint(views[id]) != fmt.Sprint(want) {
			t.Errorf("survivor %d runs over %v after the retry, want the route-ordered %v", id, views[id], want)
		}
	}
}

// TestChaosPartitionSoakCollectives is the partition-soak matrix: every
// collective under combined crash-stop and link-flap fates with self-heal
// armed. The contract: survivors always complete (nil error), fated ranks
// fail typed, no goroutine leaks, no staging-pool credit leaks — and the
// protocol-plane golden (doomed sets, reroutes, shrink-completions,
// revoked-ops, resourced-chunks, survivor error bitmap, and
// survivor payload hashes) is byte-identical when replayed, the
// golden-stats property the CI chaos job pins. Timing-plane counters
// (link-drops, recovery-time) are reported in
// the CHAOS_STATS artifact but not replay-compared: they inherit the
// fabric's contention-arbitration sensitivity (concurrent transfers with
// overlapping calendar windows book in arrival order — see DESIGN.md
// §14), which predates the heal layer. Seeds can be overridden with
// CHAOS_SEED; CHAOS_STATS names a file to receive the full stats report.
func TestChaosPartitionSoakCollectives(t *testing.T) {
	seeds := []int64{2, 6}
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
		words = 4 << 10
		iters = 6
	)
	colls := []struct {
		name   string
		engine core.Config
		run    func(r *Rank, send, recv *gpusim.Buffer) error
	}{
		{name: "barrier", run: func(r *Rank, _, _ *gpusim.Buffer) error { return r.Barrier() }},
		{name: "bcast", run: func(r *Rank, send, _ *gpusim.Buffer) error { return r.Bcast(0, send) }},
		{name: "bcast-hier", run: func(r *Rank, send, _ *gpusim.Buffer) error { return r.BcastHierarchical(0, send) }},
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
		{name: "ringallreduce-pipelined",
			engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				Threshold: 2 << 10, PoolBufBytes: 2 << 20, PipelineChunkBytes: 1 << 10},
			run: func(r *Rank, send, recv *gpusim.Buffer) error {
				return r.RingAllreduceSum(send, recv)
			}},
		{name: "alltoall", run: func(r *Rank, send, recv *gpusim.Buffer) error { return r.Alltoall(send, recv) }},
	}

	matrix := func() (string, string) {
		var golden, report strings.Builder
		for _, seed := range seeds {
			for _, coll := range colls {
				fcfg := &faults.Config{
					Seed: seed, CrashRate: 0.15,
					FailWindow:   200 * simtime.Microsecond,
					LinkFlapRate: 0.15,
				}
				w := mustWorld(t, Options{
					Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
					Engine: coll.engine, Faults: fcfg,
					Health: HealthPolicy{
						SelfHeal: true,
						Deadline: 300 * simtime.Microsecond,
					},
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
				sends := make([]*gpusim.Buffer, nodes*ppn)
				recvs := make([]*gpusim.Buffer, nodes*ppn)
				_, errs := w.RunAll(func(r *Rank) error {
					send := devBuf(r, vals)
					recv := emptyDevBuf(r, words)
					sends[r.ID()] = send
					recvs[r.ID()] = recv
					for it := 0; it < iters; it++ {
						if err := coll.run(r, send, recv); err != nil {
							return err
						}
					}
					return nil
				})
				assertNoRankGoroutines(t)
				assertPoolBalance(t, w, fmt.Sprintf("seed %d %s", seed, coll.name))
				for id, err := range errs {
					if fated[id] {
						continue // its own demise, any typed shape
					}
					if err != nil {
						t.Errorf("seed %d %s: survivor %d failed under self-heal: %v", seed, coll.name, id, err)
					}
				}
				rs := w.RecoveryStats()
				payload := fnv.New64a()
				ok := make([]bool, nodes*ppn)
				for id := 0; id < nodes*ppn; id++ {
					ok[id] = errs[id] == nil
					if fated[id] || errs[id] != nil {
						continue
					}
					payload.Write(sends[id].Data)
					payload.Write(recvs[id].Data)
				}
				fmt.Fprintf(&golden,
					"seed=%d coll=%s doomed=%v reroutes=%d shrink-completions=%d revoked-ops=%d resourced-chunks=%d ok=%v payload=%016x\n",
					seed, coll.name, doomed, rs.Reroutes, rs.ShrinkCompletions, rs.RevokedOps,
					rs.ResourcedChunks, ok, payload.Sum64())
				fmt.Fprintf(&report,
					"seed=%d coll=%s doomed=%v reroutes=%d shrink-completions=%d revoked-ops=%d resourced-chunks=%d link-drops=%d recovery-time=%.2fus\n",
					seed, coll.name, doomed, rs.Reroutes, rs.ShrinkCompletions, rs.RevokedOps,
					rs.ResourcedChunks, rs.LinkDrops,
					rs.RecoveryTime.Microseconds())
			}
		}
		return golden.String(), report.String()
	}

	firstGolden, first := matrix()
	if !strings.Contains(first, "shrink-completions=1") && !strings.Contains(first, "shrink-completions=2") {
		t.Errorf("soak never exercised a shrink-completion:\n%s", first)
	}
	if secondGolden, _ := matrix(); secondGolden != firstGolden {
		t.Errorf("golden recovery stats not reproducible across identical replays:\nfirst:\n%s\nsecond:\n%s", firstGolden, secondGolden)
	}
	if path := os.Getenv("CHAOS_STATS"); path != "" {
		out := "## golden (replay-pinned)\n" + firstGolden + "## full (timing-plane counters vary with fabric contention arbitration)\n" + first
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Errorf("writing CHAOS_STATS: %v", err)
		}
	}
}

// TestHealRetryBound pins the retry backstop: a collective that keeps
// failing (every survivor doomed view change exhausted) must surface a
// typed error instead of retrying forever. A two-rank world where the
// only peer dies cannot shrink to a useful group for point-to-point
// bcast, so the survivor's heal ladder must terminate.
func TestHealRetryBound(t *testing.T) {
	fcfg := faults.Config{CrashRate: 0.5, FailWindow: 100 * simtime.Microsecond}
	for seed := int64(1); ; seed++ {
		if seed > 20000 {
			t.Fatal("no seed crashes rank 1 and keeps rank 0")
		}
		c := fcfg
		c.Seed = seed
		inj := faults.New(c)
		_, _, failed0 := inj.RankFate(0)
		_, silent1, failed1 := inj.RankFate(1)
		if !failed0 && failed1 && !silent1 {
			fcfg.Seed = seed
			break
		}
	}
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Faults: &fcfg,
		Health: HealthPolicy{SelfHeal: true, MaxAttempts: 2, Deadline: 100 * simtime.Microsecond},
	})
	_, errs := w.RunAll(func(r *Rank) error {
		buf := emptyDevBuf(r, 16<<10) // 64 KiB: rendezvous, advances the clock past onset
		for it := 0; it < 40; it++ {
			// Point-to-point against the doomed peer: rank 0's sends can
			// never complete once rank 1 dies, and a two-rank world cannot
			// shrink a p2p exchange — the bound must fire.
			var err error
			if r.ID() == 0 {
				err = r.Send(1, it, buf)
			} else {
				err = r.Recv(0, it, buf)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	assertNoRankGoroutines(t)
	if errs[0] == nil || !errors.Is(errs[0], ErrPeerFailed) {
		t.Errorf("survivor against a dead peer: %v, want ErrPeerFailed", errs[0])
	}
	if errs[1] == nil {
		t.Error("fated rank completed all iterations")
	}
}

// TestFailureSweepsReleaseWokenReceives: a receive the watchdog's sweep or
// an attempt's revocation wakes, and an envelope the revocation fails, must
// not stay reachable from the vacated tail of the queue it was filtered out
// of — the envelope pins its payload and the payload's decoded form. One
// mailbox per filter: rank 1 waits on rank 0 inside the attempt rank 0
// revokes, rank 2's rendezvous send sits unmatched in rank 0's mailbox, and
// rank 4 waits on rank 3, which quits with an error. The wait group pins
// host order: all three are queued before either failure is announced.
func TestFailureSweepsReleaseWokenReceives(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 5, PPN: 1,
		Health: HealthPolicy{SelfHeal: true, Deadline: 100 * simtime.Microsecond}})
	var queued sync.WaitGroup
	queued.Add(3)
	_, errs := w.RunAll(func(r *Rank) error {
		buf := emptyDevBuf(r, 64<<10)
		var req *Request
		var err error
		want := ErrCollRevoked
		switch r.ID() {
		case 0:
			queued.Wait()
			w.abortAttempt(r, r.healEpoch, r.curOp)
			return nil
		case 1:
			req, err = r.irecv(0, r.collTag(baseBcast), buf)
		case 2:
			req, err = r.isend(0, r.collTag(baseBcast), buf, nil)
		case 3:
			queued.Wait()
			return errors.New("rank 3 gives up")
		case 4:
			req, err = r.Irecv(3, 7, buf)
			want = ErrPeerFailed
		}
		queued.Done()
		if err != nil {
			return err
		}
		if err := r.Wait(req); !errors.Is(err, want) {
			return fmt.Errorf("woken with %v, want %v", err, want)
		}
		return nil
	})
	assertNoRankGoroutines(t)
	for id, err := range errs {
		if (id == 3) != (err != nil) {
			t.Errorf("rank %d: %v", id, err)
		}
	}
	for id := 0; id < w.Size(); id++ {
		posted, unexpected := w.Rank(id).box.queues()
		for i, p := range posted[len(posted):cap(posted)] {
			if p != nil {
				t.Errorf("rank %d: posted[%d] of %d still holds a woken receive", id, len(posted)+i, cap(posted))
			}
		}
		for i, env := range unexpected[len(unexpected):cap(unexpected)] {
			if env != nil {
				t.Errorf("rank %d: unexpected[%d] of %d still holds a failed envelope", id, len(unexpected)+i, cap(unexpected))
			}
		}
	}
}
