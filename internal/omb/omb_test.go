package omb

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

func newW(t testing.TB, cluster hw.Cluster, nodes, ppn int, cfg core.Config) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Options{Cluster: cluster, Nodes: nodes, PPN: ppn, Engine: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLatencyMonotonicInSize(t *testing.T) {
	w := newW(t, hw.Longhorn(), 2, 1, core.Config{})
	res, err := Latency(w, []int{256 << 10, 1 << 20, 4 << 20}, 1, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("rows: %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Latency <= res[i-1].Latency {
			t.Fatalf("latency must grow with size: %v", res)
		}
	}
	// Baseline never compresses.
	if res[0].Ratio != 1 {
		t.Fatalf("baseline ratio should be 1, got %v", res[0].Ratio)
	}
}

func TestLatencyDeterministic(t *testing.T) {
	run := func() simtime.Duration {
		w := newW(t, hw.Longhorn(), 2, 1, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC})
		res, err := Latency(w, []int{4 << 20}, 1, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Latency
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("simulation must be deterministic: %v vs %v", a, b)
	}
}

func TestCompressedLatencyBeatsBaselineAt32MB(t *testing.T) {
	// The headline point-to-point result (Fig. 9b): on Frontera Liquid's
	// FDR network both OPT schemes win big at 32 MB.
	sizes := []int{32 << 20}
	base, err := Latency(newW(t, hw.FronteraLiquid(), 2, 1, core.Config{}), sizes, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	mpcOpt, err := Latency(newW(t, hw.FronteraLiquid(), 2, 1,
		core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}), sizes, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	zfpOpt, err := Latency(newW(t, hw.FronteraLiquid(), 2, 1,
		core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 4}), sizes, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, m, z := base[0].Latency, mpcOpt[0].Latency, zfpOpt[0].Latency
	// Paper: MPC-OPT up to 77.1%, ZFP-OPT(rate:4) up to 83.1% reduction.
	if red := 1 - float64(m)/float64(b); red < 0.4 {
		t.Fatalf("MPC-OPT reduction too small: %.1f%% (%v vs %v)", red*100, m, b)
	}
	if red := 1 - float64(z)/float64(b); red < 0.65 {
		t.Fatalf("ZFP-OPT(4) reduction too small: %.1f%% (%v vs %v)", red*100, z, b)
	}
	if mpcOpt[0].Ratio <= 2 {
		t.Fatalf("dummy-data MPC ratio should be large: %v", mpcOpt[0].Ratio)
	}
	if zfpOpt[0].Ratio < 7.9 || zfpOpt[0].Ratio > 8.1 {
		t.Fatalf("ZFP rate 4 ratio should be 8: %v", zfpOpt[0].Ratio)
	}
}

func TestNaiveIntegrationHurts(t *testing.T) {
	// Figure 5: the naive integration is *slower* than no compression at
	// small-to-mid sizes.
	sizes := []int{512 << 10}
	base, err := Latency(newW(t, hw.Longhorn(), 2, 1, core.Config{}), sizes, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Latency(newW(t, hw.Longhorn(), 2, 1,
		core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoMPC}), sizes, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if naive[0].Latency <= base[0].Latency {
		t.Fatalf("naive MPC at 512KB should lose to baseline: %v vs %v",
			naive[0].Latency, base[0].Latency)
	}
}

func TestBandwidthSaturatesLink(t *testing.T) {
	// Figure 2(a): the baseline library saturates IB EDR (12.5 GB/s) for
	// large messages.
	w := newW(t, hw.Longhorn(), 2, 1, core.Config{})
	res, err := Bandwidth(w, []int{1 << 20, 8 << 20, 32 << 20}, 1, 2, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := res[len(res)-1].BandwidthGBps
	if last < 11.0 || last > 12.6 {
		t.Fatalf("32MB bandwidth should approach 12.5 GB/s: %v", last)
	}
	// Small messages achieve less.
	if res[0].BandwidthGBps >= last {
		t.Fatalf("bandwidth should grow with size: %+v", res)
	}
}

func TestBandwidthExtraOverheadLowersSmallMsg(t *testing.T) {
	w := newW(t, hw.Longhorn(), 2, 1, core.Config{})
	clean, err := Bandwidth(w, []int{64 << 10}, 1, 2, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Bandwidth(w, []int{64 << 10}, 1, 2, 16, simtime.FromMicroseconds(20))
	if err != nil {
		t.Fatal(err)
	}
	if slow[0].BandwidthGBps >= clean[0].BandwidthGBps {
		t.Fatal("per-message overhead should reduce small-message bandwidth")
	}
}

func TestBcastAndAllgatherDatasets(t *testing.T) {
	// Figure 11 conditions (shrunk): 4 nodes x 2 ppn on Frontera Liquid,
	// real dataset payloads, 2 MB messages.
	gen, err := DatasetData("msg_sppm")
	if err != nil {
		t.Fatal(err)
	}
	base := newW(t, hw.FronteraLiquid(), 4, 2, core.Config{})
	comp := newW(t, hw.FronteraLiquid(), 4, 2, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC})

	b0, err := CollectiveLatency(base, "bcast", 2<<20, 1, 2, gen)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := CollectiveLatency(comp, "bcast", 2<<20, 1, 2, gen)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Latency >= b0.Latency {
		t.Fatalf("MPC-OPT bcast on msg_sppm should win: %v vs %v", b1.Latency, b0.Latency)
	}
	if b1.Ratio < 4 {
		t.Fatalf("msg_sppm should compress > 4x, got %v", b1.Ratio)
	}

	a0, err := CollectiveLatency(base, "allgather", 4<<20, 1, 2, gen)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := CollectiveLatency(comp, "allgather", 4<<20, 1, 2, gen)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Latency >= a0.Latency {
		t.Fatalf("MPC-OPT allgather on msg_sppm should win: %v vs %v", a1.Latency, a0.Latency)
	}
}

func TestDatasetDataUnknown(t *testing.T) {
	if _, err := DatasetData("bogus"); err == nil {
		t.Fatal("unknown dataset should fail")
	}
}

func TestLatencyNeedsTwoRanks(t *testing.T) {
	w := newW(t, hw.Longhorn(), 1, 1, core.Config{})
	if _, err := Latency(w, []int{1024}, 0, 1, nil); err == nil {
		t.Fatal("1 rank should fail")
	}
	if _, err := Bandwidth(w, []int{1024}, 0, 1, 4, 0); err == nil {
		t.Fatal("1 rank should fail")
	}
}

// TestDriversRejectBadIters: no measured iteration or a negative warmup is
// an error from every driver, not a division by zero (a panic on a rank)
// or a NaN bandwidth.
func TestDriversRejectBadIters(t *testing.T) {
	w := newW(t, hw.Longhorn(), 2, 1, core.Config{})
	for _, c := range []struct{ warmup, iters int }{{0, 0}, {-1, 1}, {2, -3}} {
		runs := map[string]func() error{
			"latency": func() error { _, err := Latency(w, []int{1024}, c.warmup, c.iters, nil); return err },
			"bw":      func() error { _, err := Bandwidth(w, []int{1024}, c.warmup, c.iters, 4, 0); return err },
			"bibw":    func() error { _, err := BiBandwidth(w, []int{1024}, c.warmup, c.iters, 4); return err },
			"bcast": func() error {
				_, err := CollectiveLatency(w, "bcast", 1024, c.warmup, c.iters, nil)
				return err
			},
		}
		for name, run := range runs {
			if err := run(); err == nil || !strings.Contains(err.Error(), "iters >= 1") {
				t.Errorf("%s with warmup=%d iters=%d: %v, want an iters error", name, c.warmup, c.iters, err)
			}
		}
	}
}

func TestDefaultSizes(t *testing.T) {
	s := DefaultSizes()
	if s[0] != 256<<10 || s[len(s)-1] != 32<<20 || len(s) != 8 {
		t.Fatalf("sweep wrong: %v", s)
	}
}

func TestAlltoallAndAllreduce(t *testing.T) {
	base := newW(t, hw.FronteraLiquid(), 4, 1, core.Config{})
	comp := newW(t, hw.FronteraLiquid(), 4, 1, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8})

	a0, err := CollectiveLatency(base, "alltoall", 2<<20, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := CollectiveLatency(comp, "alltoall", 2<<20, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Latency >= a0.Latency {
		t.Fatalf("compressed alltoall should win on FDR: %v vs %v", a1.Latency, a0.Latency)
	}

	r0, err := CollectiveLatency(base, "allreduce", 2<<20, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := CollectiveLatency(comp, "allreduce", 2<<20, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Latency >= r0.Latency {
		t.Fatalf("compressed allreduce should win on FDR: %v vs %v", r1.Latency, r0.Latency)
	}
	if a1.Ratio < 3.9 || r1.Ratio < 3.9 {
		t.Fatalf("ZFP r8 ratio should be 4: %v %v", a1.Ratio, r1.Ratio)
	}
}

func TestAlltoallvDeterministicAndCompressible(t *testing.T) {
	// The ragged vector collective: same seeds must give the same
	// simulated latency, and compression must win on smooth data.
	base := newW(t, hw.FronteraLiquid(), 4, 1, core.Config{})
	comp := newW(t, hw.FronteraLiquid(), 4, 1, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8})

	v0, err := CollectiveLatency(base, "alltoallv", 2<<20, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := CollectiveLatency(comp, "alltoallv", 2<<20, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Latency >= v0.Latency {
		t.Fatalf("compressed alltoallv should win on FDR: %v vs %v", v1.Latency, v0.Latency)
	}
	if v1.Ratio < 3.9 {
		t.Fatalf("ZFP r8 ratio should be 4: %v", v1.Ratio)
	}
	again, err := CollectiveLatency(newW(t, hw.FronteraLiquid(), 4, 1, core.Config{}), "alltoallv", 2<<20, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.Latency != v0.Latency {
		t.Fatalf("alltoallv latency not deterministic: %v vs %v", again.Latency, v0.Latency)
	}
	if _, err := CollectiveLatency(base, "alltoallv", 4, 0, 1, nil); err == nil {
		t.Fatal("bytes < 8 should fail")
	}
}

func TestBiBandwidthExceedsUnidirectional(t *testing.T) {
	// Full-duplex adapters: bidirectional aggregate beats one direction.
	w := newW(t, hw.Longhorn(), 2, 1, core.Config{})
	uni, err := Bandwidth(w, []int{4 << 20}, 1, 2, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := BiBandwidth(w, []int{4 << 20}, 1, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if bi[0].BandwidthGBps <= uni[0].BandwidthGBps*1.5 {
		t.Fatalf("bibw %v should approach 2x unidirectional %v",
			bi[0].BandwidthGBps, uni[0].BandwidthGBps)
	}
	if _, err := BiBandwidth(newW(t, hw.Longhorn(), 1, 1, core.Config{}), []int{1024}, 0, 1, 4); err == nil {
		t.Fatal("1 rank should fail")
	}
}

func TestReduceGatherScatterLatencies(t *testing.T) {
	base := newW(t, hw.Longhorn(), 2, 2, core.Config{})
	comp := newW(t, hw.Longhorn(), 2, 2,
		core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8, Threshold: 256 << 10})
	const msg = 2 << 20
	for _, name := range []string{"reduce", "gather", "scatter"} {
		f := func(w *mpi.World) (CollResult, error) { return CollectiveLatency(w, name, msg, 1, 2, nil) }
		b, err := f(base)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		c, err := f(comp)
		if err != nil {
			t.Fatalf("%s compressed: %v", name, err)
		}
		if b.Latency <= 0 || c.Latency <= 0 {
			t.Fatalf("%s: degenerate latencies %v %v", name, b.Latency, c.Latency)
		}
		// ZFP r8 cuts the wire bytes 4x; all three involve inter-node
		// rendezvous transfers above the threshold, so it must help.
		if c.Latency >= b.Latency {
			t.Errorf("%s: compression should help: %v vs %v", name, c.Latency, b.Latency)
		}
	}
}

// TestCollectiveTable: every table row runs, names are unique (ombrun's
// -bench flag dispatches on them), and an unknown name lists the table.
func TestCollectiveTable(t *testing.T) {
	w := newW(t, hw.Longhorn(), 2, 2, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 16 << 10})
	seen := map[string]bool{}
	for _, name := range Collectives() {
		if seen[name] {
			t.Errorf("collective %q listed twice", name)
		}
		seen[name] = true
		res, err := CollectiveLatency(w, name, 64<<10, 0, 1, nil)
		if err != nil || res.Latency <= 0 || res.Bytes != 64<<10 {
			t.Errorf("%s: %+v, %v", name, res, err)
		}
	}
	if _, err := CollectiveLatency(w, "allscatter", 64<<10, 0, 1, nil); err == nil || !strings.Contains(err.Error(), "alltoallv") {
		t.Errorf("unknown collective: %v, want an error listing the table", err)
	}
}

// The collective fast-path gates: the 4x2 Longhorn world with MPC-OPT and
// dummy data, one warm-up and three measured iterations of the named row,
// the world's allreduce pinned to algo. cache < 0 turns the compress-once
// cache off; chunk > 0 pipelines rendezvous in chunks.
func fastPathArm(t *testing.T, name string, algo sched.AllreduceAlgo, size, cache, chunk int) (simtime.Duration, core.CacheStats) {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Allreduce: algo,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, CacheEntries: cache, PipelineChunkBytes: chunk}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := CollectiveLatency(w, name, size, 1, 3, nil)
	if err != nil {
		t.Fatalf("%s (%v) at %d B: %v", name, algo, size, err)
	}
	var cs core.CacheStats
	for i := 0; i < w.Size(); i++ {
		cs.Add(w.Rank(i).Engine.CacheSnapshot())
	}
	return res.Latency, cs
}

// TestRingAllreduceBeatsBlockingRing: compress once, relay the wire payload,
// reduce while the next chunk is in flight — together at least a quarter off
// the whole-block ring that recompresses at every hop. The gap only opens
// once blocks are large enough to chunk (-8..-10 % at 1 MiB and below).
func TestRingAllreduceBeatsBlockingRing(t *testing.T) {
	const size = 2 << 20
	before, _ := fastPathArm(t, "allreduce", sched.AllreduceRingBlocking, size, -1, 0)
	after, _ := fastPathArm(t, "allreduce", sched.AllreduceRing, size, 0, 0)
	if gain := 1 - float64(after)/float64(before); gain < 0.25 {
		t.Errorf("ring allreduce at %d B: %.1f %% under the blocking ring with the cache off, want >= 25 %% (%v vs %v)",
			size, 100*gain, after, before)
	}
}

// TestRecursiveDoublingCrossover: log2 P whole-vector rounds win the latency
// regime, the bandwidth-optimal ring wins the large one — with both chunk-
// pipelined, as the tuner compares them.
func TestRecursiveDoublingCrossover(t *testing.T) {
	const chunk = 128 << 10
	for _, c := range []struct {
		size   int
		rdWins bool
	}{{32 << 10, true}, {4 << 20, false}} {
		rd, _ := fastPathArm(t, "allreduce", sched.AllreduceRecursiveDoubling, c.size, 0, chunk)
		ring, _ := fastPathArm(t, "allreduce", sched.AllreduceRing, c.size, 0, chunk)
		if (rd < ring) != c.rdWins || rd == ring {
			t.Errorf("at %d B rd takes %v and the ring %v; want rd faster: %v", c.size, rd, ring, c.rdWins)
		}
	}
}

// TestBcastHierServedFromCache: the leaders' fan-out of an unchanged root
// buffer compresses once and is served from the cache after that.
func TestBcastHierServedFromCache(t *testing.T) {
	if _, cs := fastPathArm(t, "bcast-hier", sched.AllreduceAuto, 1<<20, 0, 0); cs.Hits == 0 {
		t.Errorf("hierarchical bcast recorded no compress-once hits: %+v", cs)
	}
}

// TestBcastCacheHitsIgnoreScheduling pins which sends the compress-once
// cache serves in a 4x2 MPC Bcast: every rank's hits, misses and
// invalidations read the same in five runs under each of GOMAXPROCS 1, 2
// and 4. The root compresses once and is served three times (one warm-up
// and three measured iterations). Latency is not compared: arrival order
// on the shared calendars still moves it run to run (ROADMAP item 4). One
// word is the smallest message that hits.
func TestBcastCacheHitsIgnoreScheduling(t *testing.T) {
	gen, err := DatasetData("msg_sppm")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []core.CacheStats
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 5; run++ {
			w := newW(t, hw.Longhorn(), 4, 2, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC})
			if _, err := CollectiveLatency(w, "bcast", 4, 1, 3, gen); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < w.Size(); r++ {
				cs := w.Rank(r).Engine.CacheSnapshot()
				got := core.CacheStats{Hits: cs.Hits, Misses: cs.Misses, Invalidations: cs.Invalidations}
				if len(first) < w.Size() {
					first = append(first, got)
				} else if got != first[r] {
					t.Errorf("GOMAXPROCS=%d run %d rank %d: hits/misses/invalidations %d/%d/%d, first run read %d/%d/%d",
						procs, run, r, got.Hits, got.Misses, got.Invalidations, first[r].Hits, first[r].Misses, first[r].Invalidations)
				}
			}
		}
	}
	if first[0].Hits != 3 || first[0].Misses != 1 {
		t.Errorf("root: %d hits and %d misses, want 3 and 1", first[0].Hits, first[0].Misses)
	}
}

// TestCodecWallIsBatchTime holds HostStats.CodecWall to what ombrun's
// wall-clock line says it is: the time codec batches ran, not the time
// ranks queued for the shared pool. Sixteen ranks contend for one pool
// in a 4 MiB allgather (256 KiB blocks of msg_sp, dense enough that the
// codec dominates), and batches run one at a time, so the sum over ranks
// cannot exceed the run's wall time. Timed from before the pool's lock,
// the sum reads two to three times the wall time.
func TestCodecWallIsBatchTime(t *testing.T) {
	gen, err := DatasetData("msg_sp")
	if err != nil {
		t.Fatal(err)
	}
	w := newW(t, hw.FronteraLiquid(), 8, 2, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC})
	start := time.Now()
	if _, err := CollectiveLatency(w, "allgather", 256<<10, 0, 2, gen); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	var host core.HostStats
	for r := 0; r < w.Size(); r++ {
		host.Add(w.Rank(r).Engine.HostSnapshot())
	}
	if host.CodecRuns == 0 {
		t.Fatal("no codec batch ran")
	}
	if host.CodecWall > wall {
		t.Fatalf("codec batches summed to %v over %d runs in a %v run", host.CodecWall, host.CodecRuns, wall)
	}
	t.Logf("codec %v over %d batches in a %v run", host.CodecWall, host.CodecRuns, wall)
}
