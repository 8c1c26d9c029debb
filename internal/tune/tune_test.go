package tune

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/omb"
	"mpicomp/internal/simtime"
)

// flatPoint is an 8-rank flat world point (ppn=1) at the given size.
func flatPoint(bytes int, op uint64) mpi.TunePoint {
	return mpi.TunePoint{Bytes: bytes, Ranks: 8, Nodes: 8, PPN: 1, Op: op}
}

func TestSizeClass(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := sizeClass(c.n); got != c.want {
			t.Errorf("sizeClass(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestEstimateSample(t *testing.T) {
	// Constant words: every XOR delta is zero, so each word after the
	// first costs one tag byte — ratio approaches 4x.
	smooth := make([]byte, 4096)
	for i := 0; i < len(smooth); i += 4 {
		binary.LittleEndian.PutUint32(smooth[i:], 0x3f800000)
	}
	orig, est := estimateSample(smooth)
	if orig != 4096 {
		t.Fatalf("orig = %d, want 4096", orig)
	}
	if ratio := orig * 1000 / est; ratio < 3000 {
		t.Errorf("smooth ratio = %d milli, want >= 3000", ratio)
	}

	// Words that flip their high byte every step leave no leading
	// zeros to elide: ratio stays at (or below) 1:1 before the floor.
	noisy := make([]byte, 4096)
	for i := 0; i < len(noisy); i += 4 {
		binary.LittleEndian.PutUint32(noisy[i:], uint32(i)*0x9e3779b9)
	}
	orig, est = estimateSample(noisy)
	if ratio := orig * 1000 / est; ratio > 1100 {
		t.Errorf("noisy ratio = %d milli, want <= 1100", ratio)
	}

	// Degenerate inputs never divide by zero.
	for _, n := range []int{0, 1, 3, 4, 7} {
		o, e := estimateSample(make([]byte, n))
		if o < 0 || e < 0 || (o > 0 && e == 0) {
			t.Errorf("estimateSample(len %d) = (%d, %d)", n, o, e)
		}
	}
}

// runEpoch plays one epoch against the tuner the way ombrun does:
// every rank probes if asked, picks, observes the latency table's
// value for the picked algorithm (with a per-rank sub-quantum wobble
// to mimic calendar swaps), then the world advances.
func runEpoch(tn *Tuner, p mpi.TunePoint, lat map[mpi.AllreduceAlgo]int64) mpi.AllreduceAlgo {
	if tn.NeedProbe(p) {
		sample := make([]byte, 1024)
		for i := 0; i < len(sample); i += 4 {
			binary.LittleEndian.PutUint32(sample[i:], 0x3f800000+uint32(i/64))
		}
		for rank := 0; rank < p.Ranks; rank++ {
			tn.ObserveProbeSample(p, sample)
		}
	}
	algo := tn.PickAllreduce(p)
	for rank := 0; rank < p.Ranks; rank++ {
		tn.ObserveAllreduce(p, algo, simtime.Duration(lat[algo]+int64(rank%3)*17))
	}
	tn.Advance()
	return algo
}

func TestExploreThenExploit(t *testing.T) {
	tn := NewTuner(Options{Seed: 0, Cluster: hw.Longhorn()})
	p := flatPoint(1<<20, 1)
	lat := map[mpi.AllreduceAlgo]int64{
		mpi.AllreduceRing:              3_000_000,
		mpi.AllreduceRecursiveDoubling: 1_000_000,
		mpi.AllreduceRabenseifner:      2_000_000,
	}
	seen := make(map[mpi.AllreduceAlgo]bool)
	for epoch := 0; epoch < 3; epoch++ {
		p.Op = uint64(epoch)
		seen[runEpoch(tn, p, lat)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("exploration covered %d candidates, want all 3", len(seen))
	}
	for epoch := 3; epoch < 8; epoch++ {
		p.Op = uint64(epoch)
		if got := runEpoch(tn, p, lat); got != mpi.AllreduceRecursiveDoubling {
			t.Fatalf("epoch %d picked %s, want rd (the measured winner)", epoch, got)
		}
	}
}

func TestAdvanceFoldOrderInvariance(t *testing.T) {
	p := flatPoint(256<<10, 7)
	build := func(reverse bool) []byte {
		tn := NewTuner(Options{Seed: 3, Cluster: hw.Longhorn()})
		var obs []func()
		for rank := 0; rank < p.Ranks; rank++ {
			r := rank
			obs = append(obs,
				func() { tn.ObserveProbeSample(p, make([]byte, 512)) },
				func() {
					tn.ObserveAllreduce(p, mpi.AllreduceRing, simtime.Duration(900_000+int64(r)*31))
				},
				func() {
					tn.ObserveAllreduce(p, mpi.AllreduceRabenseifner, simtime.Duration(700_000+int64(r)*13))
				},
			)
		}
		if reverse {
			for i, j := 0, len(obs)-1; i < j; i, j = i+1, j-1 {
				obs[i], obs[j] = obs[j], obs[i]
			}
		}
		for _, f := range obs {
			f()
		}
		tn.NoteCounters(Counters{Compressions: 40, PoolFallbacks: 2})
		tn.Advance()
		out, err := tn.Snapshot().Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return out
	}
	fwd, rev := build(false), build(true)
	if !bytes.Equal(fwd, rev) {
		t.Fatalf("snapshot depends on observation arrival order:\n%s\nvs\n%s", fwd, rev)
	}
}

func TestQuantizeAbsorbsSubQuantumJitter(t *testing.T) {
	p := flatPoint(128<<10, 2)
	build := func(extra int64) []byte {
		tn := NewTuner(Options{Seed: 0, Cluster: hw.Longhorn()})
		for rank := 0; rank < p.Ranks; rank++ {
			tn.ObserveAllreduce(p, mpi.AllreduceRing, simtime.Duration(500_000+extra))
		}
		tn.Advance()
		out, err := tn.Snapshot().Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return out
	}
	// 500000 and 500500 share a latQuantum bucket (499712..500735).
	if !bytes.Equal(build(0), build(500)) {
		t.Fatal("sub-quantum latency jitter leaked into the committed snapshot")
	}
}

func TestWarmStartSkipsProbeAndExploration(t *testing.T) {
	tn := NewTuner(Options{Seed: 0, Cluster: hw.Longhorn()})
	p := flatPoint(1<<20, 0)
	lat := map[mpi.AllreduceAlgo]int64{
		mpi.AllreduceRing:              3_000_000,
		mpi.AllreduceRecursiveDoubling: 1_000_000,
		mpi.AllreduceRabenseifner:      2_000_000,
	}
	for epoch := 0; epoch < 5; epoch++ {
		p.Op = uint64(epoch)
		runEpoch(tn, p, lat)
	}
	data, err := tn.Snapshot().Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	tab, err := ParseTable(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	warm := NewTuner(Options{Seed: 0, Cluster: hw.Longhorn(), Table: tab})
	if warm.NeedProbe(p) {
		t.Fatal("warm-started tuner re-probes a loaded key")
	}
	// All candidates carry samples, so the very first pick exploits.
	if got := warm.PickAllreduce(p); got != mpi.AllreduceRecursiveDoubling {
		t.Fatalf("warm pick = %s, want rd", got)
	}
	// An unseen key still probes and explores.
	q := mpi.TunePoint{Bytes: 4 << 20, Ranks: 16, Nodes: 16, PPN: 1, Op: 9}
	if !warm.NeedProbe(q) {
		t.Fatal("warm-started tuner skipped probing an unseen key")
	}
}

func TestSeedRotatesExploration(t *testing.T) {
	p := flatPoint(512<<10, 0)
	picks := make(map[mpi.AllreduceAlgo]bool)
	for seed := int64(0); seed < 3; seed++ {
		tn := NewTuner(Options{Seed: seed, Cluster: hw.Longhorn()})
		picks[tn.PickAllreduce(p)] = true
	}
	if len(picks) < 2 {
		t.Fatalf("seeds 0..2 all explored the same first candidate; want rotation")
	}
	// And a fixed seed is exactly reproducible.
	a := NewTuner(Options{Seed: 42, Cluster: hw.Longhorn()})
	b := NewTuner(Options{Seed: 42, Cluster: hw.Longhorn()})
	if x, y := a.PickAllreduce(p), b.PickAllreduce(p); x != y {
		t.Fatalf("same seed diverged: %s vs %s", x, y)
	}
}

func TestTwoLevelOnlyOnHierarchical(t *testing.T) {
	flat := flatPoint(1<<20, 0)
	hier := mpi.TunePoint{Bytes: 1 << 20, Ranks: 8, Nodes: 4, PPN: 2, Op: 0}
	for _, a := range candidatesFor(flat) {
		if a == mpi.AllreduceTwoLevel {
			t.Fatal("two-level offered on a flat topology")
		}
	}
	found := false
	for _, a := range candidatesFor(hier) {
		if a == mpi.AllreduceTwoLevel {
			found = true
		}
	}
	if !found {
		t.Fatal("two-level missing from the hierarchical candidate set")
	}
}

func TestCountersDiscountEffectiveRatio(t *testing.T) {
	p := flatPoint(4<<20, 0)
	lat := map[mpi.AllreduceAlgo]int64{
		mpi.AllreduceRing:              1_000_000,
		mpi.AllreduceRecursiveDoubling: 1_000_000,
		mpi.AllreduceRabenseifner:      1_000_000,
	}
	mk := func(c Counters) *Tuner {
		tn := NewTuner(Options{Seed: 0, Cluster: hw.Longhorn()})
		runEpoch(tn, p, lat) // installs a measured ratio > 1
		tn.NoteCounters(c)
		tn.Advance()
		return tn
	}
	healthy := mk(Counters{Compressions: 100})
	degraded := mk(Counters{Compressions: 10, PoolFallbacks: 90})
	h := healthy.PredictNanos(mpi.AllreduceRing, p)
	d := degraded.PredictNanos(mpi.AllreduceRing, p)
	if d <= h {
		t.Fatalf("fallback-heavy counters should raise predicted wire cost: healthy=%d degraded=%d", h, d)
	}
}

func TestRecommendChunkScalesWithMessage(t *testing.T) {
	tn := NewTuner(Options{Seed: 0, Cluster: hw.Longhorn()})
	small := tn.RecommendChunk(flatPoint(256<<10, 0))
	big := tn.RecommendChunk(mpi.TunePoint{Bytes: 64 << 20, Ranks: 2, Nodes: 2, PPN: 1})
	if small != chunkCandidates[0] {
		t.Errorf("small-message chunk = %d, want %d (alpha-bound)", small, chunkCandidates[0])
	}
	if big <= small {
		t.Errorf("large-message chunk %d not above small-message chunk %d", big, small)
	}
}

func TestStatsLineDeterministic(t *testing.T) {
	tn := NewTuner(Options{Seed: 0, Cluster: hw.Longhorn()})
	p := flatPoint(1<<20, 0)
	lat := map[mpi.AllreduceAlgo]int64{
		mpi.AllreduceRing:              3_000_000,
		mpi.AllreduceRecursiveDoubling: 1_000_000,
		mpi.AllreduceRabenseifner:      2_000_000,
	}
	for epoch := 0; epoch < 4; epoch++ {
		p.Op = uint64(epoch)
		runEpoch(tn, p, lat)
	}
	line := tn.StatsLine()
	want := "# tune: epochs=4 probes=8 entries=1 picks={ring:1 rd:2 rab:1} fallback_milli=0"
	if line != want {
		t.Fatalf("stats line:\n got %q\nwant %q", line, want)
	}
}

func TestParseTableRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		tn := NewTuner(Options{Seed: 1, Cluster: hw.Longhorn()})
		p := flatPoint(1<<20, 0)
		runEpoch(tn, p, map[mpi.AllreduceAlgo]int64{
			mpi.AllreduceRing: 1, mpi.AllreduceRecursiveDoubling: 1, mpi.AllreduceRabenseifner: 1,
		})
		out, err := tn.Snapshot().Marshal()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return out
	}()
	if _, err := ParseTable(valid); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}

	cases := map[string][]byte{
		"not json":       []byte("not json"),
		"wrong version":  []byte(`{"version": 2, "seed": 0, "entries": []}`),
		"unknown field":  []byte(`{"version": 1, "seed": 0, "entries": [], "bogus": 1}`),
		"trailing data":  append(append([]byte{}, valid...), []byte("{}")...),
		"bad topo":       []byte(`{"version":1,"seed":0,"entries":[{"size_class":10,"ranks":4,"topo":"mesh","ratio_milli":1000,"chunk_bytes":0,"codec_hint":"","scores":[]}]}`),
		"bad algo":       []byte(`{"version":1,"seed":0,"entries":[{"size_class":10,"ranks":4,"topo":"flat","ratio_milli":1000,"chunk_bytes":0,"codec_hint":"","scores":[{"algo":"warp","ema_nanos":1,"samples":1}]}]}`),
		"negative ranks": []byte(`{"version":1,"seed":0,"entries":[{"size_class":10,"ranks":-1,"topo":"flat","ratio_milli":1000,"chunk_bytes":0,"codec_hint":"","scores":[]}]}`),
		"duplicate key":  []byte(`{"version":1,"seed":0,"entries":[{"size_class":10,"ranks":4,"topo":"flat","ratio_milli":1000,"chunk_bytes":0,"codec_hint":"","scores":[]},{"size_class":10,"ranks":4,"topo":"flat","ratio_milli":1000,"chunk_bytes":0,"codec_hint":"","scores":[]}]}`),
	}
	for name, data := range cases {
		if _, err := ParseTable(data); !errors.Is(err, ErrBadTable) {
			t.Errorf("%s: err = %v, want ErrBadTable", name, err)
		}
	}
}

func TestMarshalFixpoint(t *testing.T) {
	tn := NewTuner(Options{Seed: 9, Cluster: hw.Longhorn()})
	lat := map[mpi.AllreduceAlgo]int64{
		mpi.AllreduceRing: 2_000_000, mpi.AllreduceRecursiveDoubling: 1_000_000,
		mpi.AllreduceRabenseifner: 3_000_000, mpi.AllreduceTwoLevel: 1_500_000,
	}
	points := []mpi.TunePoint{
		flatPoint(64<<10, 0),
		flatPoint(4<<20, 1),
		{Bytes: 1 << 20, Ranks: 6, Nodes: 3, PPN: 2, Op: 2},
	}
	for epoch := 0; epoch < 4; epoch++ {
		for i := range points {
			points[i].Op = uint64(epoch*len(points) + i)
			runEpoch(tn, points[i], lat)
		}
	}
	out1, err := tn.Snapshot().Marshal()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	tab, err := ParseTable(out1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out2, err := tab.Marshal()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(out1, out2) {
		t.Fatalf("marshal is not a fixpoint:\n%s\nvs\n%s", out1, out2)
	}
}

// TestTunerMatchesOracleOnFlatWorlds drives a tuner over live worlds the
// way ombrun does — one epoch per measurement, counters folded at each
// world-synchronous Advance — on the 8x1 Longhorn cells of the latency, mid
// and bandwidth regimes (MPC-OPT, 128K chunks, dummy data). The converged
// pick must land within 10 % of the fastest pinned schedule, the committed
// snapshot must be byte-identical across codec worker counts 1/2/8, and a
// tuner warm-started from the persisted table must answer every cell with
// the same pick and no probe. Flat layouts only: on hierarchical ones the
// EMAs are not yet a function of virtual time alone (ROADMAP item 1).
func TestTunerMatchesOracleOnFlatWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("a simulated-latency gate: 4 s here, 200 s under the -race -short pass, which has nothing to add to it")
	}
	const nodes, seed = 8, 7
	cells := []int{32 << 10, 1 << 20, 4 << 20}
	world := func(workers int, algo mpi.AllreduceAlgo, tn *Tuner) *mpi.World {
		opt := mpi.Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: 1, Allreduce: algo,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				PipelineChunkBytes: 128 << 10, Workers: workers}}
		if tn != nil {
			opt.Tuner = tn
		}
		w, err := mpi.NewWorld(opt)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	measure := func(w *mpi.World, bytes int) simtime.Duration {
		res, err := omb.CollectiveLatency(w, "allreduce", bytes, 1, 2, nil)
		if err != nil {
			t.Fatalf("allreduce at %d B: %v", bytes, err)
		}
		return res.Latency
	}

	snapshots := map[int][]byte{}
	var tuned *Tuner
	for _, workers := range []int{1, 2, 8} {
		tn := NewTuner(Options{Seed: seed, Cluster: hw.Longhorn()})
		for _, bytes := range cells {
			w := world(workers, mpi.AllreduceAuto, tn)
			// Every candidate explored once, then two epochs to settle.
			for e := 0; e < len(candidatesFor(flatPoint(bytes, 0)))+2; e++ {
				measure(w, bytes)
				tn.NoteCounters(WorldCounters(w))
				tn.Advance()
			}
		}
		snap, err := tn.Snapshot().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		snapshots[workers] = snap
		if workers == 1 {
			tuned = tn
		} else if !bytes.Equal(snap, snapshots[1]) {
			t.Errorf("tuner snapshot differs between workers=1 and workers=%d:\n%s\nvs\n%s", workers, snapshots[1], snap)
		}
	}

	tab, err := ParseTable(snapshots[1])
	if err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	warm := NewTuner(Options{Seed: seed, Cluster: hw.Longhorn(), Table: tab})
	for _, bytes := range cells {
		p := flatPoint(bytes, 0)
		lat := map[mpi.AllreduceAlgo]simtime.Duration{}
		oracle := mpi.AllreduceAuto
		for _, algo := range candidatesFor(p) {
			lat[algo] = measure(world(1, algo, nil), bytes)
			if oracle == mpi.AllreduceAuto || lat[algo] < lat[oracle] {
				oracle = algo
			}
		}
		pick := tuned.PickAllreduce(p)
		if gap := float64(lat[pick])/float64(lat[oracle]) - 1; gap > 0.10 {
			t.Errorf("%d B: pick %s (%v) is %.1f %% over oracle %s (%v), want <= 10 %%",
				bytes, pick, lat[pick], 100*gap, oracle, lat[oracle])
		}
		if warm.NeedProbe(p) {
			t.Errorf("%d B: warm-started tuner wants to re-probe", bytes)
		}
		if wp := warm.PickAllreduce(p); wp != pick {
			t.Errorf("%d B: warm pick %s != converged pick %s", bytes, wp, pick)
		}
	}
}
