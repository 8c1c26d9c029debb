package tune

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// flatPoint is an 8-rank flat world point (ppn=1) at the given size.
func flatPoint(bytes int, op uint64) sched.TunePoint {
	return sched.TunePoint{Bytes: bytes, Ranks: 8, Nodes: 8, PPN: 1, Op: op}
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

// runEpoch plays one epoch against the tuner the way ombrun does:
// every rank picks, observes the latency table's value for the picked
// algorithm (with a per-rank sub-quantum wobble to mimic calendar
// swaps), then the world advances.
func runEpoch(tn *Tuner, p sched.TunePoint, lat map[sched.AllreduceAlgo]int64) sched.AllreduceAlgo {
	algo := tn.PickAllreduce(p)
	for rank := 0; rank < p.Ranks; rank++ {
		tn.ObserveAllreduce(p, algo, simtime.Duration(lat[algo]+int64(rank%3)*17))
	}
	tn.Advance()
	return algo
}

func TestExploreThenExploit(t *testing.T) {
	tn := NewTuner(Options{Seed: 0})
	p := flatPoint(1<<20, 1)
	lat := map[sched.AllreduceAlgo]int64{
		sched.AllreduceRing:              3_000_000,
		sched.AllreduceRecursiveDoubling: 1_000_000,
		sched.AllreduceRabenseifner:      2_000_000,
	}
	seen := make(map[sched.AllreduceAlgo]bool)
	for epoch := 0; epoch < 3; epoch++ {
		p.Op = uint64(epoch)
		seen[runEpoch(tn, p, lat)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("exploration covered %d candidates, want all 3", len(seen))
	}
	for epoch := 3; epoch < 8; epoch++ {
		p.Op = uint64(epoch)
		if got := runEpoch(tn, p, lat); got != sched.AllreduceRecursiveDoubling {
			t.Fatalf("epoch %d picked %s, want rd (the measured winner)", epoch, got)
		}
	}
}

func TestAdvanceFoldOrderInvariance(t *testing.T) {
	p := flatPoint(256<<10, 7)
	build := func(reverse bool) []byte {
		tn := NewTuner(Options{Seed: 3})
		var obs []func()
		for rank := 0; rank < p.Ranks; rank++ {
			r := rank
			obs = append(obs,
				func() {
					tn.ObserveAllreduce(p, sched.AllreduceRing, simtime.Duration(900_000+int64(r)*31))
				},
				func() {
					tn.ObserveAllreduce(p, sched.AllreduceRabenseifner, simtime.Duration(700_000+int64(r)*13))
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
		tn := NewTuner(Options{Seed: 0})
		for rank := 0; rank < p.Ranks; rank++ {
			tn.ObserveAllreduce(p, sched.AllreduceRing, simtime.Duration(500_000+extra))
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
	tn := NewTuner(Options{Seed: 0})
	p := flatPoint(1<<20, 0)
	lat := map[sched.AllreduceAlgo]int64{
		sched.AllreduceRing:              3_000_000,
		sched.AllreduceRecursiveDoubling: 1_000_000,
		sched.AllreduceRabenseifner:      2_000_000,
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

	warm := NewTuner(Options{Seed: 0, Table: tab})
	// All candidates carry samples, so the very first pick exploits.
	if got := warm.PickAllreduce(p); got != sched.AllreduceRecursiveDoubling {
		t.Fatalf("warm pick = %s, want rd", got)
	}
	// An unseen key still explores, from where a cold tuner starts.
	q := sched.TunePoint{Bytes: 4 << 20, Ranks: 16, Nodes: 16, PPN: 1, Op: 9}
	if got, cold := warm.PickAllreduce(q), NewTuner(Options{Seed: 0}).PickAllreduce(q); got != cold {
		t.Fatalf("warm-started tuner picks %s on an unseen key, a cold one explores %s first", got, cold)
	}
}

func TestSeedRotatesExploration(t *testing.T) {
	p := flatPoint(512<<10, 0)
	picks := make(map[sched.AllreduceAlgo]bool)
	for seed := int64(0); seed < 3; seed++ {
		tn := NewTuner(Options{Seed: seed})
		picks[tn.PickAllreduce(p)] = true
	}
	if len(picks) < 2 {
		t.Fatalf("seeds 0..2 all explored the same first candidate; want rotation")
	}
	// And a fixed seed is exactly reproducible.
	a := NewTuner(Options{Seed: 42})
	b := NewTuner(Options{Seed: 42})
	if x, y := a.PickAllreduce(p), b.PickAllreduce(p); x != y {
		t.Fatalf("same seed diverged: %s vs %s", x, y)
	}
}

func TestTwoLevelOnlyOnHierarchical(t *testing.T) {
	flat := flatPoint(1<<20, 0)
	hier := sched.TunePoint{Bytes: 1 << 20, Ranks: 8, Nodes: 4, PPN: 2, Op: 0}
	for _, a := range candidatesFor(flat) {
		if a == sched.AllreduceTwoLevel {
			t.Fatal("two-level offered on a flat topology")
		}
	}
	found := false
	for _, a := range candidatesFor(hier) {
		if a == sched.AllreduceTwoLevel {
			found = true
		}
	}
	if !found {
		t.Fatal("two-level missing from the hierarchical candidate set")
	}
}

func TestStatsLineDeterministic(t *testing.T) {
	tn := NewTuner(Options{Seed: 0})
	p := flatPoint(1<<20, 0)
	lat := map[sched.AllreduceAlgo]int64{
		sched.AllreduceRing:              3_000_000,
		sched.AllreduceRecursiveDoubling: 1_000_000,
		sched.AllreduceRabenseifner:      2_000_000,
	}
	for epoch := 0; epoch < 4; epoch++ {
		p.Op = uint64(epoch)
		runEpoch(tn, p, lat)
	}
	line := tn.StatsLine()
	want := "# tune: epochs=4 entries=1 picks={ring:1 rd:2 rab:1}"
	if line != want {
		t.Fatalf("stats line:\n got %q\nwant %q", line, want)
	}
}

func TestParseTableRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		tn := NewTuner(Options{Seed: 1})
		p := flatPoint(1<<20, 0)
		runEpoch(tn, p, map[sched.AllreduceAlgo]int64{
			sched.AllreduceRing: 1, sched.AllreduceRecursiveDoubling: 1, sched.AllreduceRabenseifner: 1,
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
		"wrong version":  []byte(`{"version": 4, "entries": []}`),
		"v1 table":       []byte(`{"version":1,"seed":0,"entries":[{"size_class":10,"ranks":4,"topo":"flat","ratio_milli":1000,"chunk_bytes":65536,"codec_hint":"none","scores":[]}]}`),
		"v2 table":       []byte(`{"version":2,"seed":0,"entries":[{"size_class":20,"ranks":8,"topo":"flat","ratio_milli":1430,"scores":[{"algo":"rd","ema_nanos":1048576,"samples":3}]}]}`),
		"unknown field":  []byte(`{"version": 3, "entries": [], "bogus": 1}`),
		"v2 column":      []byte(`{"version":3,"entries":[{"size_class":10,"ranks":4,"topo":"flat","ratio_milli":1000,"scores":[]}]}`),
		"trailing data":  append(append([]byte{}, valid...), []byte("{}")...),
		"bad topo":       []byte(`{"version":3,"entries":[{"size_class":10,"ranks":4,"topo":"mesh","scores":[]}]}`),
		"bad algo":       []byte(`{"version":3,"entries":[{"size_class":10,"ranks":4,"topo":"flat","scores":[{"algo":"warp","ema_nanos":1,"samples":1}]}]}`),
		"negative ranks": []byte(`{"version":3,"entries":[{"size_class":10,"ranks":-1,"topo":"flat","scores":[]}]}`),
		"duplicate key":  []byte(`{"version":3,"entries":[{"size_class":10,"ranks":4,"topo":"flat","scores":[]},{"size_class":10,"ranks":4,"topo":"flat","scores":[]}]}`),
	}
	for name, data := range cases {
		if _, err := ParseTable(data); !errors.Is(err, ErrBadTable) {
			t.Errorf("%s: err = %v, want ErrBadTable", name, err)
		}
	}
	for _, name := range []string{"v1 table", "v2 table"} {
		if _, err := ParseTable(cases[name]); err == nil || !strings.Contains(err.Error(), "re-tune") {
			t.Errorf("a %s must be rejected with a re-tune hint, got %v", name, err)
		}
	}
}

func TestMarshalFixpoint(t *testing.T) {
	tn := NewTuner(Options{Seed: 9})
	lat := map[sched.AllreduceAlgo]int64{
		sched.AllreduceRing: 2_000_000, sched.AllreduceRecursiveDoubling: 1_000_000,
		sched.AllreduceRabenseifner: 3_000_000, sched.AllreduceTwoLevel: 1_500_000,
	}
	points := []sched.TunePoint{
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
