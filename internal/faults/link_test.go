package faults

import (
	"testing"

	"mpicomp/internal/simtime"
)

func TestLinkFateDeterministicAndSymmetric(t *testing.T) {
	cfg := Config{Seed: 7, LinkFlapRate: 0.3}
	a := New(cfg)
	b := New(cfg)
	for x := 0; x < 6; x++ {
		for y := 0; y < 6; y++ {
			fa := a.linkFate(x, y)
			if fb := b.linkFate(x, y); fa != fb {
				t.Fatalf("fate(%d,%d) differs across injectors: %+v vs %+v", x, y, fa, fb)
			}
			if sym := a.linkFate(y, x); fa != sym {
				t.Fatalf("fate(%d,%d) not symmetric: %+v vs %+v", x, y, fa, sym)
			}
		}
	}
	if f := a.linkFate(3, 3); f.Flap {
		t.Fatalf("intra-node pair drew a link fate: %+v", f)
	}
}

// TestLinkOutageWindowAndHeal: a hard outage of one link is a partition
// plan over two single-node groups. Link 0-1 is down exactly inside
// [at, heal), and no other link is touched.
func TestLinkOutageWindowAndHeal(t *testing.T) {
	cfg := Config{
		PartitionGroups: [][]int{{0}, {1}},
		PartitionAt:     100 * simtime.Microsecond,
		PartitionHeal:   700 * simtime.Microsecond,
	}
	inj := New(cfg)
	down, heal := simtime.Time(cfg.PartitionAt), simtime.Time(cfg.PartitionHeal)
	if inj.LinkDown(0, 1, down-1) {
		t.Fatal("down before onset")
	}
	if !inj.LinkDown(0, 1, down) || !inj.LinkDown(1, 0, heal-1) {
		t.Fatal("not down inside the outage window")
	}
	if inj.LinkDown(0, 1, heal) {
		t.Fatal("heal is not deterministic: still down at the heal instant")
	}
	if inj.LinkDown(0, 2, down) || inj.LinkDown(1, 2, down) {
		t.Fatal("the outage reached a link outside the plan")
	}
}

func TestLinkFlapDuty(t *testing.T) {
	cfg := Config{Seed: 1, LinkFlapRate: 1, FlapPeriod: 100 * simtime.Microsecond, FlapDuty: 0.25}
	inj := New(cfg)
	f := inj.linkFate(0, 1)
	if !f.Flap || f.Phase < 0 || f.Phase >= f.Period {
		t.Fatalf("flap fate wrong: %+v", f)
	}
	// Sample one full cycle at 1us granularity: the down fraction must
	// match the duty, and the pattern must repeat each period.
	down := 0
	for us := 0; us < 100; us++ {
		at := simtime.Time(0).Add(simtime.Duration(us) * simtime.Microsecond)
		if f.IsDown(at) {
			down++
		}
		if f.IsDown(at) != f.IsDown(at.Add(f.Period)) {
			t.Fatalf("flap pattern not periodic at %v", at)
		}
	}
	if down != 25 {
		t.Fatalf("duty 0.25 over a 100us period: %d samples down, want 25", down)
	}
}

func TestPartitionWindow(t *testing.T) {
	cfg := Config{
		Seed:            3,
		PartitionGroups: [][]int{{0, 1}, {2, 3}},
		PartitionAt:     500 * simtime.Microsecond,
		PartitionHeal:   simtime.Duration(1500 * simtime.Microsecond),
	}
	inj := New(cfg)
	mid := simtime.Time(simtime.Millisecond)
	if inj.LinkDown(0, 1, mid) || inj.LinkDown(2, 3, mid) {
		t.Fatal("intra-group link severed")
	}
	if !inj.LinkDown(0, 2, mid) || !inj.LinkDown(1, 3, mid) || !inj.LinkDown(2, 0, mid) {
		t.Fatal("cross-group link up inside the partition window")
	}
	if inj.LinkDown(0, 2, simtime.Time(cfg.PartitionAt)-1) {
		t.Fatal("partitioned before onset")
	}
	if inj.LinkDown(0, 2, simtime.Time(cfg.PartitionHeal)) {
		t.Fatal("partitioned at heal instant")
	}
	// Node 4 appears in no group: all its links survive.
	if inj.LinkDown(0, 4, mid) || inj.LinkDown(4, 2, mid) {
		t.Fatal("unlisted node lost links")
	}
}

func TestPartitionHealDefault(t *testing.T) {
	cfg := Config{Seed: 1, PartitionGroups: [][]int{{0}, {1}}, PartitionAt: simtime.Duration(simtime.Millisecond)}
	inj := New(cfg)
	eff := inj.Config()
	if eff.PartitionHeal != cfg.PartitionAt+DefaultPartitionSpan {
		t.Fatalf("heal default: %v", eff.PartitionHeal)
	}
}

// TestLinkLostCountsAndFateCounters: every refused attempt counts one
// LinkDrop, and ResetStats zeroes the per-event count while the per-run
// fate counters survive.
func TestLinkLostCountsAndFateCounters(t *testing.T) {
	cfg := Config{CrashRate: 1, PartitionGroups: [][]int{{0}, {1}},
		PartitionAt: 100 * simtime.Microsecond, PartitionHeal: 700 * simtime.Microsecond}
	inj := New(cfg)
	if _, _, failed := inj.RankFate(0); !failed || inj.Stats().Crashes != 1 {
		t.Fatalf("crash rate 1 did not fate rank 0: %+v", inj.Stats())
	}
	down, heal := simtime.Time(cfg.PartitionAt), simtime.Time(cfg.PartitionHeal)
	if !inj.LinkLost(0, 1, down) || !inj.LinkLost(1, 0, down) {
		t.Fatal("LinkLost false inside outage")
	}
	if inj.LinkLost(0, 1, heal) {
		t.Fatal("LinkLost true after heal")
	}
	s := inj.Stats()
	if s.LinkDrops != 2 {
		t.Fatalf("LinkDrops: %d, want 2", s.LinkDrops)
	}
	inj.ResetStats()
	s = inj.Stats()
	if s.LinkDrops != 0 || s.Crashes != 1 {
		t.Fatalf("after reset: drops=%d crashes=%d (fates must survive, events must not)", s.LinkDrops, s.Crashes)
	}
}

func TestLinkFaultsEnabled(t *testing.T) {
	if (Config{}).LinkFaults() {
		t.Fatal("zero config reports link faults")
	}
	if !(Config{LinkFlapRate: 0.1}).Enabled() {
		t.Fatal("flap-only config not Enabled")
	}
	if New(Config{PartitionGroups: [][]int{{0}, {1}}}) == nil {
		t.Fatal("partition-only config yields nil injector")
	}
	var nilInj *Injector
	if nilInj.LinkDown(0, 1, 0) || nilInj.LinkLost(0, 1, 0) {
		t.Fatal("nil injector takes links down")
	}
	if nilInj.linkFate(0, 1).Flap {
		t.Fatal("nil injector draws link fates")
	}
}
