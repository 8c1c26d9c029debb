package netsim

import (
	"testing"

	"mpicomp/internal/faults"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

func TestLinkUpIdentityWithoutFaults(t *testing.T) {
	// Without an injector every link carries traffic (the transport asks
	// the fabric's injector, which is nil here) and the routing view is the
	// identity (nil).
	f := NewFabric(hw.Longhorn(), 4)
	if f.Faults().LinkDown(0, 3, 0) || f.Faults().LinkLost(0, 3, 0) {
		t.Fatal("links down without an injector")
	}
	if f.RouteAround() != nil {
		t.Fatal("routing view not identity without link faults")
	}
	// Rank-fate-only faults must not activate the link model either.
	f.SetFaults(faults.New(faults.Config{Seed: 1, CrashRate: 0.5}))
	if f.Faults().LinkFaulted(0, 3) || f.Faults().LinkLost(0, 3, 0) {
		t.Fatal("crash-only faults fated a link")
	}
	if f.RouteAround() != nil {
		t.Fatal("crash-only faults activated the link model")
	}
	if got := f.Faults().Stats().LinkDrops; got != 0 {
		t.Fatalf("crash-only faults refused %d link attempts", got)
	}
}

func TestRouteAroundAvoidsFatedLinks(t *testing.T) {
	// A plan severing {0,2} from {1,3} makes 0-1, 0-3, 2-1, 2-3 all
	// fated, so the greedy walk from 0 must visit 2 next.
	f := NewFabric(hw.Longhorn(), 4)
	f.SetFaults(faults.New(faults.Config{
		Seed:            9,
		PartitionGroups: [][]int{{0, 2}, {1, 3}},
		PartitionAt:     0,
		PartitionHeal:   simtime.Duration(simtime.Millisecond),
	}))
	order := f.RouteAround()
	want := []int{0, 2, 1, 3}
	if len(order) != 4 {
		t.Fatalf("route length: %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("route %v, want %v", order, want)
		}
	}
	// Same seed, fresh fabric: identical route.
	g := NewFabric(hw.Longhorn(), 4)
	g.SetFaults(faults.New(f.Faults().Config()))
	again := g.RouteAround()
	for i := range order {
		if again[i] != order[i] {
			t.Fatalf("route not deterministic: %v vs %v", order, again)
		}
	}
}
