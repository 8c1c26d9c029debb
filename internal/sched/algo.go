package sched

// Allreduce algorithm space: the schedule table internal/mpi's AllreduceSum
// dispatches over, through a pluggable tuner (internal/tune implements one)
// unless the world pins a schedule.

import "fmt"

// AllreduceAlgo names an allreduce schedule, for pinning, tuner tables,
// and CLI flags.
type AllreduceAlgo int

const (
	// AllreduceAuto (the zero value) routes through the world's tuner
	// when one is wired and the historical reduce+broadcast otherwise.
	AllreduceAuto AllreduceAlgo = iota
	// AllreduceReduceBcast is the original schedule: binomial reduce to
	// the first rank, binomial broadcast back out.
	AllreduceReduceBcast
	// AllreduceRing is the pipelined/relay ring (Ring).
	AllreduceRing
	// AllreduceRingBlocking is the whole-block ring oracle.
	AllreduceRingBlocking
	// AllreduceRecursiveDoubling is the latency-optimal log2 P schedule.
	AllreduceRecursiveDoubling
	// AllreduceRabenseifner is reduce-scatter + allgather over halving/
	// doubling distances.
	AllreduceRabenseifner
	// AllreduceTwoLevel is the topology-aware leader schedule.
	AllreduceTwoLevel
)

// allreduceAlgos is the schedule table, indexed by AllreduceAlgo: the one
// place a schedule's name, its generator and its standing with the tuner are
// declared. String, ParseAllreduceAlgo, AllreduceAlgos, Schedule (the
// dispatch) and internal/tune's search space all read it.
var allreduceAlgos = [...]struct {
	name string
	// gen generates the schedule; nil for auto, which resolves before
	// dispatch.
	gen Generator
	// blocking runs gen's blocking form: the bit-identity oracle.
	blocking bool
	// candidate marks the schedules a tuner searches. The others exist as
	// baselines and bit-identity oracles and run only when pinned.
	candidate bool
	// hierarchicalOnly restricts a candidate to multi-node, ppn > 1 layouts.
	hierarchicalOnly bool
}{
	AllreduceAuto:              {name: "auto"},
	AllreduceReduceBcast:       {name: "reduce-bcast", gen: ReduceBcast},
	AllreduceRing:              {name: "ring", gen: Ring, candidate: true},
	AllreduceRingBlocking:      {name: "ring-blocking", gen: Ring, blocking: true},
	AllreduceRecursiveDoubling: {name: "rd", gen: RecursiveDoubling, candidate: true},
	AllreduceRabenseifner:      {name: "rab", gen: Rabenseifner, candidate: true},
	AllreduceTwoLevel:          {name: "two-level", gen: TwoLevel, candidate: true, hierarchicalOnly: true},
}

// String returns the schedule's name: the -algo value and the tuning
// table's algo field.
func (a AllreduceAlgo) String() string {
	if a < 0 || int(a) >= len(allreduceAlgos) {
		return fmt.Sprintf("algo(%d)", int(a))
	}
	return allreduceAlgos[a].name
}

// Schedule returns the generator a runs and whether it runs pipelined.
// Auto, which a tuner or the dispatch resolves first, and values outside
// the table (a tuner's answer is not validated) run reduce+broadcast.
func (a AllreduceAlgo) Schedule() (gen Generator, pipelined bool) {
	row := allreduceAlgos[AllreduceReduceBcast]
	if a > AllreduceAuto && int(a) < len(allreduceAlgos) {
		row = allreduceAlgos[a]
	}
	return row.gen, !row.blocking
}

// AllreduceAlgos lists every schedule, AllreduceAuto first, in enum order.
func AllreduceAlgos() []AllreduceAlgo {
	out := make([]AllreduceAlgo, len(allreduceAlgos))
	for i := range out {
		out[i] = AllreduceAlgo(i)
	}
	return out
}

// ParseAllreduceAlgo inverts String; ok is false for an unknown name.
func ParseAllreduceAlgo(name string) (a AllreduceAlgo, ok bool) {
	for i := range allreduceAlgos {
		if allreduceAlgos[i].name == name {
			return AllreduceAlgo(i), true
		}
	}
	return 0, false
}

// AllreduceCandidates lists the schedules a tuner searches on a layout, in
// enum order (the tuner's exploration and tie-break order).
func AllreduceCandidates(hierarchical bool) []AllreduceAlgo {
	out := make([]AllreduceAlgo, 0, len(allreduceAlgos))
	for i, row := range allreduceAlgos {
		if row.candidate && (hierarchical || !row.hierarchicalOnly) {
			out = append(out, AllreduceAlgo(i))
		}
	}
	return out
}

// TunePoint describes one allreduce call to the tuner: the shape the
// selector keys on, plus the operation index that lets observations of
// the same call merge across ranks (every rank reports the same Op for
// the same collective — program order is lockstep).
type TunePoint struct {
	Bytes int
	Ranks int
	Nodes int
	PPN   int
	Op    uint64
}
