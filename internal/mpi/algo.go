package mpi

// Allreduce algorithm space: the schedule table AllreduceSum dispatches
// over, through a pluggable tuner (internal/tune implements one) unless the
// world pins a schedule. Each schedule runs under its own engine cache tag,
// so cached payloads never leak between algorithms compared on one buffer.

import (
	"fmt"

	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// AllreduceAlgo names an AllreduceSum schedule, for pinning, tuner
// tables, and CLI flags.
type AllreduceAlgo int

const (
	// AllreduceAuto (the zero value) routes through the world's tuner
	// when one is wired and the historical reduce+broadcast otherwise.
	AllreduceAuto AllreduceAlgo = iota
	// AllreduceReduceBcast is the original schedule: binomial reduce to
	// the first rank, binomial broadcast back out.
	AllreduceReduceBcast
	// AllreduceRing is the pipelined/relay ring (RingAllreduceSum).
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
// declared. String, ParseAllreduceAlgo, AllreduceAlgos, the dispatch,
// PriceAllreduce and internal/tune's search space all read it.
var allreduceAlgos = [...]struct {
	name string
	// gen generates the schedule (schedule.go); nil for auto, which resolves
	// before dispatch.
	gen generator
	// blocking runs gen's blocking form: the bit-identity oracle.
	blocking bool
	// candidate marks the schedules a tuner searches. The others exist as
	// baselines and bit-identity oracles and run only when pinned.
	candidate bool
	// hierarchicalOnly restricts a candidate to multi-node, ppn > 1 layouts.
	hierarchicalOnly bool
}{
	AllreduceAuto:              {name: "auto"},
	AllreduceReduceBcast:       {name: "reduce-bcast", gen: reduceBcastSteps},
	AllreduceRing:              {name: "ring", gen: ringSteps, candidate: true},
	AllreduceRingBlocking:      {name: "ring-blocking", gen: ringSteps, blocking: true},
	AllreduceRecursiveDoubling: {name: "rd", gen: rdSteps, candidate: true},
	AllreduceRabenseifner:      {name: "rab", gen: rabSteps, candidate: true},
	AllreduceTwoLevel:          {name: "two-level", gen: twoLevelSteps, candidate: true, hierarchicalOnly: true},
}

// String returns the schedule's name: the -algo value and the tuning
// table's algo field.
func (a AllreduceAlgo) String() string {
	if a < 0 || int(a) >= len(allreduceAlgos) {
		return fmt.Sprintf("algo(%d)", int(a))
	}
	return allreduceAlgos[a].name
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
// enum order (the tuner's tie-break order).
func AllreduceCandidates(hierarchical bool) []AllreduceAlgo {
	out := make([]AllreduceAlgo, 0, len(allreduceAlgos))
	for i, row := range allreduceAlgos {
		if row.candidate && (hierarchical || !row.hierarchicalOnly) {
			out = append(out, AllreduceAlgo(i))
		}
	}
	return out
}

// scheduleTag is the engine cache namespace the schedule runs under.
// The historical default keeps tag 0 — the namespace every other
// collective uses — so pre-dispatch cache behavior is unchanged.
func (a AllreduceAlgo) scheduleTag() uint32 {
	if a == AllreduceReduceBcast {
		return 0
	}
	return uint32(a)
}

// TunePoint describes one AllreduceSum call to the tuner: the shape the
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

// CollTuner is the autotuner hook AllreduceSum dispatches through when
// the world's algorithm is AllreduceAuto. Implementations must make Pick
// a pure function of state that changes only at world-synchronous points
// (internal/tune folds observations in its Advance), because every rank
// calls Pick independently and they must all run the same schedule.
type CollTuner interface {
	// PickAllreduce selects the schedule for one collective call. It is
	// called by every rank with an identical TunePoint and must return
	// an identical answer on each.
	PickAllreduce(p TunePoint) AllreduceAlgo
	// ObserveAllreduce reports one rank's measured virtual-clock latency
	// for a completed collective. Implementations merge observations of
	// the same (point, algo, op) commutatively — call order across ranks
	// is scheduling-dependent.
	ObserveAllreduce(p TunePoint, algo AllreduceAlgo, elapsed simtime.Duration)
	// NeedProbe reports whether the tuner still wants a compressibility
	// probe for this point's size class (false once warm-started).
	NeedProbe(p TunePoint) bool
	// ObserveProbeSample feeds the first-touch ratio probe a bounded
	// prefix of the rank's send buffer. Merged commutatively, like
	// ObserveAllreduce.
	ObserveProbeSample(p TunePoint, sample []byte)
}

// probeSampleBytes bounds the compressibility probe's input: enough
// bytes for a stable ratio estimate, cheap enough to ride along any
// collective's first touch of a size class.
const probeSampleBytes = 64 << 10

func probeSample(buf *gpusim.Buffer) []byte { return buf.Data[:min(buf.Len(), probeSampleBytes)] }
