package mpi

// Allreduce algorithm dispatch. AllreduceSum owns an algorithm *space* —
// reduce+broadcast, pipelined and blocking rings, recursive doubling,
// Rabenseifner, and the two-level leader schedule — and the choice
// routes through a pluggable tuner (internal/tune implements one) unless
// the world pins a schedule. The dispatch also brackets each schedule
// with an engine cache tag, so cached compressed payloads never leak
// between algorithms being compared over the same unchanged buffer.

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

// String returns the CLI name of the schedule (cli.ParseAlgo inverts it).
func (a AllreduceAlgo) String() string {
	switch a {
	case AllreduceAuto:
		return "auto"
	case AllreduceReduceBcast:
		return "reduce-bcast"
	case AllreduceRing:
		return "ring"
	case AllreduceRingBlocking:
		return "ring-blocking"
	case AllreduceRecursiveDoubling:
		return "rd"
	case AllreduceRabenseifner:
		return "rab"
	case AllreduceTwoLevel:
		return "two-level"
	}
	return fmt.Sprintf("algo(%d)", int(a))
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

func probeSample(buf *gpusim.Buffer) []byte {
	n := buf.Len()
	if n > probeSampleBytes {
		n = probeSampleBytes
	}
	return buf.Data[:n]
}

// runAllreduce executes one pinned schedule under its cache tag.
func (r *Rank) runAllreduce(algo AllreduceAlgo, sendBuf, recvBuf *gpusim.Buffer) error {
	r.Engine.SetScheduleTag(algo.scheduleTag())
	defer r.Engine.SetScheduleTag(0)
	switch algo {
	case AllreduceRing:
		return r.ringAllreduce(sendBuf, recvBuf, true)
	case AllreduceRingBlocking:
		return r.ringAllreduce(sendBuf, recvBuf, false)
	case AllreduceRecursiveDoubling:
		return r.rdAllreduce(sendBuf, recvBuf, true)
	case AllreduceRabenseifner:
		return r.rabAllreduce(sendBuf, recvBuf, true)
	case AllreduceTwoLevel:
		return r.allreduceSumHierarchical(sendBuf, recvBuf)
	default:
		return r.allreduceSum(sendBuf, recvBuf)
	}
}
