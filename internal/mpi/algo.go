package mpi

// The allreduce dispatch's side of the schedule table (internal/sched):
// the engine cache tag each schedule runs under, and the tuner hook.

import (
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// AllreduceAlgo is sched.AllreduceAlgo, kept for the frozen bench/ alone;
// it goes in ROADMAP item 1's [benchmark] PR.
type AllreduceAlgo = sched.AllreduceAlgo

// AllreduceAuto is sched.AllreduceAuto, kept for the frozen bench/ alone;
// it goes in ROADMAP item 1's [benchmark] PR.
const AllreduceAuto = sched.AllreduceAuto

// TunePoint is sched.TunePoint, kept for the frozen bench/ alone; it goes
// in ROADMAP item 1's [benchmark] PR.
type TunePoint = sched.TunePoint

// scheduleTag is the engine cache namespace the schedule runs under.
// The historical default keeps tag 0 — the namespace every other
// collective uses — so pre-dispatch cache behavior is unchanged.
func scheduleTag(a sched.AllreduceAlgo) uint32 {
	if a == sched.AllreduceReduceBcast {
		return 0
	}
	return uint32(a)
}

// CollTuner is the autotuner hook AllreduceSum dispatches through when
// the world's algorithm is sched.AllreduceAuto. Implementations must make
// Pick a pure function of state that changes only at world-synchronous
// points (internal/tune folds observations in its Advance), because every
// rank calls Pick independently and they must all run the same schedule.
type CollTuner interface {
	// PickAllreduce selects the schedule for one collective call. It is
	// called by every rank with an identical TunePoint and must return
	// an identical answer on each.
	PickAllreduce(p sched.TunePoint) sched.AllreduceAlgo
	// ObserveAllreduce reports one rank's measured virtual-clock latency
	// for a completed collective. Implementations merge observations of
	// the same (point, algo, op) commutatively — call order across ranks
	// is scheduling-dependent.
	ObserveAllreduce(p sched.TunePoint, algo sched.AllreduceAlgo, elapsed simtime.Duration)
}
