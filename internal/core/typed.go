package core

import (
	"mpicomp/internal/dtype"
	"mpicomp/internal/simtime"
)

// What a layout adds to the one message path (engine.go): the run table
// the codec parts gather from and scatter into, and the explicit pack pass
// an uncompressed strided message pays.

// typedViewLocked flattens t into the arena's run table. The returned
// view aliases arena storage valid until the engine's next typed
// operation; workers only read it.
func (e *Engine) typedViewLocked(t dtype.Type) typedView {
	e.ar.truns = t.AppendRuns(e.ar.truns[:0])
	runs := e.ar.truns
	if cap(e.ar.troffs) < len(runs)+1 {
		e.ar.troffs = make([]int, 0, len(runs)+1)
	}
	offs := e.ar.troffs[:0]
	sum := 0
	for _, rg := range runs {
		offs = append(offs, sum)
		sum += rg[1]
	}
	offs = append(offs, sum)
	e.ar.troffs = offs
	return typedView{runs: runs, offs: offs}
}

// packChargeLocked charges the cost of explicitly packing (or unpacking)
// n strided bytes outside the codec: one read plus one write pass at
// memory bandwidth. Only a layout's *uncompressed* form pays it — the
// fused compressed path reads the strided source during the codec kernel
// it already charges, and a contiguous message has nothing to pack.
func (e *Engine) packChargeLocked(clk *simtime.Clock, n int) {
	t := startTimer(clk)
	clk.Advance(simtime.ThroughputTime(2*n, e.dev.Spec.MemBWGBps*8))
	e.charge(t, PhaseDataCopy)
}
