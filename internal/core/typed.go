package core

import (
	"mpicomp/internal/dtype"
	"mpicomp/internal/simtime"
)

// What a layout adds to the one message path (engine.go): the plan the
// codec parts gather through and scatter through, and the explicit pack
// pass an uncompressed strided message pays.

// typedView routes a codec job's reads (compress) or writes (decompress)
// through a strided layout instead of a contiguous byte range: plan is the
// layout's canonical form and base the packed byte offset of this message's
// first byte within the layout's packed stream (nonzero for pipelined
// chunks). The zero typedView means contiguous — the codecs then work on
// the buffer's bytes in place. add is the third landing, for a contiguous
// decompress only (Engine.DecompressAdd): each part decodes into worker
// scratch, as a strided one does, and adds its words into its range of dst.
//
// This is the pack+compress fusion point: each codec part gathers its own
// packed range into worker scratch (and scatters it back out after
// decoding), so a strided message never materializes its packed stream
// and needs no message-sized staging buffer. A view is a handful of
// integers computed from the layout's own, so every message takes a fresh
// one and nothing about a layout is cached or tabulated.
type typedView struct {
	plan dtype.Plan
	base int
	add  bool
}

func (v typedView) strided() bool { return v.plan.Run != 0 }

// inPlace reports a decompress that decodes straight into dst.
func (v typedView) inPlace() bool { return !v.strided() && !v.add }

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
