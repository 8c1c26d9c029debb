// Package phasechg is the golden input for the phasecharge analyzer:
// payload copies and checksums with and without a reachable charge,
// local and cross-package accounting helpers, and suppressions.
package phasechg

import (
	"golden/core"
	"golden/gpusim"
	"golden/simtime"
)

// --- charged payload work -------------------------------------------

func chargedCopy(clk *simtime.Clock, dst *gpusim.Buffer, src []byte) {
	copy(dst.Data, src)
	clk.Advance(simtime.Duration(len(src)))
}

func chargedViaBreakdown(b *core.Breakdown, dst *gpusim.Buffer, src []byte) {
	copy(dst.Data[:len(src)], src)
	b.Add(core.PhaseDataCopy, simtime.Duration(len(src)))
}

func chargedViaLocalHelper(clk *simtime.Clock, dst *gpusim.Buffer, src []byte) {
	copy(dst.Data, src)
	account(clk, len(src))
}

func account(clk *simtime.Clock, n int) {
	clk.Advance(simtime.Duration(n))
}

func chargedViaFact(b *core.Breakdown, dst *gpusim.Buffer, src []byte) {
	copy(dst.Data, src)
	core.ChargeCopy(b, len(src))
}

func chargedViaMethodFact(b *core.Breakdown, dst *gpusim.Buffer, src []byte) {
	copy(dst.Data, src)
	b.Note(len(src))
}

func chargedChecksum(clk *simtime.Clock, payload []byte) uint32 {
	s := core.Checksum(payload)
	clk.Advance(1)
	return s
}

// --- uncharged payload work -----------------------------------------

func unchargedCopy(dst *gpusim.Buffer, src []byte) {
	copy(dst.Data, src) // want "host work on payload bytes is never charged"
}

func unchargedChecksum(payload []byte) uint32 {
	return core.Checksum(payload) // want "host work on payload bytes is never charged"
}

func unchargedInClosure(dst *gpusim.Buffer, src []byte) func() {
	return func() {
		copy(dst.Data, src) // want "host work on payload bytes is never charged"
	}
}

// plainCopy moves host bytes between plain slices: not payload, no charge needed.
func plainCopy(dst, src []byte) {
	copy(dst, src)
}

// --- suppression ----------------------------------------------------

func mirror(dst *gpusim.Buffer, src []byte) {
	copy(dst.Data, src) //simlint:nocharge free-list scrub modeled as zero-cost
}

// scatter's caller charges one pack pass for the whole batch.
//
//simlint:nocharge caller charges the batch
func scatter(dst *gpusim.Buffer, src []byte) {
	copy(dst.Data, src)
}
