// Package core is a minimal fake of the module's engine package for
// the phasecharge golden tests: the Breakdown accounting, the payload
// checksum, and one exported helper that charges (exercising the
// cross-package charges fact).
package core

import "golden/simtime"

type Phase int

const (
	PhaseDataCopy Phase = iota
	PhaseChecksum
	numPhases
)

// Breakdown accumulates simulated time per phase.
type Breakdown struct {
	d [numPhases]simtime.Duration
}

func (b *Breakdown) Add(p Phase, dur simtime.Duration) { b.d[p] += dur }

// Checksum is the payload integrity pass; callers charge PhaseChecksum.
func Checksum(payload []byte) uint32 { return uint32(len(payload)) }

// ChargeCopy accounts one payload copy; importers recognize it through
// the exported charges fact.
func ChargeCopy(b *Breakdown, n int) {
	b.Add(PhaseDataCopy, simtime.Duration(n))
}

// Note charges through Add. It shares Breakdown's receiver with the
// charging root but is not itself one, so importers must recognize it
// by its charges fact, not by name.
func (b *Breakdown) Note(n int) {
	b.Add(PhaseDataCopy, simtime.Duration(n))
}
