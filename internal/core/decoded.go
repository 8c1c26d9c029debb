package core

import (
	"sync"

	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// Decoded is the host-only companion of a relayed wire payload: the
// decoded form of bytes that P-1 ranks of one process would otherwise
// each run the real codec over (DESIGN.md §8, "What ranks share on the
// host"). The rank that originates a relay creates it next to
// (payload, hdr), it rides the message hop by hop, and its lifetime is the
// message's: when the last envelope or raw result drops it, so does the
// garbage collector. Nothing simulated depends on it — every consumer
// pays its own kernels, pool traffic, phases and counters — it only
// replaces a codec job whose output another rank already holds with one
// copy of that output.
type Decoded struct {
	// hdr is the header the companion was created with. A consumer is
	// served only when the header its payload verified against equals it:
	// a payload that passed VerifyPayload against an equal header is, up
	// to a CRC collision, the origin's payload, whatever slice it
	// reassembled into on the way.
	hdr Header

	// mu is the latch: the first consumer holds it across its decode and
	// publishes, later ones wait on it — never under an Engine.mu — and
	// copy. A failed decode publishes nothing and the next consumer
	// decodes for itself.
	mu   sync.Mutex
	data []byte
}

// NewDecoded returns the unpublished companion of a wire payload
// described by hdr.
func NewDecoded(hdr Header) *Decoded { return &Decoded{hdr: hdr} }

// equal reports whether two headers describe the same wire payload the
// same way.
func (h Header) equal(o Header) bool {
	if h.Algo != o.Algo || h.Compressed != o.Compressed || h.Fallback != o.Fallback ||
		h.OrigBytes != o.OrigBytes || h.CompBytes != o.CompBytes ||
		h.Rate != o.Rate || h.Dim != o.Dim || h.Checksum != o.Checksum ||
		len(h.PartBytes) != len(o.PartBytes) {
		return false
	}
	for i, pb := range h.PartBytes {
		if pb != o.PartBytes[i] {
			return false
		}
	}
	return true
}

// DecompressRelayed is Decompress for a relayed payload that may carry a
// decoded companion (nil: none). payload must already have passed
// VerifyPayload against hdr — the relay receive does that at every hop —
// which is what makes a companion created with an equal header safe to
// serve from. A payload that travels uncompressed has no codec job to
// share (its "decode" is already a copy) and leaves the companion alone.
// The simulated side is Decompress's to the last charge; Host.DecodeJobs
// tells the two apart.
func (e *Engine) DecompressRelayed(clk *simtime.Clock, hdr Header, payload []byte, dst *gpusim.Buffer, dec *Decoded) error {
	if dec == nil || !hdr.Compressed || !dec.hdr.equal(hdr) {
		return e.Decompress(clk, hdr, payload, dst)
	}
	// Taken before e.mu and, by the rank that decodes, released after it:
	// a waiter holds no engine lock, and the holder waits on nothing but
	// its own engine. Published bytes are immutable, so copying them out
	// needs no latch.
	m := message{buf: dst, n: hdr.OrigBytes}
	dec.mu.Lock()
	if data := dec.data; data != nil {
		dec.mu.Unlock()
		return e.decompress(clk, hdr, payload, m, data)
	}
	defer dec.mu.Unlock()
	err := e.decompress(clk, hdr, payload, m, nil)
	if err == nil {
		dec.data = append([]byte(nil), dst.Data[:hdr.OrigBytes]...)
	}
	return err
}
