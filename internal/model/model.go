// Package model implements the analytical cost models of Section II-A
// (equations 1-3), which predict when on-the-fly compression pays off.
// The dynamic-selection extension (the paper's future work) uses these
// predictions to choose a codec per message.
package model

import (
	"math"

	"mpicomp/internal/simtime"
)

// Params carries the notation of Table II.
type Params struct {
	// Ts is the communication setup time.
	Ts simtime.Duration
	// Tcompr / Tdecompr are the compression and decompression kernel
	// execution times.
	Tcompr   simtime.Duration
	Tdecompr simtime.Duration
	// TohCompr / TohDecompr are the overheads related to compression
	// and decompression (allocation, copies, driver calls).
	TohCompr   simtime.Duration
	TohDecompr simtime.Duration
	// MsgBytes is the original message size S.
	MsgBytes int
	// BandwidthGBps is the network bandwidth B between GPUs.
	BandwidthGBps float64
	// CR is the compression ratio.
	CR float64
}

// Baseline is equation (1): T = Ts + S/B.
func Baseline(p Params) simtime.Duration {
	return p.Ts + simtime.TransferTime(p.MsgBytes, p.BandwidthGBps)
}

// WithCompression is equation (2): the full cost including compression,
// decompression and their overheads, with the payload reduced by CR.
func WithCompression(p Params) simtime.Duration {
	cr := p.CR
	if cr < 1 {
		cr = 1
	}
	payload := int(float64(p.MsgBytes) / cr)
	return p.Ts + p.Tcompr + p.TohCompr +
		simtime.TransferTime(payload, p.BandwidthGBps) +
		p.Tdecompr + p.TohDecompr
}

// Ideal is equation (3): overheads assumed negligible.
func Ideal(p Params) simtime.Duration {
	q := p
	q.TohCompr, q.TohDecompr = 0, 0
	return WithCompression(q)
}

// Benefit reports the predicted latency reduction of compression
// (positive = compression wins).
func Benefit(p Params) simtime.Duration {
	return Baseline(p) - WithCompression(p)
}

// BreakEvenCR returns the minimum compression ratio at which compression
// matches the baseline, given fixed kernel times and overheads. Returns
// +Inf (as a very large ratio) if even infinite compression cannot win.
func BreakEvenCR(p Params) float64 {
	// Baseline = Ts + S/B.
	// Compressed = Ts + K + S/(CR*B), K = kernels + overheads.
	// Break-even: S/B - K = S/(CR*B)  =>  CR = (S/B) / (S/B - K).
	sb := simtime.TransferTime(p.MsgBytes, p.BandwidthGBps)
	k := p.Tcompr + p.TohCompr + p.Tdecompr + p.TohDecompr
	if sb <= k {
		return 1e18 // compression can never win at this size
	}
	return float64(sb) / float64(sb-k)
}

// MinMessageSize returns the smallest message size in bytes at which
// compression with the given per-message fixed overhead K and ratio CR
// beats the baseline: S/B * (1 - 1/CR) > K.
func MinMessageSize(k simtime.Duration, bandwidthGBps, cr float64) int {
	if cr <= 1 {
		return math.MaxInt
	}
	frac := 1 - 1/cr
	// S > K * B / frac.
	s := float64(k) / 1e9 * bandwidthGBps * 1e9 / frac
	if s >= math.MaxInt {
		return math.MaxInt
	}
	return int(s) + 1
}
