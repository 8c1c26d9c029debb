// Package model implements the analytical cost models of Section II-A
// (equations 1-3), which predict when on-the-fly compression pays off.
// The dynamic design (the paper's future work; core.Engine.SendForm) uses
// these predictions to pick each send's form: uncompressed, whole and
// compressed, or cut into pipelined chunks.
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
	return p.Ts + p.Tcompr + p.TohCompr + p.wire() + p.Tdecompr + p.TohDecompr
}

// wire is the transfer time of the compressed payload.
func (p Params) wire() simtime.Duration {
	cr := p.CR
	if cr < 1 {
		cr = 1
	}
	return simtime.TransferTime(int(float64(p.MsgBytes)/cr), p.BandwidthGBps)
}

// Pipelined is equation (2) for a message sent as k chunks whose
// compression, transfer and decompression overlap: p describes one chunk
// (MsgBytes, kernel times and overheads are a chunk's), the first chunk
// pays all three stages and each further one the slowest stage,
//
//	T(k) = Ts + c + w + d + (k-1)·max(c, w, d)
//
// with c = Tcompr + TohCompr, w the chunk's wire time and d = Tdecompr +
// TohDecompr. k = 1 is WithCompression.
func Pipelined(p Params, k int) simtime.Duration {
	t := WithCompression(p)
	if k <= 1 {
		return t
	}
	stage := max(p.Tcompr+p.TohCompr, p.wire(), p.Tdecompr+p.TohDecompr)
	return t + simtime.Duration(k-1)*stage
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
