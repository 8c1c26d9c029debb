package model

import (
	"testing"

	"mpicomp/internal/simtime"
)

func us(x float64) simtime.Duration { return simtime.FromMicroseconds(x) }

func baseParams() Params {
	return Params{
		Ts:            us(5),
		Tcompr:        us(300),
		Tdecompr:      us(350),
		TohCompr:      us(50),
		TohDecompr:    us(50),
		MsgBytes:      32 << 20,
		BandwidthGBps: 12.5,
		CR:            2,
	}
}

func TestBaselineEquation(t *testing.T) {
	p := baseParams()
	// 32 MB / 12.5 GB/s = 2684us + 5us setup.
	got := Baseline(p)
	want := p.Ts + simtime.TransferTime(32<<20, 12.5)
	if got != want {
		t.Fatalf("Baseline: %v want %v", got, want)
	}
}

func TestCompressionWinsAtHighCR(t *testing.T) {
	p := baseParams()
	p.CR = 8
	if Benefit(p) <= 0 {
		t.Fatalf("CR=8 should win: benefit %v", Benefit(p))
	}
	// And the compressed estimate must always exceed the ideal one.
	if WithCompression(p) <= Ideal(p) {
		t.Fatal("overheads must make eq(2) slower than eq(3)")
	}
}

func TestCompressionLosesAtSmallMessages(t *testing.T) {
	p := baseParams()
	p.MsgBytes = 64 << 10 // 64 KB: transfer 5us, kernels 750us
	if Benefit(p) > 0 {
		t.Fatalf("64KB should lose: benefit %v", Benefit(p))
	}
}

func TestCRBelowOneClamped(t *testing.T) {
	p := baseParams()
	p.CR = 0.5
	if WithCompression(p) < Baseline(p) {
		t.Fatal("CR<1 must not predict a win")
	}
}

func TestBreakEvenCR(t *testing.T) {
	p := baseParams()
	be := BreakEvenCR(p)
	if be <= 1 {
		t.Fatalf("break-even CR must exceed 1: %v", be)
	}
	// At exactly the break-even CR the benefit should be ~zero.
	p.CR = be
	b := Benefit(p)
	if b < -us(2) || b > us(2) {
		t.Fatalf("benefit at break-even should be ~0: %v", b)
	}
	// Just above break-even, compression wins.
	p.CR = be * 1.2
	if Benefit(p) <= 0 {
		t.Fatal("above break-even must win")
	}
	// When kernels exceed the raw transfer, report "never".
	p.MsgBytes = 1 << 10
	if BreakEvenCR(p) < 1e17 {
		t.Fatal("tiny message should report unreachable break-even")
	}
}

func TestMinMessageSize(t *testing.T) {
	// K=750us of kernel time at 12.5 GB/s with CR 2: need S such that
	// (S/B)*(1/2) > K  =>  S > 2*K*B = 18.75e6 bytes.
	k := us(750)
	s := MinMessageSize(k, 12.5, 2)
	if s < 18_700_000 || s > 18_800_000 {
		t.Fatalf("MinMessageSize: %d", s)
	}
	if MinMessageSize(k, 12.5, 1.0) < 1<<60 {
		t.Fatal("CR=1 can never win")
	}
	// Higher CR lowers the threshold.
	if MinMessageSize(k, 12.5, 8) >= s {
		t.Fatal("higher CR should lower the break-even size")
	}
}

func TestPipelinedAtOneChunkIsWithCompression(t *testing.T) {
	for _, cr := range []float64{0.5, 1, 1.11, 2, 8.87} {
		for _, n := range []int{0, 1, 256 << 10, 16<<20 + 3, 32 << 20} {
			p := baseParams()
			p.CR, p.MsgBytes = cr, n
			if got, want := Pipelined(p, 1), WithCompression(p); got != want {
				t.Fatalf("CR %v, %d bytes: Pipelined(p, 1) = %d, WithCompression = %d", cr, n, int64(got), int64(want))
			}
		}
	}
}

func TestPipelinedAddsTheSlowestStage(t *testing.T) {
	p := baseParams() // per chunk: c 350us, d 400us, w 168us
	p.MsgBytes = 4 << 20
	w := simtime.TransferTime(2<<20, p.BandwidthGBps)
	d := p.Tdecompr + p.TohDecompr
	if d < w {
		t.Fatalf("want a decompress-bound chunk: d %v, w %v", d, w)
	}
	if got, want := Pipelined(p, 4), WithCompression(p)+3*d; got != want {
		t.Fatalf("Pipelined(p, 4) = %v, want %v", got, want)
	}
	p.CR, p.MsgBytes = 0.5, 8<<20 // CR clamped to 1: w 671us is the slowest stage
	if got, want := Pipelined(p, 3), WithCompression(p)+2*simtime.TransferTime(8<<20, p.BandwidthGBps); got != want {
		t.Fatalf("wire-bound Pipelined(p, 3) = %v, want %v", got, want)
	}
}
