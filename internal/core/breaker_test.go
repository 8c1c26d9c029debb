package core

import (
	"testing"

	"mpicomp/internal/simtime"
)

func TestBreakerDisabledAndNil(t *testing.T) {
	if (BreakerPolicy{}).Enabled() {
		t.Error("zero policy reports enabled")
	}
	if b := NewBreaker(BreakerPolicy{}); b != nil {
		t.Error("NewBreaker built a breaker for a disabled policy")
	}
	// Every method must be a safe no-op on nil.
	var b *Breaker
	if !b.Allow(1, 0) {
		t.Error("nil breaker rejected the compressed path")
	}
	if b.IsOpen(1, 0) {
		t.Error("nil breaker reports open")
	}
	b.RecordFailure(1, 0)
	b.RecordSuccess(1)
	b.ProbeAborted(1)
	if st := b.Stats(); st != (BreakerStats{}) {
		t.Errorf("nil breaker stats = %+v, want zero", st)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := NewBreaker(BreakerPolicy{Threshold: 3, Cooldown: simtime.Millisecond})
	now := simtime.Time(0)
	for i := 0; i < 2; i++ {
		b.RecordFailure(7, now)
		if !b.Allow(7, now) {
			t.Fatalf("breaker opened after %d failures, threshold is 3", i+1)
		}
	}
	// A success between failures resets the consecutive count.
	b.RecordSuccess(7)
	b.RecordFailure(7, now)
	b.RecordFailure(7, now)
	if !b.Allow(7, now) {
		t.Fatal("breaker opened after a non-consecutive run of failures")
	}
	b.RecordFailure(7, now)
	if b.Allow(7, now) {
		t.Fatal("breaker stayed closed past 3 consecutive failures")
	}
	if !b.IsOpen(7, now) {
		t.Error("IsOpen disagrees with Allow on a freshly opened breaker")
	}
	// Peers are independent: destination 8 is untouched.
	if !b.Allow(8, now) || b.IsOpen(8, now) {
		t.Error("opening peer 7 leaked into peer 8")
	}
	st := b.Stats()
	if st.Opens != 1 {
		t.Errorf("Opens = %d, want 1", st.Opens)
	}
	if st.FallbackSends == 0 {
		t.Error("rejected Allow calls were not counted as fallback sends")
	}
}

// openBreaker trips dst and returns the breaker plus the trip instant.
func openBreaker(t *testing.T, pol BreakerPolicy, dst int, now simtime.Time) *Breaker {
	t.Helper()
	b := NewBreaker(pol)
	for i := 0; i < pol.Threshold; i++ {
		b.RecordFailure(dst, now)
	}
	if b.Allow(dst, now) {
		t.Fatal("breaker did not trip")
	}
	return b
}

// TestBreakerCooldownReleaseInstant pins the open state to exactly
// Cooldown: one nanosecond before trip + Cooldown the breaker still
// rejects, at that instant IsOpen turns false and the next Allow is the
// probe. A failed probe re-opens for exactly Cooldown from its failure.
func TestBreakerCooldownReleaseInstant(t *testing.T) {
	pol := BreakerPolicy{Threshold: 2, Cooldown: simtime.Millisecond}
	trip := simtime.Time(0).Add(5 * simtime.Microsecond)
	b := openBreaker(t, pol, 3, trip)
	for _, release := range []simtime.Time{trip.Add(pol.Cooldown), trip.Add(3 * pol.Cooldown)} {
		before := release - 1
		if !b.IsOpen(3, before) || b.Allow(3, before) {
			t.Fatalf("breaker released at %v, before its cooldown ends at %v", before, release)
		}
		if b.IsOpen(3, release) {
			t.Fatalf("breaker still open at %v, where its cooldown ends", release)
		}
		if !b.Allow(3, release) {
			t.Fatalf("Allow at %v did not release the probe", release)
		}
		// The probe fails one cooldown later, so the next release is
		// two cooldowns after this one.
		b.RecordFailure(3, release.Add(pol.Cooldown))
	}
	if st := b.Stats(); st.Opens != 3 || st.Probes != 2 {
		t.Errorf("opens=%d probes=%d, want 3 and 2", st.Opens, st.Probes)
	}
}

func TestBreakerHalfOpenProbeOutcomes(t *testing.T) {
	pol := BreakerPolicy{Threshold: 1, Cooldown: simtime.Millisecond}
	past := simtime.Time(0).Add(2 * pol.Cooldown) // beyond the cooldown

	// Probe success closes the breaker.
	b := openBreaker(t, pol, 2, 0)
	if !b.Allow(2, past) {
		t.Fatal("expired breaker did not release a probe")
	}
	if b.Allow(2, past) {
		t.Error("second message compressed while the probe was still in flight")
	}
	b.RecordSuccess(2)
	if !b.Allow(2, past) {
		t.Error("breaker did not close after a successful probe")
	}
	st := b.Stats()
	if st.Probes != 1 || st.Closes != 1 {
		t.Errorf("probes=%d closes=%d, want 1 and 1", st.Probes, st.Closes)
	}

	// Probe failure re-opens for a fresh cooldown.
	b = openBreaker(t, pol, 2, 0)
	if !b.Allow(2, past) {
		t.Fatal("expired breaker did not release a probe")
	}
	b.RecordFailure(2, past)
	if b.Allow(2, past) {
		t.Error("breaker closed after a failed probe")
	}
	if st := b.Stats(); st.Opens != 2 {
		t.Errorf("Opens = %d after a failed probe, want 2", st.Opens)
	}

	// ProbeAborted rearms: the state returns to open with the cooldown
	// already expired, so the very next Allow probes again.
	b = openBreaker(t, pol, 2, 0)
	if !b.Allow(2, past) {
		t.Fatal("expired breaker did not release a probe")
	}
	b.ProbeAborted(2)
	if !b.Allow(2, past) {
		t.Error("breaker did not re-probe after an aborted probe")
	}
	if st := b.Stats(); st.Probes != 1 {
		t.Errorf("Probes = %d after abort+retry, want 1 (the abort refunds its probe)", st.Probes)
	}
	// ProbeAborted outside half-open is a no-op.
	b.RecordSuccess(2)
	b.ProbeAborted(2)
	if !b.Allow(2, past) {
		t.Error("ProbeAborted on a closed breaker changed its state")
	}
}

func TestBreakerIsOpenIsPure(t *testing.T) {
	pol := BreakerPolicy{Threshold: 1, Cooldown: simtime.Millisecond}
	b := openBreaker(t, pol, 4, 0)
	past := simtime.Time(0).Add(2 * pol.Cooldown)
	for i := 0; i < 10; i++ {
		if b.IsOpen(4, past) {
			t.Fatal("IsOpen true past the cooldown")
		}
	}
	// Ten IsOpen queries must not have consumed the probe slot.
	if !b.Allow(4, past) {
		t.Error("IsOpen consumed the half-open probe")
	}
	if st := b.Stats(); st.Probes != 1 {
		t.Errorf("Probes = %d, want exactly 1", st.Probes)
	}
}

func TestBreakerStatsAdd(t *testing.T) {
	a := BreakerStats{Opens: 1, Closes: 2, Probes: 3, FallbackSends: 4}
	a.Add(BreakerStats{Opens: 10, Closes: 20, Probes: 30, FallbackSends: 40})
	want := BreakerStats{Opens: 11, Closes: 22, Probes: 33, FallbackSends: 44}
	if a != want {
		t.Errorf("Add gave %+v, want %+v", a, want)
	}
}

// TestHeaderFallbackRoundTrip pins the degradation-negotiation bit on the
// wire: Fallback survives Encode/DecodeHeader in every combination with
// Compressed, and the flag byte stays within the two defined bits.
func TestHeaderFallbackRoundTrip(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		for _, fallback := range []bool{false, true} {
			h := Header{
				Algo: AlgoMPC, Compressed: compressed, Fallback: fallback,
				OrigBytes: 1 << 20, CompBytes: 1 << 18, Dim: 3,
				PartBytes: []int{1 << 17, 1 << 17}, Checksum: 0xdeadbeef,
			}
			enc := h.Encode()
			if enc[1]&^(hdrFlagCompressed|hdrFlagFallback) != 0 {
				t.Errorf("flag byte %#x sets undefined bits", enc[1])
			}
			got, err := DecodeHeader(enc)
			if err != nil {
				t.Fatalf("compressed=%v fallback=%v: %v", compressed, fallback, err)
			}
			if got.Compressed != compressed || got.Fallback != fallback {
				t.Errorf("round trip gave compressed=%v fallback=%v, want %v/%v",
					got.Compressed, got.Fallback, compressed, fallback)
			}
			if got.OrigBytes != h.OrigBytes || got.CompBytes != h.CompBytes ||
				got.Checksum != h.Checksum || len(got.PartBytes) != len(h.PartBytes) {
				t.Errorf("round trip mangled non-flag fields: %+v", got)
			}
		}
	}
	// Pre-breaker encodings (flag byte 0 or 1) must still parse with
	// Fallback false — the feature is wire-compatible.
	legacy := Header{Algo: AlgoNone, OrigBytes: 64, CompBytes: 64}
	got, err := DecodeHeader(legacy.Encode())
	if err != nil || got.Fallback {
		t.Errorf("legacy header decoded to fallback=%v err=%v", got.Fallback, err)
	}
}
