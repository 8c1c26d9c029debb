package mpi

import (
	"testing"

	"mpicomp/internal/simtime"
)

func TestBreakerDisabledAndNil(t *testing.T) {
	if (BreakerPolicy{}).Enabled() {
		t.Error("zero policy reports enabled")
	}
	if b := newBreaker(BreakerPolicy{}, 2); b != nil {
		t.Error("newBreaker built a breaker for a disabled policy")
	}
	// Every method must be a safe no-op on nil.
	var b *Breaker
	if !b.Allow(1, 0) {
		t.Error("nil breaker rejected the compressed path")
	}
	if b.Tripped(1) {
		t.Error("nil breaker reports tripped")
	}
	b.RecordFailure(1, 0)
	b.RecordFallback()
	b.RecordSuccess(1)
	b.ProbeAborted(1)
	if st := b.Stats(); st != (BreakerStats{}) {
		t.Errorf("nil breaker stats = %+v, want zero", st)
	}
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b := newBreaker(BreakerPolicy{Threshold: 3, Cooldown: simtime.Millisecond}, 16)
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
	if !b.Tripped(7) {
		t.Error("Tripped disagrees with Allow on a freshly opened breaker")
	}
	// Peers are independent: destination 8 is untouched.
	if !b.Allow(8, now) || b.Tripped(8) {
		t.Error("opening peer 7 leaked into peer 8")
	}
	st := b.Stats()
	if st.Opens != 1 {
		t.Errorf("Opens = %d, want 1", st.Opens)
	}
	// A refusal is not yet a fallback send: the transport counts each
	// message once, when it travels in the fallback form.
	if st.FallbackSends != 0 {
		t.Errorf("FallbackSends = %d after refusals alone, want 0", st.FallbackSends)
	}
	b.RecordFallback()
	if st := b.Stats(); st.FallbackSends != 1 {
		t.Errorf("FallbackSends = %d after one RecordFallback, want 1", st.FallbackSends)
	}
}

// openBreaker trips dst and returns the breaker plus the trip instant.
func openBreaker(t *testing.T, pol BreakerPolicy, dst int, now simtime.Time) *Breaker {
	t.Helper()
	b := newBreaker(pol, 16)
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
// rejects, and at that instant the next Allow is the probe. The breaker
// stays tripped throughout. A failed probe re-opens for exactly Cooldown
// from its failure.
func TestBreakerCooldownReleaseInstant(t *testing.T) {
	pol := BreakerPolicy{Threshold: 2, Cooldown: simtime.Millisecond}
	trip := simtime.Time(0).Add(5 * simtime.Microsecond)
	b := openBreaker(t, pol, 3, trip)
	for _, release := range []simtime.Time{trip.Add(pol.Cooldown), trip.Add(3 * pol.Cooldown)} {
		before := release - 1
		if b.Allow(3, before) {
			t.Fatalf("breaker released at %v, before its cooldown ends at %v", before, release)
		}
		if !b.Allow(3, release) {
			t.Fatalf("Allow at %v did not release the probe", release)
		}
		if !b.Tripped(3) {
			t.Fatalf("breaker not tripped with its probe in flight at %v", release)
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

// TestBreakerTrippedIsPure: Tripped drives no transition. Past the
// cooldown an open breaker is still tripped, and queries leave the
// half-open probe to the next Allow; only the probe's success clears it.
func TestBreakerTrippedIsPure(t *testing.T) {
	pol := BreakerPolicy{Threshold: 1, Cooldown: simtime.Millisecond}
	b := openBreaker(t, pol, 4, 0)
	past := simtime.Time(0).Add(2 * pol.Cooldown)
	for i := 0; i < 10; i++ {
		if !b.Tripped(4) {
			t.Fatal("open breaker past its cooldown reports not tripped")
		}
	}
	// Ten Tripped queries must not have consumed the probe slot.
	if !b.Allow(4, past) {
		t.Error("Tripped consumed the half-open probe")
	}
	if st := b.Stats(); st.Probes != 1 {
		t.Errorf("Probes = %d, want exactly 1", st.Probes)
	}
	if !b.Tripped(4) {
		t.Error("breaker not tripped with its probe in flight")
	}
	b.RecordSuccess(4)
	if b.Tripped(4) {
		t.Error("breaker still tripped after its probe succeeded")
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
