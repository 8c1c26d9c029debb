package faults

import (
	"bytes"
	"testing"

	"mpicomp/internal/simtime"
)

func TestNilInjectorInjectsNothing(t *testing.T) {
	var i *Injector
	if i.ShouldDrop(KindData, 0, 1, 0, NoChunk, 0) {
		t.Fatal("nil injector dropped a message")
	}
	p := []byte{1, 2, 3}
	if _, corrupted := i.Corrupt(p, 0, 1, 0, NoChunk, 0); corrupted {
		t.Fatal("nil injector corrupted a payload")
	}
	if f := i.BandwidthFactor(0, 1, 0); f != 1 {
		t.Fatalf("nil injector degraded bandwidth: %v", f)
	}
	if s := i.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector has stats: %+v", s)
	}
}

func TestDisabledConfigYieldsNil(t *testing.T) {
	if New(Config{Seed: 42}) != nil {
		t.Fatal("config with no rates must yield a nil injector")
	}
	if !(Config{DropRate: 0.1}).Enabled() {
		t.Fatal("drop rate must enable the config")
	}
}

// TestDecisionsAreDeterministic: the same (seed, event) tuple must decide
// identically across injector instances and call orders.
func TestDecisionsAreDeterministic(t *testing.T) {
	cfg := Config{Seed: 7, DropRate: 0.3, CorruptRate: 0.3, DegradeRate: 0.3}
	a, b := New(cfg), New(cfg)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Query b in reverse order to prove order independence.
	type result struct {
		drop      bool
		corrupted bool
		wire      []byte
		factor    float64
	}
	query := func(inj *Injector, seq uint64, attempt int) result {
		var r result
		r.drop = inj.ShouldDrop(KindData, 3, 5, seq, NoChunk, attempt)
		r.wire, r.corrupted = inj.Corrupt(payload, 3, 5, seq, NoChunk, attempt)
		r.factor = inj.BandwidthFactor(0, 1, simtime.Time(seq)*simtime.Time(simtime.Millisecond))
		return r
	}
	const n = 64
	got := make([]result, n)
	for i := 0; i < n; i++ {
		got[i] = query(a, uint64(i), i%3)
	}
	for i := n - 1; i >= 0; i-- {
		r := query(b, uint64(i), i%3)
		if r.drop != got[i].drop || r.corrupted != got[i].corrupted || r.factor != got[i].factor {
			t.Fatalf("event %d: decisions diverged between injectors", i)
		}
		if !bytes.Equal(r.wire, got[i].wire) {
			t.Fatalf("event %d: corruption pattern diverged", i)
		}
	}
}

func TestCorruptPreservesOriginal(t *testing.T) {
	inj := New(Config{Seed: 1, CorruptRate: 1})
	payload := bytes.Repeat([]byte{0xAA}, 128)
	orig := append([]byte(nil), payload...)
	wire, corrupted := inj.Corrupt(payload, 0, 1, 9, NoChunk, 0)
	if !corrupted {
		t.Fatal("rate-1 corruption did not fire")
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("Corrupt modified the caller's payload")
	}
	if bytes.Equal(wire, orig) {
		t.Fatal("corrupted wire copy equals the original")
	}
	flips := 0
	for i := range wire {
		for b := 0; b < 8; b++ {
			if (wire[i]^orig[i])>>b&1 == 1 {
				flips++
			}
		}
	}
	if flips < 1 || flips > MaxFlips {
		t.Fatalf("flipped %d bits, want 1..%d", flips, MaxFlips)
	}
}

// TestRatesApproximatelyHonored: over many independent events the empirical
// rates must land near the configured probabilities.
func TestRatesApproximatelyHonored(t *testing.T) {
	inj := New(Config{Seed: 99, DropRate: 0.25, CorruptRate: 0.1, DegradeRate: 0.5})
	payload := []byte{1, 2, 3, 4}
	const n = 20000
	var drops, corrupts, degrades int
	for i := 0; i < n; i++ {
		if inj.ShouldDrop(KindRTS, 0, 1, uint64(i), NoChunk, 0) {
			drops++
		}
		if _, c := inj.Corrupt(payload, 0, 1, uint64(i), NoChunk, 0); c {
			corrupts++
		}
		if inj.BandwidthFactor(0, 1, simtime.Time(i)*simtime.Time(simtime.Millisecond)) < 1 {
			degrades++
		}
	}
	check := func(name string, got int, want float64) {
		frac := float64(got) / n
		if frac < want*0.85 || frac > want*1.15 {
			t.Errorf("%s rate %.4f, want ~%.2f", name, frac, want)
		}
	}
	check("drop", drops, 0.25)
	check("corrupt", corrupts, 0.1)
	check("degrade", degrades, 0.5)
	s := inj.Stats()
	if s.Drops != int64(drops) || s.Corruptions != int64(corrupts) || s.Degrades != int64(degrades) {
		t.Fatalf("stats %+v disagree with observed counts %d/%d/%d", s, drops, corrupts, degrades)
	}
	inj.ResetStats()
	if inj.Stats() != (Stats{}) {
		t.Fatal("ResetStats left counters nonzero")
	}
}

// TestKindsDecideIndependently: the same (src,dst,seq,attempt) must not
// share one fate across kinds, or an RTS drop would always imply a CTS drop.
func TestKindsDecideIndependently(t *testing.T) {
	inj := New(Config{Seed: 5, DropRate: 0.5})
	same := 0
	const n = 4096
	for i := 0; i < n; i++ {
		a := inj.ShouldDrop(KindRTS, 1, 2, uint64(i), NoChunk, 0)
		b := inj.ShouldDrop(KindCTS, 1, 2, uint64(i), NoChunk, 0)
		if a == b {
			same++
		}
	}
	if same < n*2/5 || same > n*3/5 {
		t.Fatalf("kinds correlated: %d/%d agreements at rate 0.5", same, n)
	}
}

// TestDegradeWindowsAreTransient: with rate 0.5 a node pair must see both
// healthy and degraded windows over time.
func TestDegradeWindowsAreTransient(t *testing.T) {
	inj := New(Config{Seed: 11, DegradeRate: 0.5})
	healthy, degraded := 0, 0
	for wdw := 0; wdw < 200; wdw++ {
		at := simtime.Time(wdw) * simtime.Time(DegradeWindow)
		if inj.BandwidthFactor(2, 3, at) < 1 {
			degraded++
		} else {
			healthy++
		}
		// Within one window the decision must be stable.
		if inj.BandwidthFactor(2, 3, at) != inj.BandwidthFactor(2, 3, at.Add(DegradeWindow/2)) {
			t.Fatal("decision flipped inside one window")
		}
	}
	if healthy == 0 || degraded == 0 {
		t.Fatalf("degradation not transient: %d healthy, %d degraded", healthy, degraded)
	}
}

func TestRankFateDeterministicAndCounted(t *testing.T) {
	cfg := Config{Seed: 17, CrashRate: 0.3, SilentRate: 0.3, FailWindow: 500 * simtime.Microsecond}
	const ranks = 64
	draw := func() (onsets []simtime.Time, silents, faileds []bool, st Stats) {
		i := New(cfg)
		for r := 0; r < ranks; r++ {
			onset, silent, failed := i.RankFate(r)
			onsets = append(onsets, onset)
			silents = append(silents, silent)
			faileds = append(faileds, failed)
		}
		return onsets, silents, faileds, i.Stats()
	}
	onsets, silents, faileds, st := draw()
	o2, s2, f2, st2 := draw()
	crashes, silences := int64(0), int64(0)
	for r := 0; r < ranks; r++ {
		if onsets[r] != o2[r] || silents[r] != s2[r] || faileds[r] != f2[r] {
			t.Fatalf("rank %d fate differs across identical injectors", r)
		}
		if !faileds[r] {
			if onsets[r] != 0 || silents[r] {
				t.Errorf("healthy rank %d got onset=%v silent=%v", r, onsets[r], silents[r])
			}
			continue
		}
		if onsets[r] < 0 || onsets[r] >= simtime.Time(cfg.FailWindow) {
			t.Errorf("rank %d onset %v outside [0, %v)", r, onsets[r], cfg.FailWindow)
		}
		if silents[r] {
			silences++
		} else {
			crashes++
		}
	}
	if crashes == 0 || silences == 0 {
		t.Fatalf("seed produced crashes=%d silences=%d; pick rates that exercise both", crashes, silences)
	}
	if st.Crashes != crashes || st.Silences != silences {
		t.Errorf("stats crashes=%d silences=%d, counted %d and %d", st.Crashes, st.Silences, crashes, silences)
	}
	if st != st2 {
		t.Errorf("fate counters differ across identical injectors: %+v vs %+v", st, st2)
	}
}

func TestResetStatsKeepsFateCounters(t *testing.T) {
	i := New(Config{Seed: 17, CrashRate: 1, CodecRate: 1})
	i.RankFate(0)
	if _, hit := i.CorruptCodec([]byte{1, 2, 3, 4}, 0, 1, 0, NoChunk, 0, 0); !hit {
		t.Fatal("CodecRate=1 did not corrupt")
	}
	st := i.Stats()
	if st.Crashes != 1 || st.CodecCorruptions != 1 {
		t.Fatalf("precondition: %+v", st)
	}
	i.ResetStats()
	st = i.Stats()
	if st.CodecCorruptions != 0 || st.BitsFlipped != 0 {
		t.Errorf("per-event counters survived reset: %+v", st)
	}
	if st.Crashes != 1 {
		t.Errorf("per-run fate counter was cleared by reset: %+v", st)
	}
}

func TestCorruptCodec(t *testing.T) {
	payload := []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80}

	// Rate 1: every compressed payload corrupts, the original is preserved.
	i := New(Config{Seed: 3, CodecRate: 1})
	orig := append([]byte(nil), payload...)
	wire, hit := i.CorruptCodec(payload, 0, 1, 9, NoChunk, 0, 0)
	if !hit {
		t.Fatal("CodecRate=1 did not corrupt")
	}
	if !bytes.Equal(payload, orig) {
		t.Fatal("CorruptCodec mutated the caller's payload")
	}
	if bytes.Equal(wire, payload) {
		t.Fatal("corrupted wire equals the original payload")
	}
	if st := i.Stats(); st.CodecCorruptions != 1 || st.BitsFlipped == 0 {
		t.Errorf("stats after one corruption: %+v", st)
	}

	// Identical identity -> identical corruption; a different attempt
	// draws independently.
	wire2, _ := New(Config{Seed: 3, CodecRate: 1}).CorruptCodec(payload, 0, 1, 9, NoChunk, 0, 0)
	if !bytes.Equal(wire, wire2) {
		t.Error("same event identity corrupted differently")
	}

	// Rate 0 and the nil injector are no-ops.
	if _, hit := New(Config{Seed: 3, DropRate: 0.5}).CorruptCodec(payload, 0, 1, 9, NoChunk, 0, 0); hit {
		t.Error("CodecRate=0 corrupted")
	}
	var nilInj *Injector
	if w, hit := nilInj.CorruptCodec(payload, 0, 1, 9, NoChunk, 0, 0); hit || !bytes.Equal(w, payload) {
		t.Error("nil injector corrupted")
	}

	// CodecUntil heals the codec: instants at or past the bound pass
	// untouched, instants before it still corrupt.
	h := New(Config{Seed: 3, CodecRate: 1, CodecUntil: 100 * simtime.Microsecond})
	if _, hit := h.CorruptCodec(payload, 0, 1, 9, NoChunk, 0, simtime.Time(100*simtime.Microsecond)); hit {
		t.Error("healed codec still corrupts at the bound")
	}
	if _, hit := h.CorruptCodec(payload, 0, 1, 9, NoChunk, 0, simtime.Time(99*simtime.Microsecond)); !hit {
		t.Error("codec already healed before CodecUntil")
	}

	// Empty payloads cannot corrupt.
	if _, hit := i.CorruptCodec(nil, 0, 1, 9, NoChunk, 0, 0); hit {
		t.Error("empty payload corrupted")
	}
}

func TestCrashConfigEnables(t *testing.T) {
	for _, cfg := range []Config{
		{CrashRate: 0.1},
		{SilentRate: 0.1},
		{CodecRate: 0.1},
	} {
		if New(cfg) == nil {
			t.Errorf("config %+v yielded a nil injector", cfg)
		}
	}
	if New(Config{Seed: 5}) != nil {
		t.Error("seed alone enabled injection")
	}
	// FailWindow defaults when a failure rate is set.
	if got := New(Config{CrashRate: 0.1}).Config().FailWindow; got != DefaultFailWindow {
		t.Errorf("FailWindow defaulted to %v, want %v", got, DefaultFailWindow)
	}
}
