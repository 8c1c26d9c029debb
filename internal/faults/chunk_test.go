package faults

import (
	"bytes"
	"testing"

	"mpicomp/internal/simtime"
)

// TestChunkIdentityCollisionFree is the regression test for the packed
// chunk identity the transport used to hash: deliverData was called with
// seq<<16|chunk, so (seq=1, chunk=0) and (seq=0, chunk=65536) were the
// same event and always shared one fate. Distinct (seq, chunk) pairs that
// collide under that packing must now decide independently.
func TestChunkIdentityCollisionFree(t *testing.T) {
	inj := New(Config{Seed: 7, ChunkDropRate: 0.5})
	type id struct {
		seq   uint64
		chunk int
	}
	agree, n := 0, 0
	for s := uint64(1); s <= 64; s++ {
		// Both identities pack to s<<16 under the old scheme.
		a := id{seq: s, chunk: 0}
		b := id{seq: 0, chunk: int(s << 16)}
		da := inj.ShouldDrop(KindChunk, 1, 2, a.seq, a.chunk, 0)
		db := inj.ShouldDrop(KindChunk, 1, 2, b.seq, b.chunk, 0)
		if da == db {
			agree++
		}
		n++
	}
	if agree == n {
		t.Fatalf("all %d old-scheme-colliding chunk pairs share a fate; chunk identity still aliases", n)
	}
}

// TestChunkDecisionsDeterministic: identical (seed, identity) tuples must
// decide identically across injectors and call orders, for every
// chunk-granular fate.
func TestChunkDecisionsDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 21, ChunkDropRate: 0.3, ChunkCorruptRate: 0.3,
		ChunkDuplicateRate: 0.3, ChunkReorderRate: 0.3, CodecRate: 0.3,
	}
	a, b := New(cfg), New(cfg)
	payload := bytes.Repeat([]byte{0x5A}, 64)
	type result struct {
		drop, corrupted, codec, dup, reorder bool
		wire, codecWire                      []byte
	}
	query := func(inj *Injector, seq uint64, chunk, attempt int) result {
		var r result
		r.drop = inj.ShouldDrop(KindChunk, 0, 1, seq, chunk, attempt)
		r.wire, r.corrupted = inj.Corrupt(payload, 0, 1, seq, chunk, attempt)
		r.codecWire, r.codec = inj.CorruptCodec(payload, 0, 1, seq, chunk, attempt, 0)
		r.dup, r.reorder = inj.ChunkFate(0, 1, seq, chunk)
		return r
	}
	const n = 64
	got := make([]result, n)
	for i := 0; i < n; i++ {
		got[i] = query(a, uint64(i/8), i%8, i%3)
	}
	for i := n - 1; i >= 0; i-- {
		r := query(b, uint64(i/8), i%8, i%3)
		if r.drop != got[i].drop || r.corrupted != got[i].corrupted ||
			r.codec != got[i].codec || r.dup != got[i].dup || r.reorder != got[i].reorder {
			t.Fatalf("event %d: chunk decisions diverged between injectors", i)
		}
		if !bytes.Equal(r.wire, got[i].wire) || !bytes.Equal(r.codecWire, got[i].codecWire) {
			t.Fatalf("event %d: chunk corruption pattern diverged", i)
		}
	}
}

// TestChunkRatesFallBackToMessageRates: with no chunk-specific rate set,
// the generic drop/corrupt rates govern chunks too, so "drop=0.01" in a
// fault spec exercises the pipelined path without extra keys.
func TestChunkRatesFallBackToMessageRates(t *testing.T) {
	inj := New(Config{Seed: 3, DropRate: 1, CorruptRate: 1})
	if !inj.ShouldDrop(KindChunk, 0, 1, 9, 2, 0) {
		t.Error("DropRate=1 did not drop a chunk")
	}
	payload := []byte{1, 2, 3, 4}
	if _, hit := inj.Corrupt(payload, 0, 1, 9, 2, 1); !hit {
		t.Error("CorruptRate=1 did not corrupt a chunk")
	}
	// Chunk-specific rates win when set.
	quiet := New(Config{Seed: 3, DropRate: 1, ChunkDropRate: 0.0000001})
	drops := 0
	for c := 0; c < 64; c++ {
		if quiet.ShouldDrop(KindChunk, 0, 1, 9, c, 0) {
			drops++
		}
	}
	if drops > 1 {
		t.Errorf("near-zero ChunkDropRate dropped %d/64 chunks under DropRate=1", drops)
	}
}

// TestChunkFateCountsAndRates: fates draw once per chunk at roughly the
// configured rates, land in the stats, and clear on reset.
func TestChunkFateCountsAndRates(t *testing.T) {
	inj := New(Config{Seed: 13, ChunkDuplicateRate: 0.25, ChunkReorderRate: 0.1})
	const n = 20000
	dups, reorders := 0, 0
	for c := 0; c < n; c++ {
		d, r := inj.ChunkFate(0, 1, uint64(c/64), c%64)
		if d {
			dups++
		}
		if r {
			reorders++
		}
	}
	check := func(name string, got int, want float64) {
		frac := float64(got) / n
		if frac < want*0.85 || frac > want*1.15 {
			t.Errorf("%s rate %.4f, want ~%.2f", name, frac, want)
		}
	}
	check("duplicate", dups, 0.25)
	check("reorder", reorders, 0.1)
	st := inj.Stats()
	if st.Duplicates != int64(dups) || st.Reorders != int64(reorders) {
		t.Fatalf("stats %+v disagree with observed %d/%d", st, dups, reorders)
	}
	inj.ResetStats()
	st = inj.Stats()
	if st.Duplicates != 0 || st.Reorders != 0 {
		t.Errorf("fate counters survived reset: %+v", st)
	}
}

// TestChunkNilAndDisabled: the nil injector and chunk-rate-free configs
// must leave chunks untouched, and chunk rates alone must enable a config.
func TestChunkNilAndDisabled(t *testing.T) {
	var nilInj *Injector
	if nilInj.ShouldDrop(KindChunk, 0, 1, 0, 0, 0) {
		t.Error("nil injector dropped a chunk")
	}
	p := []byte{1, 2, 3}
	if _, hit := nilInj.Corrupt(p, 0, 1, 0, 0, 0); hit {
		t.Error("nil injector corrupted a chunk")
	}
	if _, hit := nilInj.CorruptCodec(p, 0, 1, 0, 0, 0, 0); hit {
		t.Error("nil injector codec-corrupted a chunk")
	}
	if d, r := nilInj.ChunkFate(0, 1, 0, 0); d || r {
		t.Error("nil injector drew a chunk fate")
	}
	for _, cfg := range []Config{
		{ChunkDropRate: 0.1},
		{ChunkCorruptRate: 0.1},
		{ChunkDuplicateRate: 0.1},
		{ChunkReorderRate: 0.1},
	} {
		if !cfg.Enabled() {
			t.Errorf("config %+v not enabled", cfg)
		}
		if New(cfg) == nil {
			t.Errorf("config %+v yielded a nil injector", cfg)
		}
	}
}

// TestChunkKindsDecideIndependently: a chunk's drop, corruption, and fate
// draws must not correlate with each other or with the whole-message data
// fate of the same (src, dst, seq).
func TestChunkKindsDecideIndependently(t *testing.T) {
	inj := New(Config{Seed: 5, DropRate: 0.5, ChunkDropRate: 0.5, ChunkDuplicateRate: 0.5})
	sameMsg, sameFate := 0, 0
	const n = 4096
	for i := 0; i < n; i++ {
		chunkDrop := inj.ShouldDrop(KindChunk, 1, 2, uint64(i), 0, 0)
		msgDrop := inj.ShouldDrop(KindData, 1, 2, uint64(i), NoChunk, 0)
		dup, _ := inj.ChunkFate(1, 2, uint64(i), 0)
		if chunkDrop == msgDrop {
			sameMsg++
		}
		if chunkDrop == dup {
			sameFate++
		}
	}
	// Error reporting over a 2-entry map: the order does not affect outcomes.
	for name, same := range map[string]int{"chunk-vs-message": sameMsg, "drop-vs-fate": sameFate} {
		if same < n*2/5 || same > n*3/5 {
			t.Errorf("%s correlated: %d/%d agreements at rate 0.5", name, same, n)
		}
	}
}

// identityGolden records, for 96 (identity, attempt) pairs under two
// configs, what the six methods the injector had before its whole-message
// and chunk copies were merged decided — ShouldDrop / Corrupt /
// CorruptCodec for whole messages (chunk = NoChunk), ShouldDropChunk /
// CorruptChunk / CorruptCodecChunk / ChunkFate for chunks — over the
// 16-byte payload "0123456789abcdef". wire and codec hold the flipped
// bytes of a hit ("" for none). The three merged methods must reproduce
// every row: the hashes may not move.
var identityGolden = []struct {
	cfg            int
	kind           Kind
	src, dst       int
	seq            uint64
	chunk, attempt int
	at             simtime.Time
	drop           bool
	wire, codec    string
	dup, reorder   bool
}{
	{0, 1, 0, 0, 0, -1, 0, 0, true, "", "", false, false},
	{0, 2, 1, 3, 1, -1, 1, 3000, false, "2123t\x1567<9abcdef", "0123457789abcdef", false, false},
	{0, 3, 2, 2, 4, -1, 2, 6000, true, "", "01:3456789abceef", false, false},
	{0, 4, 0, 1, 9, -1, 3, 9000, false, "", "0123\x1456\xb789abC`ef", false, false},
	{0, 8, 1, 0, 16, 4, 0, 12000, false, "", "0123456g89abcdef", true, true},
	{0, 8, 2, 3, 25, 0, 1, 15000, false, "", "", true, false},
	{0, 1, 0, 2, 36, -1, 2, 18000, true, "0123456788abcdef", "p123456789abcDef", false, false},
	{0, 2, 1, 1, 49, -1, 3, 21000, false, "0123456789ar\xe3def", "0123456789ibcdef", false, false},
	{0, 3, 2, 0, 14, -1, 0, 24000, true, "", "", false, false},
	{0, 4, 0, 3, 31, -1, 1, 27000, false, "", "01234\xb56789abcdef", false, false},
	{0, 8, 1, 2, 1099511627786, 0, 2, 30000, false, "", "0y\x123456789abcdEf", false, true},
	{0, 8, 2, 1, 21, 1, 3, 33000, true, "0123456\xb789afcdef", "", true, true},
	{0, 1, 0, 0, 44, -1, 0, 36000, false, "", "", false, false},
	{0, 2, 1, 3, 19, -1, 1, 39000, true, "", "", false, false},
	{0, 3, 2, 2, 46, -1, 2, 42000, false, "0123456389abcdef", "0123456789abbde\xe6", false, false},
	{0, 4, 0, 1, 25, -1, 3, 45000, true, "", "2123456789abcdef", false, false},
	{0, 8, 1, 0, 6, 1, 0, 48000, true, "01234%v7:yabcdef", "4103456789aBcdef", true, false},
	{0, 8, 2, 3, 39, 2, 1, 51000, false, "0113456789abcdef", "0127456789abcdef", true, false},
	{0, 1, 0, 2, 24, -1, 2, 54000, false, "", "012#4=6789abcdef", false, false},
	{0, 2, 1, 1, 11, -1, 3, 57000, false, "", "", false, false},
	{0, 3, 2, 0, 0, -1, 0, 60000, true, "", "", false, false},
	{0, 4, 0, 3, 1099511627797, -1, 1, 63000, false, "0123056789abcdef", "", false, false},
	{0, 8, 1, 2, 34, 2, 2, 66000, true, "012#4\xb567\x1a9abcdef", "", false, false},
	{0, 8, 2, 1, 29, 3, 3, 69000, true, "01r3$56789abcdef", "", false, true},
	{0, 1, 0, 0, 26, -1, 0, 72000, true, "", "", false, false},
	{0, 2, 1, 3, 25, -1, 1, 75000, true, "", "01\"34567)9abcdef", false, false},
	{0, 3, 2, 2, 26, -1, 2, 78000, false, "", "01\x123456789abcdef", false, false},
	{0, 4, 0, 1, 29, -1, 3, 81000, true, "", "", false, false},
	{0, 8, 1, 0, 34, 3, 0, 84000, false, "", "", true, false},
	{0, 8, 2, 3, 41, 4, 1, 87000, false, "012\x13456799abcdef", "", false, false},
	{0, 1, 0, 2, 0, -1, 2, 90000, true, "0123456689abcdef", "012345678\xf9ab#def", false, false},
	{0, 2, 1, 1, 11, -1, 3, 93000, false, "", "", false, false},
	{0, 3, 2, 0, 1099511627808, -1, 0, 96000, true, "0123<56'89abcded", "0123456\x1789abcde\xe6", false, false},
	{0, 4, 0, 3, 39, -1, 1, 99000, true, "\xf012345678\x19Abcdef", "", false, false},
	{0, 8, 1, 2, 6, 4, 2, 102000, true, "", "0!234567\x189abcdef", true, true},
	{0, 8, 2, 1, 25, 0, 3, 105000, false, "0123056789\xe1bcDeg", "0\x1123456789abcdeb", true, true},
	{0, 1, 0, 0, 46, -1, 0, 108000, false, "092345&789abcdef", "01r\x13456381abcdef", false, false},
	{0, 2, 1, 3, 19, -1, 1, 111000, true, "", "", false, false},
	{0, 3, 2, 2, 44, -1, 2, 114000, true, "0123456\x1789ibcddg", "", false, false},
	{0, 4, 0, 1, 21, -1, 3, 117000, false, "", "", false, false},
	{0, 8, 1, 0, 0, 0, 0, 120000, true, "0123456709a\"cdgv", "01224u6789abcde\"", false, true},
	{0, 8, 2, 3, 31, 1, 1, 123000, false, "01\x133456789abcdef", "0123456789a\xe2cdef", true, false},
	{0, 1, 0, 2, 14, -1, 2, 126000, true, "", "", false, false},
	{0, 2, 1, 1, 1099511627819, -1, 3, 129000, true, "", "", false, false},
	{0, 3, 2, 0, 36, -1, 0, 132000, true, "01234$6789abcdeF", "", false, false},
	{0, 4, 0, 3, 25, -1, 1, 135000, false, "0123456789\xe1bcdef", "", false, false},
	{0, 8, 1, 2, 16, 1, 2, 138000, false, "", "0123456789a`Cdeb", true, true},
	{0, 8, 2, 1, 9, 2, 3, 141000, true, "", "2123456789abcdef", true, true},
	{1, 1, 0, 0, 0, -1, 0, 0, false, "", "0123454789abcdef", false, false},
	{1, 2, 1, 3, 1, -1, 1, 3000, false, "", "", false, false},
	{1, 3, 2, 2, 4, -1, 2, 6000, false, "", "", false, false},
	{1, 4, 0, 1, 9, -1, 3, 9000, false, "", "0123456789arcdef", false, false},
	{1, 8, 1, 0, 16, 4, 0, 12000, true, "", "0!234%6789abcd\xe5f", false, false},
	{1, 8, 2, 3, 25, 0, 1, 15000, true, "01\"3456\xa789abcdef", "", true, false},
	{1, 1, 0, 2, 36, -1, 2, 18000, false, "", "", false, false},
	{1, 2, 1, 1, 49, -1, 3, 21000, false, "", "01:3452789abadef", false, false},
	{1, 3, 2, 0, 14, -1, 0, 24000, false, "0123416789abcDeF", "", false, false},
	{1, 4, 0, 3, 31, -1, 1, 27000, false, "", "0123456\xb789abcdef", false, false},
	{1, 8, 1, 2, 1099511627786, 0, 2, 30000, false, "0123452\xb789arcdef", "", true, true},
	{1, 8, 2, 1, 21, 1, 3, 33000, true, "012345678\x19abadef", "01234\x116789abcdef", false, false},
	{1, 1, 0, 0, 44, -1, 0, 36000, true, "", "032345658\xb9abcdef", false, false},
	{1, 2, 1, 3, 19, -1, 1, 39000, false, "", "0\xb123456789\xe1badef", false, false},
	{1, 3, 2, 2, 46, -1, 2, 42000, true, "", "", false, false},
	{1, 4, 0, 1, 25, -1, 3, 45000, false, "012345v709a`Cdef", "", false, false},
	{1, 8, 1, 0, 6, 1, 0, 48000, true, "", "0\x1123456589abcdef", false, true},
	{1, 8, 2, 3, 39, 2, 1, 51000, false, "", "0123<567\x189absdef", true, false},
	{1, 1, 0, 2, 24, -1, 2, 54000, true, "", "01234567:9abcdef", false, false},
	{1, 2, 1, 1, 11, -1, 3, 57000, false, "", "0123$56789abadef", false, false},
	{1, 3, 2, 0, 0, -1, 0, 60000, false, "", "", false, false},
	{1, 4, 0, 3, 1099511627797, -1, 1, 63000, true, "", "01234567x9abcdef", false, false},
	{1, 8, 1, 2, 34, 2, 2, 66000, false, "41234%6789abcdmf", "0123456;89ajcdef", false, true},
	{1, 8, 2, 1, 29, 3, 3, 69000, true, "4123456789abcdef", "012345v788a\"cdef", true, false},
	{1, 1, 0, 0, 26, -1, 0, 72000, false, "", "012345678yabcdef", false, false},
	{1, 2, 1, 3, 25, -1, 1, 75000, false, "", "012345\x1679yabcdef", false, false},
	{1, 3, 2, 2, 26, -1, 2, 78000, true, "01214567\x189abcdef", "0123456\xb789abcdef", false, false},
	{1, 4, 0, 1, 29, -1, 3, 81000, false, "0123456789abcdeg", "", false, false},
	{1, 8, 1, 0, 34, 3, 0, 84000, true, "2123456789abcdef", "01\xb23456?89abc`ef", false, false},
	{1, 8, 2, 3, 41, 4, 1, 87000, true, "01r3456789abcdef", "", false, true},
	{1, 1, 0, 2, 0, -1, 2, 90000, false, "", "012345>\xb78)abCdef", false, false},
	{1, 2, 1, 1, 11, -1, 3, 93000, false, "", "0123$56789abadef", false, false},
	{1, 3, 2, 0, 1099511627808, -1, 0, 96000, false, "", "012\x13\x1456789abc\xe4ef", false, false},
	{1, 4, 0, 3, 39, -1, 1, 99000, false, "", "", false, false},
	{1, 8, 1, 2, 6, 4, 2, 102000, true, "0123056789`bc`ef", "", false, true},
	{1, 8, 2, 1, 25, 0, 3, 105000, true, "05234567x9abgdef", "", false, true},
	{1, 1, 0, 0, 46, -1, 0, 108000, false, "", "", false, false},
	{1, 2, 1, 3, 19, -1, 1, 111000, false, "", "", false, false},
	{1, 3, 2, 2, 44, -1, 2, 114000, false, "", "", false, false},
	{1, 4, 0, 1, 21, -1, 3, 117000, false, "", "", false, false},
	{1, 8, 1, 0, 0, 0, 0, 120000, true, "", "", true, false},
	{1, 8, 2, 3, 31, 1, 1, 123000, true, "012344v789abcden", "", false, false},
	{1, 1, 0, 2, 14, -1, 2, 126000, false, "", "", false, false},
	{1, 2, 1, 1, 1099511627819, -1, 3, 129000, false, "", "", false, false},
	{1, 3, 2, 0, 36, -1, 0, 132000, false, "", "", false, false},
	{1, 4, 0, 3, 25, -1, 1, 135000, false, "", "", false, false},
	{1, 8, 1, 2, 16, 1, 2, 138000, false, "012345>799abcdef", "", false, false},
	{1, 8, 2, 1, 9, 2, 3, 141000, false, "", "", false, false},
}

// identityConfigs are the two configs identityGolden was recorded under:
// generic rates only (chunks fall back to them), and chunk-specific rates
// that override the generic ones plus a codec that heals at 100 us.
var identityConfigs = []Config{
	{Seed: 41, DropRate: 0.5, CorruptRate: 0.5, CodecRate: 0.5, ChunkDuplicateRate: 0.5, ChunkReorderRate: 0.5},
	{Seed: 42, DropRate: 0.2, CorruptRate: 0.2, ChunkDropRate: 0.7, ChunkCorruptRate: 0.7, CodecRate: 0.6,
		CodecUntil: 100 * simtime.Microsecond, ChunkDuplicateRate: 0.3, ChunkReorderRate: 0.3},
}

// TestIdentityHashesUnchanged replays identityGolden through the merged
// methods, then checks the counters the recorded run ended with.
func TestIdentityHashesUnchanged(t *testing.T) {
	injs := []*Injector{New(identityConfigs[0]), New(identityConfigs[1])}
	payload := []byte("0123456789abcdef")
	hit := func(wire []byte, ok bool) string {
		if !ok {
			return ""
		}
		return string(wire)
	}
	for n, row := range identityGolden {
		inj := injs[row.cfg]
		if got := inj.ShouldDrop(row.kind, row.src, row.dst, row.seq, row.chunk, row.attempt); got != row.drop {
			t.Errorf("row %d: drop = %v, recorded %v", n, got, row.drop)
		}
		if got := hit(inj.Corrupt(payload, row.src, row.dst, row.seq, row.chunk, row.attempt)); got != row.wire {
			t.Errorf("row %d: wire corruption = %q, recorded %q", n, got, row.wire)
		}
		if got := hit(inj.CorruptCodec(payload, row.src, row.dst, row.seq, row.chunk, row.attempt, row.at)); got != row.codec {
			t.Errorf("row %d: codec corruption = %q, recorded %q", n, got, row.codec)
		}
		if dup, reorder := inj.ChunkFate(row.src, row.dst, row.seq, row.chunk); dup != row.dup || reorder != row.reorder {
			t.Errorf("row %d: fate = (%v, %v), recorded (%v, %v)", n, dup, reorder, row.dup, row.reorder)
		}
		if row.chunk == NoChunk && (row.dup || row.reorder) {
			t.Errorf("row %d: a whole message has no chunk fate", n)
		}
	}
	want := []Stats{
		{Drops: 25, Corruptions: 21, BitsFlipped: 105, CodecCorruptions: 24, Duplicates: 11, Reorders: 9},
		{Drops: 16, Corruptions: 15, BitsFlipped: 84, CodecCorruptions: 22, Duplicates: 5, Reorders: 6},
	}
	for c, inj := range injs {
		if got := inj.Stats(); got != want[c] {
			t.Errorf("config %d counters %+v, recorded %+v", c, got, want[c])
		}
	}
}
