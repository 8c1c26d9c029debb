package core

import (
	"bytes"
	"testing"

	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
)

// cacheConfig is an opt-mode MPC engine with the cache on.
// cacheConfig compresses every eligible message whole
// (PipelineChunkBytes -1): the cache serves compressed payloads, and the
// model would send these smooth test messages uncompressed.
func cacheConfig() Config {
	return Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 1, PipelineChunkBytes: -1}
}

// TestCacheHitReturnsIdenticalPayloadForFree is the compress-once
// contract: a second compression of an unchanged tracked buffer returns
// the exact payload bytes of the first and charges nothing to the
// virtual clock.
func TestCacheHitReturnsIdenticalPayloadForFree(t *testing.T) {
	e, dev, clk := newTestEngine(t, cacheConfig())
	buf := deviceBufferWith(dev, smooth(1<<18, 1)).Track()

	p1, h1 := e.CompressForLinkCached(clk, buf, 12.5)
	afterMiss := clk.Now()
	p2, h2 := e.CompressForLinkCached(clk, buf, 12.5)

	if clk.Now() != afterMiss {
		t.Fatalf("cache hit advanced the clock: %v -> %v", afterMiss, clk.Now())
	}
	if !bytes.Equal(p1, p2) || h1.CompBytes != h2.CompBytes {
		t.Fatal("hit returned different payload than the miss")
	}
	st := e.CacheSnapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCacheEpochInvalidation is the stale-read regression test: writing
// the buffer (MarkDirty) must invalidate the entry, and the next
// compression must reflect the new bytes — a stale hit here would send
// old data.
func TestCacheEpochInvalidation(t *testing.T) {
	e, dev, clk := newTestEngine(t, cacheConfig())
	vals := smooth(1<<18, 1)
	buf := deviceBufferWith(dev, vals).Track()

	p1, _ := e.CompressForLinkCached(clk, buf, 12.5)

	// Overwrite the device bytes and mark the write, as every runtime
	// write site (receive, reduction, local copy) does.
	copy(buf.Data, FloatsToBytes(nil, smooth(1<<18, 2)))
	buf.MarkDirty()

	p2, h2 := e.CompressForLinkCached(clk, buf, 12.5)
	if bytes.Equal(p1, p2) {
		t.Fatal("stale payload served after the buffer changed")
	}
	st := e.CacheSnapshot()
	if st.Invalidations != 1 || st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// The fresh payload must decode to the new contents.
	dst := &gpusim.Buffer{Data: make([]byte, buf.Len()), Loc: gpusim.Device, Dev: dev}
	if err := e.Decompress(clk, h2, p2, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Data, buf.Data) {
		t.Fatal("recompressed payload does not decode to the new bytes")
	}
}

// TestCacheUntrackedAndDisabledBypass: untracked buffers and a disabled
// cache behave exactly like the uncached path and record no stats.
func TestCacheUntrackedAndDisabledBypass(t *testing.T) {
	e, dev, clk := newTestEngine(t, cacheConfig())
	untracked := deviceBufferWith(dev, smooth(1<<16, 3))
	e.CompressForLinkCached(clk, untracked, 12.5)
	e.CompressForLinkCached(clk, untracked, 12.5)
	if st := e.CacheSnapshot(); st.Hits+st.Misses+st.Entries != 0 {
		t.Fatalf("untracked buffer touched the cache: %+v", st)
	}

	cfg := cacheConfig()
	cfg.CacheEntries = -1
	off, dev2, clk2 := newTestEngine(t, cfg)
	tracked := deviceBufferWith(dev2, smooth(1<<16, 3)).Track()
	off.CompressForLinkCached(clk2, tracked, 12.5)
	off.CompressForLinkCached(clk2, tracked, 12.5)
	if st := off.CacheSnapshot(); st.Hits+st.Misses+st.Entries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", st)
	}
}

// TestCacheSliceKeysAreDistinct: two ranges of one allocation are
// separate cache keys, and both hit independently.
func TestCacheSliceKeysAreDistinct(t *testing.T) {
	e, dev, clk := newTestEngine(t, cacheConfig())
	buf := deviceBufferWith(dev, smooth(1<<18, 4)).Track()
	half := buf.Len() / 2
	lo, hi := buf.Slice(0, half), buf.Slice(half, half)

	pl1, _ := e.CompressForLinkCached(clk, lo, 12.5)
	ph1, _ := e.CompressForLinkCached(clk, hi, 12.5)
	pl2, _ := e.CompressForLinkCached(clk, lo, 12.5)
	ph2, _ := e.CompressForLinkCached(clk, hi, 12.5)

	if !bytes.Equal(pl1, pl2) || !bytes.Equal(ph1, ph2) {
		t.Fatal("slice hits returned wrong payloads")
	}
	st := e.CacheSnapshot()
	if st.Hits != 2 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCacheEvictionRespectsBudgets: the entry cap evicts FIFO, and a
// payload larger than the byte budget is never cached (the oversized
// payload is a length only: its pages are never touched).
func TestCacheEvictionRespectsBudgets(t *testing.T) {
	cfg := cacheConfig()
	cfg.CacheEntries = 2
	e, dev, clk := newTestEngine(t, cfg)

	bufs := make([]*gpusim.Buffer, 3)
	for i := range bufs {
		bufs[i] = deviceBufferWith(dev, smooth(1<<16, int64(10+i))).Track()
		e.CompressForLinkCached(clk, bufs[i], 12.5)
	}
	st := e.CacheSnapshot()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("entry cap not enforced: %+v", st)
	}
	// The first buffer was evicted: compressing it again is a miss.
	e.CompressForLinkCached(clk, bufs[0], 12.5)
	if st := e.CacheSnapshot(); st.Hits != 0 {
		t.Fatalf("evicted entry hit: %+v", st)
	}

	e2, _, _ := newTestEngine(t, cacheConfig())
	e2.mu.Lock()
	e2.cacheInsertLocked(cacheKey{id: 1}, 0, make([]byte, DefaultCacheBudgetBytes+1), Header{})
	e2.mu.Unlock()
	if st := e2.CacheSnapshot(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("over-budget payload cached: %+v", st)
	}
}

// TestCacheDropsReleasePayloads is the white-box half of the budget: an
// entry that was evicted or invalidated must leave the table's backing
// array, not just its length, or the payload stays reachable past the
// byte budget — in the slots a re-sliced table leaves behind its start, or
// in the tail slot a shifted one leaves behind its end. The counters the
// run passes through are pinned alongside, so the fix cannot have changed
// which sends hit.
func TestCacheDropsReleasePayloads(t *testing.T) {
	cfg := cacheConfig()
	cfg.CacheEntries = 3
	e, dev, clk := newTestEngine(t, cfg)
	bufs := make([]*gpusim.Buffer, 5)
	for i := range bufs {
		bufs[i] = deviceBufferWith(dev, smooth(1<<16, int64(30+i))).Track()
	}
	send := func(i int) { e.CompressForLinkCached(clk, bufs[i], 12.5) }

	send(0)
	send(1)
	send(2)
	// The table is full: from here on it must stay where it is in its
	// backing array, with nothing in the slots past its length.
	base := &e.cache[0]
	var got []CacheStats
	check := func() {
		t.Helper()
		st := e.CacheSnapshot()
		got = append(got, CacheStats{Hits: st.Hits, Misses: st.Misses, Invalidations: st.Invalidations,
			Evictions: st.Evictions, Entries: st.Entries})
		if &e.cache[0] != base {
			t.Fatalf("step %d: the table moved up its backing array, leaving dropped entries behind it", len(got))
		}
		for i, ce := range e.cache[len(e.cache):cap(e.cache)] {
			if ce.payload != nil {
				t.Fatalf("step %d: slot %d past the table's %d entries still holds a %d-byte payload",
					len(got), len(e.cache)+i, len(e.cache), len(ce.payload))
			}
		}
		sum := 0
		for _, ce := range e.cache {
			sum += len(ce.payload)
		}
		if sum != st.Bytes {
			t.Fatalf("step %d: entries hold %d bytes, the budget counts %d", len(got), sum, st.Bytes)
		}
	}
	check()
	send(3) // evicts 0
	check()
	bufs[2].MarkDirty() // a middle entry goes stale and is re-inserted
	send(2)
	check()
	send(1) // both still hit
	send(3)
	check()
	send(4) // evicts 1, then 3
	send(0)
	check()
	bufs[0].MarkDirty() // 0 and 4 go stale; 4 is re-inserted, 2 hits
	bufs[4].MarkDirty()
	send(4)
	send(2)
	check()
	// An invalidation with no insert behind it: the lookup alone must
	// clear the slot it vacates.
	e.mu.Lock()
	e.cacheLookupLocked(e.cache[1].key, e.cache[1].epoch+1)
	e.mu.Unlock()
	check()

	want := []CacheStats{
		{Misses: 3, Entries: 3},
		{Misses: 4, Evictions: 1, Entries: 3},
		{Misses: 5, Invalidations: 1, Evictions: 1, Entries: 3},
		{Hits: 2, Misses: 5, Invalidations: 1, Evictions: 1, Entries: 3},
		{Hits: 2, Misses: 7, Invalidations: 1, Evictions: 3, Entries: 3},
		{Hits: 3, Misses: 8, Invalidations: 2, Evictions: 3, Entries: 3},
		{Hits: 3, Misses: 8, Invalidations: 3, Evictions: 3, Entries: 2},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("step %d: stats %+v, want %+v", i+1, got[i], want[i])
		}
	}
}

// TestCacheDynamicKeyPerLink: the model picks a send's form before the
// cache is asked, and a compressed payload is the same bytes whatever link
// it crosses, so one entry serves every link the send compresses on — IB
// EDR and the half of it two ranks of a node share — while a link where
// the model sends uncompressed (3-lane NVLink) leaves the cache alone.
func TestCacheDynamicKeyPerLink(t *testing.T) {
	cfg := cacheConfig()
	cfg.PipelineChunkBytes = 0
	e, dev, clk := newTestEngine(t, cfg)
	vals := make([]float32, 1<<20)
	for i := range vals {
		vals[i] = 1.0
	}
	buf := deviceBufferWith(dev, vals).Track()
	e.CompressForLinkCached(clk, buf, 12.5)
	e.CompressForLinkCached(clk, buf, 6.25)
	if st := e.CacheSnapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("the links did not share an entry: %+v", st)
	}
	bypasses := e.Bypasses
	_, hdr := e.CompressForLinkCached(clk, buf, 75)
	if hdr.Compressed || e.Bypasses != bypasses+1 {
		t.Fatalf("NVLink send compressed %v, bypasses %d -> %d", hdr.Compressed, bypasses, e.Bypasses)
	}
	if st := e.CacheSnapshot(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("an uncompressed send touched the cache: %+v", st)
	}
}

// TestCacheSurvivesResetCounters: ResetCounters starts a measurement
// window — it clears the counters but keeps warmed entries, so warm
// benchmark iterations observe the steady state.
func TestCacheSurvivesResetCounters(t *testing.T) {
	e, dev, clk := newTestEngine(t, cacheConfig())
	buf := deviceBufferWith(dev, smooth(1<<18, 6)).Track()
	e.CompressForLinkCached(clk, buf, 12.5)
	e.ResetCounters()
	st := e.CacheSnapshot()
	if st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("reset dropped entries or kept counters: %+v", st)
	}
	e.CompressForLinkCached(clk, buf, 12.5)
	if st := e.CacheSnapshot(); st.Hits != 1 {
		t.Fatalf("warmed entry missed after reset: %+v", st)
	}
}

// TestCacheVersionTracking covers the gpusim side: slices share the
// root's identity at shifted offsets, and MarkDirty is visible through
// every view.
func TestCacheVersionTracking(t *testing.T) {
	dev := gpusim.NewDevice(hw.TeslaV100(), 4)
	root := (&gpusim.Buffer{Data: make([]byte, 256), Loc: gpusim.Device, Dev: dev}).Track()
	id0, off0, ep0, ok := root.Version()
	if !ok || off0 != 0 {
		t.Fatalf("root version: %d %d %d %v", id0, off0, ep0, ok)
	}
	view := root.Slice(64, 64).Slice(16, 16)
	id1, off1, ep1, ok := view.Version()
	if !ok || id1 != id0 || off1 != 80 || ep1 != ep0 {
		t.Fatalf("nested slice version: %d %d %d", id1, off1, ep1)
	}
	view.MarkDirty()
	if _, _, ep2, _ := root.Version(); ep2 != ep0+1 {
		t.Fatalf("MarkDirty through a slice not visible at root: %d vs %d", ep2, ep0)
	}
	if _, _, _, ok := (&gpusim.Buffer{Data: make([]byte, 8)}).Version(); ok {
		t.Fatal("untracked buffer reported a version")
	}
}
