package core

import (
	"math"

	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// The compress-once cache.
//
// Fan-out collectives compress the same bytes repeatedly: a flat Bcast
// root compresses once per binomial-tree child, a BcastHierarchical
// leader once per node-local peer, Scatter/Allgather roots once per
// destination of their own block, and every warm benchmark iteration
// recompresses an unchanged buffer. gZCCL and similar
// compression-accelerated collective designs show that reusing the
// compressed block across those fan-out edges is where the collective
// speedup lives — the kernel runs once, the wire bytes go to N
// destinations.
//
// A CompressedRef is keyed by the buffer's content version — the root
// allocation's process-unique id, the byte range within it, and the
// allocation's epoch (gpusim.Buffer.Version). Every write to a tracked
// device buffer bumps the epoch (gpusim.Buffer.MarkDirty; the engine
// does it in Decompress, the MPI runtime at each receive/reduce/copy
// site), so a hit is possible only while the bytes are provably
// unchanged. Untracked buffers — anything that never called Track —
// bypass the cache entirely and behave exactly as before.
//
// Determinism: the cache is per-engine state mutated only under e.mu in
// the owning rank's program order; lookups scan a slice (no map
// iteration), and epochs are compared for equality only. Which sends hit
// does not depend on scheduling: a 4x2 MPC Bcast's root misses once and
// hits on every later iteration in every run, under any GOMAXPROCS
// (TestBcastCacheHitsIgnoreScheduling). The simulated latency of that
// Bcast at 8 MiB still reads several values run to run with the cache on
// and one with it off: a hit skips the compress kernel, and what is left
// is decided by the order sends book the shared link calendars (DESIGN.md
// §11, ROADMAP item 4). The cache exposes that spread; it does not cause
// it. A hit returns the identical payload and header bytes the miss
// produced — results are bit-identical to the uncached path; only the
// simulated clock and the host wall-clock get cheaper.

// cacheKey identifies one cacheable compression input: an exact byte
// range of a tracked allocation, compressed for a given link class.
// bw is the link bandwidth's bit pattern and k the chunk count of the
// send when dynamic selection is on (the gate's decision depends on
// both); zero otherwise, so all links and cuts share one entry. For typed
// (derived-datatype) compressions, sig is the layout's signature and poff
// the packed byte offset of the chunk within the layout's packed stream —
// so repeated halo sends of an unchanged strided face hit the same entry,
// while contiguous entries (sig 0) never collide with typed ones. sched is the engine's current schedule
// tag (SetScheduleTag): collective algorithm dispatch keys cached
// payloads per schedule, so back-to-back algorithm comparisons over the
// same buffer never subsidize each other's warm iterations.
type cacheKey struct {
	id    uint64
	off   int
	n     int
	bw    uint64
	k     int
	sig   uint64
	poff  int
	sched uint32
}

// cacheEntry is one CompressedRef: the wire payload and header produced
// for key at the recorded content epoch. Payload and header are shared
// read-only with the transport (fault injection copies before
// corrupting; relays forward verbatim).
type cacheEntry struct {
	key     cacheKey
	epoch   uint64
	payload []byte
	hdr     Header
}

// CacheStats is a snapshot of compress-once cache and relay activity,
// aggregatable across ranks.
type CacheStats struct {
	Hits          int
	Misses        int
	Invalidations int
	Evictions     int
	Entries       int
	Bytes         int
	// RelayedBytes are wire bytes forwarded verbatim by relay
	// collectives; RecompressedBytes are wire bytes produced by fresh
	// compressions (the engine's BytesOut).
	RelayedBytes      int64
	RecompressedBytes int64
	// PipelinedChunks counts chunk-granularity pipeline steps.
	PipelinedChunks int
}

// Add accumulates another snapshot (for cross-rank totals).
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Invalidations += o.Invalidations
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.RelayedBytes += o.RelayedBytes
	s.RecompressedBytes += o.RecompressedBytes
	s.PipelinedChunks += o.PipelinedChunks
}

// CacheSnapshot returns the engine's cache/relay/pipeline counters.
func (e *Engine) CacheSnapshot() CacheStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return CacheStats{
		Hits:              e.CacheHits,
		Misses:            e.CacheMisses,
		Invalidations:     e.CacheInvalidations,
		Evictions:         e.CacheEvictions,
		Entries:           len(e.cache),
		Bytes:             e.cacheBytes,
		RelayedBytes:      e.RelayedBytes,
		RecompressedBytes: e.BytesOut,
		PipelinedChunks:   e.PipelinedChunks,
	}
}

// NoteRelay records n wire bytes forwarded verbatim (no recompression).
func (e *Engine) NoteRelay(n int) {
	e.mu.Lock()
	e.RelayedBytes += int64(n)
	e.mu.Unlock()
}

// NotePipelinedChunks records n chunk-granularity pipeline steps.
func (e *Engine) NotePipelinedChunks(n int) {
	e.mu.Lock()
	e.PipelinedChunks += n
	e.mu.Unlock()
}

// cacheEnabled reports whether the compress-once cache is on.
func (e *Engine) cacheEnabled() bool {
	return e.cfg.CacheEntries > 0 && e.cfg.CacheBudgetBytes > 0
}

// cacheKeyFor keys packed bytes [off, off+n) of the words t selects from
// buf (of buf itself when t is nil), a part of a k-part send over a link of
// bwGBps, and returns the buffer's current epoch; ok is false when the
// cache is off or buf is untracked. A contiguous part is keyed by its own
// byte range of the allocation, a layout's part by (layout signature,
// packed offset).
func (e *Engine) cacheKeyFor(buf *gpusim.Buffer, t dtype.Type, off, n, k int, bwGBps float64) (key cacheKey, epoch uint64, ok bool) {
	id, allocOff, epoch, tracked := buf.Version()
	if !tracked || !e.cacheEnabled() {
		return cacheKey{}, 0, false
	}
	key = cacheKey{id: id, off: allocOff, n: n, sched: e.schedTag.Load()}
	if e.cfg.Dynamic {
		key.bw, key.k = math.Float64bits(bwGBps), k
	}
	if t == nil {
		key.off += off
	} else {
		key.sig, key.poff = t.Signature(), off
	}
	return key, epoch, true
}

// cacheFindLocked returns the index of key's entry, -1 when there is
// none.
func (e *Engine) cacheFindLocked(key cacheKey) int {
	for i := range e.cache {
		if e.cache[i].key == key {
			return i
		}
	}
	return -1
}

// cacheLookupLocked scans for key at epoch. A key match at a stale
// epoch is removed (the buffer was written since).
func (e *Engine) cacheLookupLocked(key cacheKey, epoch uint64) ([]byte, Header, bool) {
	i := e.cacheFindLocked(key)
	switch {
	case i < 0:
		return nil, Header{}, false
	case e.cache[i].epoch == epoch:
		e.CacheHits++
		return e.cache[i].payload, e.cache[i].hdr, true
	}
	e.CacheInvalidations++
	e.cacheDropLocked(i)
	return nil, Header{}, false
}

// cacheDropLocked removes entry i, keeping the FIFO order of the rest: the
// entries above it move down and the vacated last slot is cleared, so the
// backing array keeps no dropped payload reachable (the table is at most
// CacheEntries long; re-slicing it instead pinned up to a second
// CacheBudgetBytes of evicted payloads per engine).
func (e *Engine) cacheDropLocked(i int) {
	e.cacheBytes -= len(e.cache[i].payload)
	last := len(e.cache) - 1
	copy(e.cache[i:], e.cache[i+1:])
	e.cache[last] = cacheEntry{}
	e.cache = e.cache[:last]
}

// cacheInsertLocked retains (payload, hdr) for key at epoch, evicting
// oldest entries (FIFO) to respect the entry and byte budgets.
// Payloads larger than the whole budget are not cached.
func (e *Engine) cacheInsertLocked(key cacheKey, epoch uint64, payload []byte, hdr Header) {
	if len(payload) > e.cfg.CacheBudgetBytes {
		return
	}
	if i := e.cacheFindLocked(key); i >= 0 {
		e.cacheDropLocked(i)
	}
	for len(e.cache) > 0 &&
		(len(e.cache) >= e.cfg.CacheEntries || e.cacheBytes+len(payload) > e.cfg.CacheBudgetBytes) {
		e.cacheDropLocked(0)
		e.CacheEvictions++
	}
	e.cache = append(e.cache, cacheEntry{key: key, epoch: epoch, payload: payload, hdr: hdr})
	e.cacheBytes += len(payload)
}

// CompressForLinkCached is Compress behind the dynamic-selection gate
// (dynamic.go) and the compress-once cache. For a tracked buffer whose
// (range, epoch, link) was compressed before, the cached wire payload and
// header are returned with no simulated-clock charge and no host codec
// work — the kernel was charged once, at the miss. Untracked buffers fall
// through unchanged.
//
// The returned payload and header are shared with the cache and with
// other in-flight sends of the same block; they are read-only by
// contract everywhere downstream (the transport snapshots on fault
// injection, receivers never write into wire payloads).
func (e *Engine) CompressForLinkCached(clk *simtime.Clock, buf *gpusim.Buffer, bwGBps float64) ([]byte, Header) {
	return e.CompressChunkCached(clk, buf, nil, 0, buf.Len(), 1, bwGBps)
}

// CompressChunkCached is CompressForLinkCached for packed bytes
// [off, off+n) of the words t selects from buf (of buf itself when t is
// nil): one chunk of a send cut into k (the dynamic gate prices the send
// at that k), or a whole message when k is 1. Every chunk caches
// independently (cacheKeyFor), so repeated sends of an unchanged strided
// face reuse the first send's wire payload. It records the send on buf's
// allocation (gpusim.Buffer.NoteSend), which the chooser reads.
func (e *Engine) CompressChunkCached(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n, k int, bwGBps float64) ([]byte, Header) {
	buf.NoteSend()
	m := message{buf: buf, t: t, off: off, n: n}
	e.mu.Lock()
	defer e.mu.Unlock()
	key, epoch, ok := e.cacheKeyFor(buf, t, off, n, k, bwGBps)
	if !ok {
		return snapshot(e.compressForLinkLocked(clk, m, k, bwGBps))
	}
	if payload, hdr, ok := e.cacheLookupLocked(key, epoch); ok {
		return payload, hdr
	}
	e.CacheMisses++
	fallbacksBefore := e.PoolFallbacks
	payload, hdr := snapshot(e.compressForLinkLocked(clk, m, k, bwGBps))
	if e.PoolFallbacks != fallbacksBefore {
		// Pool exhaustion is a transient condition of this moment, not a
		// property of the bytes; caching the degraded form would freeze
		// it past the pool's recovery.
		return payload, hdr
	}
	if _, _, now, ok := buf.Version(); !ok || now != epoch {
		// Written during compression (a concurrent receive into the same
		// allocation): the payload is still the correct snapshot for
		// this send, but no longer provably current — don't retain it.
		return payload, hdr
	}
	e.cacheInsertLocked(key, epoch, payload, hdr)
	return payload, hdr
}
