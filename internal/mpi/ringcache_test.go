package mpi

import (
	"bytes"
	"hash/crc32"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// ringSoak replays a warm-iteration collective mix — hierarchical bcast
// fan-out from a persistent root buffer, plus the pipelined and blocking
// ring allreduce on every iteration — and returns the makespan, a CRC of
// each rank's results, and the aggregated cache/relay counters. The mix
// is the differential harness for the collective fast paths: inside the
// run, every iteration checks the pipelined ring against its blocking
// oracle byte for byte (both configs here are lossless, so they must
// agree exactly).
func ringSoak(t *testing.T, workers, cacheEntries int, mode core.Mode, algo core.Algorithm) (simtime.Time, []uint32, core.CacheStats) {
	t.Helper()
	const (
		ranks = 8
		words = 1 << 16 // 256 KB: 32 KB ring blocks, chunked by 16 KB
		iters = 3
	)
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 4, PPN: 2,
		Engine: core.Config{Mode: mode, Algorithm: algo,
			Threshold: 16 << 10, PoolBufBytes: 4 << 20,
			Workers: workers, CacheEntries: cacheEntries,
			PipelineChunkBytes: 16 << 10},
	})
	crcs := make([]uint32, ranks)
	times, err := w.Run(func(r *Rank) error {
		vals := make([]float32, words)
		for i := range vals {
			vals[i] = float32(r.ID()+1) + float32(i%1021)*0.25
		}
		send := devBuf(r, vals).Track()
		fan := emptyDevBuf(r, words).Track()
		if r.ID() == 0 {
			core.FloatsToBytes(fan.Data[:0], vals)
			fan.MarkDirty()
		}
		fast := emptyDevBuf(r, words)
		slow := emptyDevBuf(r, words)
		h := crc32.NewIEEE()
		for it := 0; it < iters; it++ {
			// The root's buffer is unchanged across iterations, so warm
			// fan-outs must reuse the first iteration's compression.
			if err := r.BcastHierarchical(0, fan); err != nil {
				return err
			}
			if err := allreduceBy(sched.Ring, true)(r, send, fast); err != nil {
				return err
			}
			if err := allreduceBy(sched.Ring, false)(r, send, slow); err != nil {
				return err
			}
			if !bytes.Equal(fast.Data, slow.Data) {
				t.Errorf("rank %d iter %d: pipelined and blocking ring allreduce disagree", r.ID(), it)
			}
			h.Write(fan.Data)
			h.Write(fast.Data)
		}
		crcs[r.ID()] = h.Sum32()
		return r.Barrier()
	})
	if err != nil {
		t.Fatalf("ring soak (workers=%d cache=%d): %v", workers, cacheEntries, err)
	}
	var cs core.CacheStats
	for i := 0; i < w.Size(); i++ {
		cs.Add(w.Rank(i).Engine.CacheSnapshot())
	}
	return MaxTime(times), crcs, cs
}

// TestRingCachedVsUncachedBitIdentical: disabling the compress-once
// cache must not change a single result byte — only the virtual clock.
// The cached run must actually exercise the machinery it claims to
// (hits, relays, pipelined chunks) and finish no later than the
// uncached run.
func TestRingCachedVsUncachedBitIdentical(t *testing.T) {
	cachedTime, cachedCRCs, cs := ringSoak(t, 1, 0, core.ModeOpt, core.AlgoMPC)
	uncachedTime, uncachedCRCs, un := ringSoak(t, 1, -1, core.ModeOpt, core.AlgoMPC)

	for rank := range cachedCRCs {
		if cachedCRCs[rank] != uncachedCRCs[rank] {
			t.Errorf("rank %d: cached CRC %08x != uncached %08x", rank, cachedCRCs[rank], uncachedCRCs[rank])
		}
	}
	if cs.Hits == 0 {
		t.Errorf("cached run recorded no hits: %+v", cs)
	}
	if cs.RelayedBytes == 0 || cs.PipelinedChunks == 0 {
		t.Errorf("fast paths not exercised: %+v", cs)
	}
	if un.Hits != 0 || un.Misses != 0 {
		t.Errorf("disabled cache recorded activity: %+v", un)
	}
	if cachedTime > uncachedTime {
		t.Errorf("cache made the run slower: %v > %v", cachedTime, uncachedTime)
	}
}

// TestRingSoakWorkerCountInvariance: the collective fast paths stay
// worker-count-invariant — codec pool sizes 1, 2, and 8 produce the
// identical makespan, bytes, and cache counters (cache behavior depends
// only on buffer versions, never on host scheduling).
func TestRingSoakWorkerCountInvariance(t *testing.T) {
	refTime, refCRCs, refStats := ringSoak(t, 1, 0, core.ModeOpt, core.AlgoMPC)
	for _, workers := range []int{2, 8} {
		mt, crcs, cs := ringSoak(t, workers, 0, core.ModeOpt, core.AlgoMPC)
		if mt != refTime {
			t.Errorf("workers=%d: makespan %v, serial %v", workers, mt, refTime)
		}
		if cs != refStats {
			t.Errorf("workers=%d: cache stats %+v, serial %+v", workers, cs, refStats)
		}
		for rank, c := range crcs {
			if c != refCRCs[rank] {
				t.Errorf("workers=%d: rank %d CRC %08x, serial %08x", workers, rank, c, refCRCs[rank])
			}
		}
	}
}

// TestRingSoakUncompressedConfig runs the same differential soak with
// compression off entirely: the relay and chunk plumbing must be
// byte-exact on raw payloads too.
func TestRingSoakUncompressedConfig(t *testing.T) {
	_, a, _ := ringSoak(t, 1, 0, core.ModeOff, core.AlgoNone)
	_, b, _ := ringSoak(t, 2, 0, core.ModeOff, core.AlgoNone)
	for rank := range a {
		if a[rank] != b[rank] {
			t.Errorf("rank %d: CRC differs across worker counts: %08x vs %08x", rank, a[rank], b[rank])
		}
	}
}
