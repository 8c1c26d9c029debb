// Collective fast-path benchmarks: before/after evidence for the
// compress-once cache, the pipelined/relay ring allreduce, and the
// datatype-aware pack+compress fusion.
//
// TestWriteBenchColl (env-gated: BENCH_COLL=1) measures simulated
// latency and host wall-clock for bcast, hierarchical bcast, allgather,
// alltoallv, and ring-allreduce at 1 MB and 8 MB on an 8-rank (4x2)
// Longhorn world, writing BENCH_coll.json. "Before" arms run with the
// compress-once cache disabled — and, for the ring, the blocking
// whole-block algorithm — i.e. the code paths as they were before the
// fast paths landed; "after" arms run the defaults. The ring row at
// 8 MB also differentially verifies that the pipelined/relay ring and
// its blocking oracle produce byte-identical reductions.
//
// rd-allreduce and rab-allreduce rows measure the algorithm crossover
// against the pipelined ring at 32 KB and 4 MB: recursive doubling
// (log2 P rounds, whole vector per round) must win the small-message
// latency regime, the bandwidth-optimal ring the large regime, and
// both new schedules must be payload-bit-identical to their blocking
// oracles.
//
// A final awpodc-halo row compares the staged halo exchange (pack and
// unpack kernels charged honestly, HaloPacked=true) against the fused
// typed path (Subarray3D boundary views, zero staging copies): the
// typed arm must be bit-identical on the wire and >= 15% faster on
// per-step halo latency.
package mpicomp_test

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/core"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/omb"
)

const (
	benchCollNodes  = 4
	benchCollPPN    = 2
	benchCollWarmup = 1
	benchCollIters  = 3
)

// benchCollWorld builds the measurement world. cacheEntries <0 disables
// the compress-once cache (the "before" configuration).
func benchCollWorld(t *testing.T, cacheEntries int) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Options{
		Cluster: hw.Longhorn(), Nodes: benchCollNodes, PPN: benchCollPPN,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			CacheEntries: cacheEntries},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// benchCollChunkedWorld is benchCollWorld with 128K chunk pipelining —
// the configuration the algorithm-crossover rows run under, so the
// pipelined ring comparator overlaps chunks the way production sweeps
// configure it.
func benchCollChunkedWorld(t *testing.T, cacheEntries int) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(mpi.Options{
		Cluster: hw.Longhorn(), Nodes: benchCollNodes, PPN: benchCollPPN,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			CacheEntries: cacheEntries, PipelineChunkBytes: 128 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// benchCollEntry is one (collective, size) row of BENCH_coll.json.
type benchCollEntry struct {
	Coll  string `json:"coll"`
	Bytes int    `json:"bytes"`
	// Simulated (virtual-clock) latencies.
	BeforeUs   float64 `json:"before_us"`
	AfterUs    float64 `json:"after_us"`
	SpeedupPct float64 `json:"speedup_pct"`
	// Host wall-clock of the whole measurement (non-deterministic,
	// recorded so regressions in real codec work stay visible).
	BeforeWallMs float64 `json:"before_wall_ms"`
	AfterWallMs  float64 `json:"after_wall_ms"`
	// Cache/relay activity of the after arm.
	CacheHits       int   `json:"cache_hits"`
	CacheMisses     int   `json:"cache_misses"`
	RelayedBytes    int64 `json:"relayed_bytes"`
	BitIdentical    *bool `json:"bit_identical,omitempty"`
	PipelinedChunks int   `json:"pipelined_chunks"`
}

type benchCollDoc struct {
	Ranks      int              `json:"ranks"`
	GoMaxProcs int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	Note       string           `json:"note"`
	Results    []benchCollEntry `json:"results"`
}

// benchCollBitIdentical runs a pipelined allreduce schedule and its
// blocking oracle on identical inputs in one world and reports whether
// every rank's outputs match byte for byte (they must: MPC is lossless
// and both run the per-element additions in the same order).
func benchCollBitIdentical(t *testing.T, bytesN int, chunked bool,
	fastFn, slowFn func(*mpi.Rank, *gpusim.Buffer, *gpusim.Buffer) error) bool {
	t.Helper()
	w := benchCollWorld(t, 0)
	if chunked {
		w = benchCollChunkedWorld(t, 0)
	}
	identical := true
	_, err := w.Run(func(r *mpi.Rank) error {
		vals := make([]float32, bytesN/4)
		for i := range vals {
			vals[i] = float32(r.ID()+1) + float32(i%4093)*0.125
		}
		send := (&gpusim.Buffer{Data: core.FloatsToBytes(nil, vals), Loc: gpusim.Device, Dev: r.Dev}).Track()
		fast := &gpusim.Buffer{Data: make([]byte, bytesN), Loc: gpusim.Device, Dev: r.Dev}
		slow := &gpusim.Buffer{Data: make([]byte, bytesN), Loc: gpusim.Device, Dev: r.Dev}
		if err := fastFn(r, send, fast); err != nil {
			return err
		}
		if err := slowFn(r, send, slow); err != nil {
			return err
		}
		if !bytes.Equal(fast.Data, slow.Data) {
			identical = false
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatalf("bit-identity run: %v", err)
	}
	return identical
}

// TestWriteBenchColl runs the before/after collective sweep and writes
// BENCH_coll.json. Gated behind BENCH_COLL=1; CI's bench job sets it
// and uploads the artifact. Two acceptance gates run inline: the 8 MB
// ring-allreduce must improve simulated latency by >=25% over the
// blocking path with byte-identical results, and the 8-rank
// hierarchical bcast must record compress-once cache hits.
func TestWriteBenchColl(t *testing.T) {
	if os.Getenv("BENCH_COLL") == "" {
		t.Skip("set BENCH_COLL=1 to run the collective sweep and write BENCH_coll.json")
	}
	// Each row names its two arms in omb's collective table.
	colls := []struct {
		name          string
		before, after string
		sizes         []int // nil = the default {1 MB, 8 MB} sweep
		chunked       bool  // run both arms with 128K chunk pipelining
	}{
		{"bcast", "bcast", "bcast", nil, false},
		{"bcast-hier", "bcast-hier", "bcast-hier", nil, false},
		{"allgather", "allgather", "allgather", nil, false},
		{"alltoallv", "alltoallv", "alltoallv", nil, false},
		{"ring-allreduce", "ring-allreduce-blocking", "ring-allreduce", nil, false},
		// Algorithm-crossover rows: the "before" arm is the pipelined
		// ring (the previous best), the "after" arm the new schedule, so
		// SpeedupPct > 0 means the new schedule beats the ring at that
		// size. Sized to straddle the latency/bandwidth crossover, and
		// run with chunk pipelining on BOTH arms — without chunking the
		// ring serialises whole blocks and loses even the bandwidth
		// regime, which is not the comparison production sweeps make.
		{"rd-allreduce", "ring-allreduce", "rd-allreduce", []int{32 << 10, 4 << 20}, true},
		{"rab-allreduce", "ring-allreduce", "rab-allreduce", []int{32 << 10, 4 << 20}, true},
	}
	doc := benchCollDoc{
		Ranks:      benchCollNodes * benchCollPPN,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Note: "simulated collective latency, MPC opt, dummy data, 4x2 Longhorn; before = compress-once cache " +
			"disabled (and blocking whole-block ring); after = default fast paths; wall-clock is real host time",
	}
	for _, coll := range colls {
		sizes := coll.sizes
		if sizes == nil {
			sizes = []int{1 << 20, 8 << 20}
		}
		for _, size := range sizes {
			wallStart := time.Now()
			before := benchCollWorld(t, -1)
			if coll.chunked {
				before = benchCollChunkedWorld(t, -1)
			}
			resB, err := omb.CollectiveLatency(before, coll.before, size, benchCollWarmup, benchCollIters, nil)
			if err != nil {
				t.Fatalf("%s before: %v", coll.name, err)
			}
			beforeWall := time.Since(wallStart)

			wallStart = time.Now()
			after := benchCollWorld(t, 0)
			if coll.chunked {
				after = benchCollChunkedWorld(t, 0)
			}
			resA, err := omb.CollectiveLatency(after, coll.after, size, benchCollWarmup, benchCollIters, nil)
			if err != nil {
				t.Fatalf("%s after: %v", coll.name, err)
			}
			afterWall := time.Since(wallStart)

			var cs core.CacheStats
			for i := 0; i < after.Size(); i++ {
				cs.Add(after.Rank(i).Engine.CacheSnapshot())
			}
			e := benchCollEntry{
				Coll:            coll.name,
				Bytes:           size,
				BeforeUs:        resB.Latency.Microseconds(),
				AfterUs:         resA.Latency.Microseconds(),
				BeforeWallMs:    float64(beforeWall.Microseconds()) / 1e3,
				AfterWallMs:     float64(afterWall.Microseconds()) / 1e3,
				CacheHits:       cs.Hits,
				CacheMisses:     cs.Misses,
				RelayedBytes:    cs.RelayedBytes,
				PipelinedChunks: cs.PipelinedChunks,
			}
			if e.BeforeUs > 0 {
				e.SpeedupPct = (e.BeforeUs - e.AfterUs) / e.BeforeUs * 100
			}
			if coll.name == "ring-allreduce" {
				ok := benchCollBitIdentical(t, size, false, (*mpi.Rank).RingAllreduceSum, (*mpi.Rank).RingAllreduceSumBlocking)
				e.BitIdentical = &ok
				if !ok {
					t.Errorf("%s %dB: pipelined and blocking results differ", coll.name, size)
				}
				if size == 8<<20 && e.SpeedupPct < 25 {
					t.Errorf("ring-allreduce at 8 MB: %.1f%% improvement, want >= 25%% (before %.1fus, after %.1fus)",
						e.SpeedupPct, e.BeforeUs, e.AfterUs)
				}
			}
			if coll.name == "rd-allreduce" {
				ok := benchCollBitIdentical(t, size, true,
					(*mpi.Rank).RecursiveDoublingAllreduceSum, (*mpi.Rank).RecursiveDoublingAllreduceSumBlocking)
				e.BitIdentical = &ok
				if !ok {
					t.Errorf("%s %dB: pipelined and blocking results differ", coll.name, size)
				}
				// The crossover: log2-depth rd wins the latency regime,
				// the bandwidth-optimal ring wins the large regime.
				if size == 32<<10 && e.SpeedupPct <= 0 {
					t.Errorf("rd at 32 KB: %.1f%% vs pipelined ring, want a win (ring %.1fus, rd %.1fus)",
						e.SpeedupPct, e.BeforeUs, e.AfterUs)
				}
				if size == 4<<20 && e.SpeedupPct >= 0 {
					t.Errorf("rd at 4 MB: %.1f%% vs pipelined ring, expected the ring to win (ring %.1fus, rd %.1fus)",
						e.SpeedupPct, e.BeforeUs, e.AfterUs)
				}
			}
			if coll.name == "rab-allreduce" {
				ok := benchCollBitIdentical(t, size, true,
					(*mpi.Rank).RabenseifnerAllreduceSum, (*mpi.Rank).RabenseifnerAllreduceSumBlocking)
				e.BitIdentical = &ok
				if !ok {
					t.Errorf("%s %dB: pipelined and blocking results differ", coll.name, size)
				}
			}
			if coll.name == "bcast-hier" && cs.Hits == 0 {
				t.Errorf("hierarchical bcast at %dB recorded no cache hits: %+v", size, cs)
			}
			doc.Results = append(doc.Results, e)
			t.Logf("%s %dB: before %.1fus after %.1fus (%.1f%%), hits=%d relayed=%dB",
				coll.name, size, e.BeforeUs, e.AfterUs, e.SpeedupPct, cs.Hits, cs.RelayedBytes)
		}
	}
	// Fused typed halo vs the staged baseline. Same world shape as the
	// collectives above; the halo is the awpodc X/Y face exchange, the
	// per-row metric the slowest rank's per-step halo latency.
	haloCfg := awpodc.Config{NX: 128, NY: 128, NZ: 64, Fields: 9, Steps: 4}
	stagedCfg := haloCfg
	stagedCfg.HaloPacked = true

	wallStart := time.Now()
	resB, err := awpodc.Run(benchCollWorld(t, 0), stagedCfg)
	if err != nil {
		t.Fatalf("awpodc-halo staged: %v", err)
	}
	beforeWall := time.Since(wallStart)

	wallStart = time.Now()
	after := benchCollWorld(t, 0)
	resA, err := awpodc.Run(after, haloCfg)
	if err != nil {
		t.Fatalf("awpodc-halo typed: %v", err)
	}
	afterWall := time.Since(wallStart)

	var cs core.CacheStats
	for i := 0; i < after.Size(); i++ {
		cs.Add(after.Rank(i).Engine.CacheSnapshot())
	}
	halo := benchCollEntry{
		Coll:         "awpodc-halo",
		Bytes:        haloCfg.HaloBytesX(),
		BeforeUs:     resB.CommTime.Microseconds(),
		AfterUs:      resA.CommTime.Microseconds(),
		BeforeWallMs: float64(beforeWall.Microseconds()) / 1e3,
		AfterWallMs:  float64(afterWall.Microseconds()) / 1e3,
		CacheHits:    cs.Hits,
		CacheMisses:  cs.Misses,
	}
	if halo.BeforeUs > 0 {
		halo.SpeedupPct = (halo.BeforeUs - halo.AfterUs) / halo.BeforeUs * 100
	}
	identical := resA.Checksum == resB.Checksum && resA.WireBytes == resB.WireBytes
	halo.BitIdentical = &identical
	if !identical {
		t.Errorf("awpodc-halo: typed path not bit-identical to staged (checksum %v vs %v, wire %d vs %d)",
			resA.Checksum, resB.Checksum, resA.WireBytes, resB.WireBytes)
	}
	if halo.SpeedupPct < 15 {
		t.Errorf("awpodc-halo: %.1f%% improvement, want >= 15%% (staged %.1fus, typed %.1fus)",
			halo.SpeedupPct, halo.BeforeUs, halo.AfterUs)
	}
	if resA.StagingBytes != 0 {
		t.Errorf("awpodc-halo: typed path moved %d staging bytes, want 0", resA.StagingBytes)
	}
	doc.Results = append(doc.Results, halo)
	t.Logf("awpodc-halo: staged %.1fus typed %.1fus (%.1f%%), staging saved %dB",
		halo.BeforeUs, halo.AfterUs, halo.SpeedupPct, resB.StagingBytes)

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_coll.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
