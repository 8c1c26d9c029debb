// Codec benchmarks: serial vs host-parallel execution of the real
// (wall-clock) compression work underneath the simulated clock. Unlike
// the figure benchmarks in bench_test.go, these measure the reproduction
// itself — how fast the Go codecs run on the host — so ns/op and MB/s
// are the metrics of interest, and allocs/op pins the zero-allocation
// steady-state guarantee.
//
// TestWriteBenchCodec (env-gated: BENCH_CODEC=1) runs the full sweep via
// testing.Benchmark and writes BENCH_codec.json with serial/parallel
// throughput, speedup and allocation counts per (algorithm, size) point.
// The recorded num_cpu and gomaxprocs fields qualify the speedup, and on a
// single-CPU host, where the parallel arm has nothing to run on, the sweep
// leaves the speedup field out instead of recording noise around 1.0.
package mpicomp_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// benchParallelWorkers is the pool size of the parallel arm; the
// acceptance target is >=1.5x over serial for 8 MB+ MPC at 4 workers.
const benchParallelWorkers = 4

var benchCodecSizes = []struct {
	name  string
	bytes int
}{
	{"64KB", 64 << 10},
	{"1MB", 1 << 20},
	{"8MB", 8 << 20},
	{"32MB", 32 << 20},
}

// benchCodecRoundTrip measures a steady-state CompressAppend+Decompress
// round trip through the engine with the given worker-pool size. The
// simulated charges (kernel models, virtual clock) run too, but the real
// codec work dominates at these sizes.
func benchCodecRoundTrip(b *testing.B, algo core.Algorithm, workers, bytes int) {
	vals := datasets.Smooth(bytes/4, 17, 1e-3)
	clk := simtime.NewClock(0)
	dev := gpusim.NewDevice(hw.TeslaV100(), 8)
	e := core.NewEngine(clk, dev, core.Config{
		Mode: core.ModeOpt, Algorithm: algo, ZFPRate: 16,
		Threshold: 4 << 10, Workers: workers,
	})
	buf := &gpusim.Buffer{Data: core.FloatsToBytes(nil, vals), Loc: gpusim.Device, Dev: dev}
	dst := &gpusim.Buffer{Data: make([]byte, len(buf.Data)), Loc: gpusim.Device, Dev: dev}
	payload := make([]byte, 0, len(buf.Data)+len(buf.Data)/4)
	// Warm the arena so the measured loop is the steady state.
	var hdr core.Header
	payload, hdr = e.CompressAppend(clk, buf, payload[:0])
	if err := e.Decompress(clk, hdr, payload, dst); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, hdr = e.CompressAppend(clk, buf, payload[:0])
		if err := e.Decompress(clk, hdr, payload, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodec is the interactive sweep:
//
//	go test -bench BenchmarkCodec -run '^$' .
//
// Serial pins Workers=1 (the reference path); Parallel uses a 4-worker
// pool regardless of GOMAXPROCS so results are comparable across hosts.
func BenchmarkCodec(b *testing.B) {
	for _, algo := range []core.Algorithm{core.AlgoMPC, core.AlgoZFP} {
		for _, sz := range benchCodecSizes {
			algo, sz := algo, sz
			b.Run(fmt.Sprintf("%s/%s/Serial", algo, sz.name), func(b *testing.B) {
				benchCodecRoundTrip(b, algo, 1, sz.bytes)
			})
			b.Run(fmt.Sprintf("%s/%s/Parallel", algo, sz.name), func(b *testing.B) {
				benchCodecRoundTrip(b, algo, benchParallelWorkers, sz.bytes)
			})
		}
	}
}

// benchCodecEntry is one (algorithm, size) point of BENCH_codec.json.
type benchCodecEntry struct {
	Algo           string  `json:"algo"`
	Bytes          int     `json:"bytes"`
	SerialNsOp     int64   `json:"serial_ns_op"`
	ParallelNsOp   int64   `json:"parallel_ns_op"`
	SerialMBps     float64 `json:"serial_mb_s"`
	ParallelMBps   float64 `json:"parallel_mb_s"`
	Speedup        float64 `json:"speedup,omitempty"` // absent when num_cpu is 1
	SerialAllocs   int64   `json:"serial_allocs_op"`
	ParallelAllocs int64   `json:"parallel_allocs_op"`
}

type benchCodecDoc struct {
	GoMaxProcs int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Workers    int               `json:"parallel_workers"`
	Note       string            `json:"note"`
	Results    []benchCodecEntry `json:"results"`
}

// TestWriteBenchCodec runs the serial-vs-parallel sweep and writes
// BENCH_codec.json. Gated behind BENCH_CODEC=1 because the sweep takes
// tens of seconds; CI's bench job sets it and uploads the artifact.
func TestWriteBenchCodec(t *testing.T) {
	if os.Getenv("BENCH_CODEC") == "" {
		t.Skip("set BENCH_CODEC=1 to run the codec sweep and write BENCH_codec.json")
	}
	mbps := func(r testing.BenchmarkResult, bytes int) float64 {
		if r.NsPerOp() <= 0 {
			return 0
		}
		return float64(bytes) / float64(r.NsPerOp()) * 1e9 / (1 << 20)
	}
	doc := benchCodecDoc{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Workers:    benchParallelWorkers,
		Note: "round-trip CompressAppend+Decompress wall-clock; speedup is serial/parallel ns per op, " +
			"left out when num_cpu is 1 (nothing for the parallel arm to run on)",
	}
	for _, algo := range []core.Algorithm{core.AlgoMPC, core.AlgoZFP} {
		for _, sz := range benchCodecSizes {
			algo, sz := algo, sz
			rs := testing.Benchmark(func(b *testing.B) { benchCodecRoundTrip(b, algo, 1, sz.bytes) })
			rp := testing.Benchmark(func(b *testing.B) { benchCodecRoundTrip(b, algo, benchParallelWorkers, sz.bytes) })
			e := benchCodecEntry{
				Algo:           algo.String(),
				Bytes:          sz.bytes,
				SerialNsOp:     rs.NsPerOp(),
				ParallelNsOp:   rp.NsPerOp(),
				SerialMBps:     mbps(rs, sz.bytes),
				ParallelMBps:   mbps(rp, sz.bytes),
				SerialAllocs:   rs.AllocsPerOp(),
				ParallelAllocs: rp.AllocsPerOp(),
			}
			if rp.NsPerOp() > 0 && doc.NumCPU > 1 {
				e.Speedup = float64(rs.NsPerOp()) / float64(rp.NsPerOp())
			}
			doc.Results = append(doc.Results, e)
			t.Logf("%s %s: serial %.1f MB/s, parallel %.1f MB/s, allocs %d/%d",
				e.Algo, sz.name, e.SerialMBps, e.ParallelMBps, e.SerialAllocs, e.ParallelAllocs)
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_codec.json", append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
