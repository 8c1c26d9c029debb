// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment on the
// simulated cluster and reports the simulated metrics via b.ReportMetric:
//
//	sim-us        simulated latency in microseconds
//	sim-gbps      simulated bandwidth in GB/s
//	ratio         achieved compression ratio
//	tflops        aggregate GPU computing TFLOPS (AWP-ODC)
//	speedup       improvement factor over the baseline
//
// Wall-clock ns/op mostly measures the host running the codecs and the
// discrete-event simulation; the paper's results correspond to the
// sim-* metrics. Message sizes are scaled down from the paper's 32 MB
// maxima to keep the suite fast; cmd/figures runs the full sweeps.
package mpicomp_test

import (
	"testing"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/core"
	"mpicomp/internal/dask"
	"mpicomp/internal/datasets"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpc"
	"mpicomp/internal/mpi"
	"mpicomp/internal/omb"
	"mpicomp/internal/simtime"
	"mpicomp/internal/zfp"
)

func mustWorld(b *testing.B, c hw.Cluster, nodes, ppn int, cfg core.Config) *mpi.World {
	b.Helper()
	w, err := mpi.NewWorld(mpi.Options{Cluster: c, Nodes: nodes, PPN: ppn, Engine: cfg})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkTable3 regenerates Table III: MPC and ZFP compression of the
// eight datasets, reporting the measured compression ratio per dataset.
func BenchmarkTable3(b *testing.B) {
	const n = 1 << 20 // 4 MB per dataset
	for _, d := range datasets.All() {
		d := d
		b.Run("MPC/"+d.Name, func(b *testing.B) {
			vals := d.Values(n)
			b.SetBytes(int64(n * 4))
			var ratio float64
			for i := 0; i < b.N; i++ {
				comp, err := mpc.CompressFloat32(nil, vals, d.Dim)
				if err != nil {
					b.Fatal(err)
				}
				ratio = float64(n*4) / float64(len(comp))
			}
			b.ReportMetric(ratio, "ratio")
			b.ReportMetric(d.PaperCRMPC, "paper-ratio")
		})
		b.Run("ZFP16/"+d.Name, func(b *testing.B) {
			vals := d.Values(n)
			b.SetBytes(int64(n * 4))
			for i := 0; i < b.N; i++ {
				if _, err := zfp.Compress(nil, vals, 16); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(zfp.Ratio(16), "ratio")
			b.ReportMetric(d.PaperCRZFP, "paper-ratio")
		})
	}
}

// BenchmarkFig2aBandwidth regenerates Figure 2(a): inter-node D-D
// bandwidth at 8 MB on Longhorn's EDR network.
func BenchmarkFig2aBandwidth(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, hw.Longhorn(), 2, 1, core.Config{})
		res, err := omb.Bandwidth(w, []int{8 << 20}, 1, 2, 16, 0)
		if err != nil {
			b.Fatal(err)
		}
		bw = res[0].BandwidthGBps
	}
	b.ReportMetric(bw, "sim-gbps")
	b.ReportMetric(hw.Longhorn().InterNode.BandwidthGBps, "peak-gbps")
}

// BenchmarkFig2bAWPBreakdown regenerates Figure 2(b): the AWP-ODC
// compute/communication split at 16 GPUs.
func BenchmarkFig2bAWPBreakdown(b *testing.B) {
	var commShare float64
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, hw.Longhorn(), 4, 4, core.Config{})
		res, err := awpodc.Run(w, awpodc.Config{NX: 160, NY: 160, NZ: 64, Steps: 2})
		if err != nil {
			b.Fatal(err)
		}
		commShare = float64(res.CommTime) / float64(res.CommTime+res.ComputeTime)
	}
	b.ReportMetric(100*commShare, "comm-pct")
}

// latencyAt measures one osu_latency point.
func latencyAt(b *testing.B, c hw.Cluster, nodes, ppn int, cfg core.Config, size int) (simtime.Duration, float64) {
	w := mustWorld(b, c, nodes, ppn, cfg)
	res, err := omb.Latency(w, []int{size}, 1, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	return res[0].Latency, res[0].Ratio
}

// BenchmarkFig5NaiveIntegration regenerates Figure 5: the naive
// integration's latency penalty at 1 MB against the baseline.
func BenchmarkFig5NaiveIntegration(b *testing.B) {
	const size = 1 << 20
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"Baseline", core.Config{}},
		{"NaiveMPC", core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoMPC}},
		{"NaiveZFP16", core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoZFP, ZFPRate: 16}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var lat simtime.Duration
			for i := 0; i < b.N; i++ {
				lat, _ = latencyAt(b, hw.Longhorn(), 2, 1, c.cfg, size)
			}
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
	}
}

// breakdownBench measures one scheme's latency and per-phase split at 4 MB
// (Figures 6 and 8).
func breakdownBench(b *testing.B, c hw.Cluster, cfg core.Config, phase core.Phase) {
	const size = 4 << 20
	var lat simtime.Duration
	var phaseShare float64
	for i := 0; i < b.N; i++ {
		w := mustWorld(b, c, 2, 1, cfg)
		res, err := omb.Latency(w, []int{size}, 1, 2, nil)
		if err != nil {
			b.Fatal(err)
		}
		lat = res[0].Latency
		var sum core.Breakdown
		for r := 0; r < w.Size(); r++ {
			sum.AddAll(&w.Rank(r).Engine.Stats)
		}
		per := sum.Scale(3) // warmup + iters
		phaseShare = per.Get(phase).Microseconds()
	}
	b.ReportMetric(lat.Microseconds(), "sim-us")
	b.ReportMetric(phaseShare, "phase-us")
}

// BenchmarkFig6MPCBreakdown regenerates Figure 6: memory allocation
// dominates the naive MPC path and vanishes under MPC-OPT.
func BenchmarkFig6MPCBreakdown(b *testing.B) {
	b.Run("Naive/MemAlloc", func(b *testing.B) {
		breakdownBench(b, hw.Longhorn(), core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoMPC}, core.PhaseMemAlloc)
	})
	b.Run("Opt/MemAlloc", func(b *testing.B) {
		breakdownBench(b, hw.Longhorn(), core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}, core.PhaseMemAlloc)
	})
	b.Run("Opt/Combine", func(b *testing.B) {
		breakdownBench(b, hw.Longhorn(), core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}, core.PhaseCombine)
	})
}

// BenchmarkFig8ZFPBreakdown regenerates Figure 8: get_max_grid_dims
// dominates the naive ZFP path and vanishes under ZFP-OPT.
func BenchmarkFig8ZFPBreakdown(b *testing.B) {
	b.Run("Naive/GridQuery", func(b *testing.B) {
		breakdownBench(b, hw.FronteraLiquid(), core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoZFP}, core.PhaseGridQuery)
	})
	b.Run("Opt/GridQuery", func(b *testing.B) {
		breakdownBench(b, hw.FronteraLiquid(), core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP}, core.PhaseGridQuery)
	})
}

// BenchmarkFig9PointToPoint regenerates Figure 9: the four latency sweeps
// at the 8 MB point for every scheme.
func BenchmarkFig9PointToPoint(b *testing.B) {
	const size = 8 << 20
	subs := []struct {
		name       string
		c          hw.Cluster
		nodes, ppn int
	}{
		{"LonghornInter", hw.Longhorn(), 2, 1},
		{"FronteraInter", hw.FronteraLiquid(), 2, 1},
		{"LonghornIntra", hw.Longhorn(), 1, 2},
		{"FronteraIntra", hw.FronteraLiquid(), 1, 2},
	}
	schemes := []struct {
		name string
		cfg  core.Config
	}{
		{"Baseline", core.Config{}},
		{"MPC-OPT", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}},
		{"ZFP-OPT-r16", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16}},
		{"ZFP-OPT-r8", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}},
		{"ZFP-OPT-r4", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 4}},
	}
	for _, sub := range subs {
		for _, sc := range schemes {
			sub, sc := sub, sc
			b.Run(sub.name+"/"+sc.name, func(b *testing.B) {
				var lat simtime.Duration
				var ratio float64
				for i := 0; i < b.N; i++ {
					lat, ratio = latencyAt(b, sub.c, sub.nodes, sub.ppn, sc.cfg, size)
				}
				b.ReportMetric(lat.Microseconds(), "sim-us")
				b.ReportMetric(ratio, "ratio")
			})
		}
	}
}

// BenchmarkFig10Breakdown regenerates Figure 10: the compression /
// decompression / communication split for the two OPT schemes at 8 MB.
func BenchmarkFig10Breakdown(b *testing.B) {
	schemes := []struct {
		name string
		cfg  core.Config
	}{
		{"MPC-OPT", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}},
		{"ZFP-OPT-r4", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 4}},
	}
	for _, sc := range schemes {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var comprUS, decomprUS, totalUS float64
			for i := 0; i < b.N; i++ {
				w := mustWorld(b, hw.FronteraLiquid(), 2, 1, sc.cfg)
				res, err := omb.Latency(w, []int{8 << 20}, 1, 2, nil)
				if err != nil {
					b.Fatal(err)
				}
				var sum core.Breakdown
				for r := 0; r < w.Size(); r++ {
					sum.AddAll(&w.Rank(r).Engine.Stats)
				}
				per := sum.Scale(3)
				comprUS = (per.Get(core.PhaseCompressKernel) + per.Get(core.PhaseDataCopy) + per.Get(core.PhaseCombine)).Microseconds()
				decomprUS = per.Get(core.PhaseDecompressKernel).Microseconds()
				totalUS = (2 * res[0].Latency).Microseconds()
			}
			b.ReportMetric(comprUS, "compr-us")
			b.ReportMetric(decomprUS, "decompr-us")
			b.ReportMetric(totalUS-comprUS-decomprUS, "comm-us")
		})
	}
}

// BenchmarkFig11Collectives regenerates Figure 11: MPI_Bcast and
// MPI_Allgather with real dataset payloads on Frontera Liquid.
func BenchmarkFig11Collectives(b *testing.B) {
	gen, err := omb.DatasetData("msg_sppm")
	if err != nil {
		b.Fatal(err)
	}
	schemes := []struct {
		name string
		cfg  core.Config
	}{
		{"Baseline", core.Config{}},
		{"MPC-OPT", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}},
		{"ZFP-OPT-r4", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 4}},
	}
	for _, sc := range schemes {
		sc := sc
		b.Run("Bcast/"+sc.name, func(b *testing.B) {
			var lat simtime.Duration
			for i := 0; i < b.N; i++ {
				w := mustWorld(b, hw.FronteraLiquid(), 4, 2, sc.cfg)
				res, err := omb.CollectiveLatency(w, "bcast", 2<<20, 1, 2, gen)
				if err != nil {
					b.Fatal(err)
				}
				lat = res.Latency
			}
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
		b.Run("Allgather/"+sc.name, func(b *testing.B) {
			var lat simtime.Duration
			for i := 0; i < b.N; i++ {
				w := mustWorld(b, hw.FronteraLiquid(), 4, 2, sc.cfg)
				res, err := omb.CollectiveLatency(w, "allgather", 2<<20, 1, 2, gen)
				if err != nil {
					b.Fatal(err)
				}
				lat = res.Latency
			}
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
	}
}

// awpBench runs the AWP-ODC proxy at one scale and reports TFLOPS and the
// speedup of each scheme over the baseline. dynamicMPC gates MPC through
// the cost model, used when the benchmark's scaled-down halos sit below
// MPC's break-even size (see EXPERIMENTS.md on Figure 13).
func awpBench(b *testing.B, c hw.Cluster, nodes, ppn int, cfg awpodc.Config, dynamicMPC bool) {
	mpcName := "MPC-OPT"
	if dynamicMPC {
		mpcName = "MPC-OPT-dyn"
	}
	schemes := []struct {
		name string
		cfg  core.Config
	}{
		{"Baseline", core.Config{}},
		{mpcName, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Dynamic: dynamicMPC}},
		{"ZFP-OPT-r16", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16}},
		{"ZFP-OPT-r8", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}},
	}
	var base float64
	for _, sc := range schemes {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var res awpodc.Result
			for i := 0; i < b.N; i++ {
				w := mustWorld(b, c, nodes, ppn, sc.cfg)
				var err error
				res, err = awpodc.Run(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.TFlops, "tflops")
			b.ReportMetric(res.TimePerStep.Milliseconds(), "ms-per-step")
			if sc.name == "Baseline" {
				base = res.TFlops
			} else if base > 0 {
				b.ReportMetric(res.TFlops/base, "speedup")
			}
		})
	}
}

// BenchmarkFig12AWPFrontera regenerates Figure 12: AWP-ODC weak scaling on
// Frontera Liquid (16 GPUs, 4 GPUs/node).
func BenchmarkFig12AWPFrontera(b *testing.B) {
	awpBench(b, hw.FronteraLiquid(), 4, 4, awpodc.Config{NX: 320, NY: 320, NZ: 128, Steps: 2}, false)
}

// BenchmarkFig13AWPLassen regenerates Figure 13: AWP-ODC on Lassen at a
// larger scale (32 GPUs, 4 GPUs/node; cmd/figures goes to 512).
func BenchmarkFig13AWPLassen(b *testing.B) {
	awpBench(b, hw.Lassen(), 8, 4, awpodc.Config{NX: 160, NY: 160, NZ: 128, Steps: 2}, true)
}

// BenchmarkFig14Dask regenerates Figure 14: the Dask transpose-sum with 4
// workers on RI2.
func BenchmarkFig14Dask(b *testing.B) {
	m := dask.Matrix{Dim: 4096, ChunkDim: 1024}
	schemes := []struct {
		name string
		cfg  core.Config
	}{
		{"Baseline", core.Config{}},
		{"ZFP-OPT-r16", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16}},
		{"ZFP-OPT-r8", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}},
	}
	var base simtime.Duration
	for _, sc := range schemes {
		sc := sc
		b.Run(sc.name, func(b *testing.B) {
			var res dask.Result
			for i := 0; i < b.N; i++ {
				w := mustWorld(b, hw.RI2(), 4, 1, sc.cfg)
				var err error
				res, err = dask.TransposeSum(w, m)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ExecTime.Milliseconds(), "sim-ms")
			b.ReportMetric(res.ThroughputGBps, "sim-gbps")
			if sc.name == "Baseline" {
				base = res.ExecTime
			} else if base > 0 {
				b.ReportMetric(float64(base)/float64(res.ExecTime), "speedup")
			}
		})
	}
}

// BenchmarkAblationPartitions quantifies MPC-OPT's multi-stream
// decomposition (Section IV-B): latency at 8 MB with 1, 2, 4 and 8
// partitions — the design-choice ablation DESIGN.md calls out.
func BenchmarkAblationPartitions(b *testing.B) {
	for _, parts := range []int{1, 2, 4, 8} {
		parts := parts
		b.Run(map[int]string{1: "P1", 2: "P2", 4: "P4", 8: "P8"}[parts], func(b *testing.B) {
			var lat simtime.Duration
			for i := 0; i < b.N; i++ {
				cfg := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MaxPartitions: parts}
				lat, _ = latencyAt(b, hw.Longhorn(), 2, 1, cfg, 8<<20)
			}
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
	}
}

// BenchmarkAblationGDRCopy quantifies the GDRCopy size-readback
// optimization alone (Section IV-B optimization 3) by comparing the
// engine-side data-copy phase between naive and OPT at 4 MB.
func BenchmarkAblationGDRCopy(b *testing.B) {
	b.Run("NaiveMemcpy", func(b *testing.B) {
		breakdownBench(b, hw.Longhorn(), core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoMPC}, core.PhaseDataCopy)
	})
	b.Run("OptGDRCopy", func(b *testing.B) {
		breakdownBench(b, hw.Longhorn(), core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}, core.PhaseDataCopy)
	})
}

// BenchmarkAblationPipeline quantifies the pipelined-rendezvous extension:
// 32 MB MPC transfer, whole-message vs chunked at several chunk sizes.
func BenchmarkAblationPipeline(b *testing.B) {
	vals := datasets.Smooth(8<<20, 19, 1e-4)
	cases := []struct {
		name  string
		chunk int
	}{
		{"Whole", 0},
		{"Chunk1M", 1 << 20},
		{"Chunk2M", 2 << 20},
		{"Chunk4M", 4 << 20},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var lat simtime.Duration
			for i := 0; i < b.N; i++ {
				w := mustWorld(b, hw.Longhorn(), 2, 1, core.Config{
					Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
					PipelineChunkBytes: c.chunk,
				})
				times, err := w.Run(func(r *mpi.Rank) error {
					buf := &gpusim.Buffer{Data: core.FloatsToBytes(nil, vals), Loc: gpusim.Device, Dev: r.Dev}
					if r.ID() == 0 {
						return r.Send(1, 0, buf)
					}
					return r.Recv(0, 0, buf)
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = simtime.Duration(mpi.MaxTime(times))
			}
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
	}
}

// BenchmarkAblationDynamic quantifies the dynamic-selection extension: an
// 8 MB dummy-data exchange on two link classes, static MPC-OPT vs the
// cost-model-gated engine vs baseline.
func BenchmarkAblationDynamic(b *testing.B) {
	vals := datasets.Dummy(2 << 20)
	run := func(b *testing.B, nodes, ppn int, cfg core.Config) simtime.Duration {
		var lat simtime.Duration
		for i := 0; i < b.N; i++ {
			w := mustWorld(b, hw.Longhorn(), nodes, ppn, cfg)
			times, err := w.Run(func(r *mpi.Rank) error {
				buf := &gpusim.Buffer{Data: core.FloatsToBytes(nil, vals), Loc: gpusim.Device, Dev: r.Dev}
				if r.ID() == 0 {
					return r.Send(1, 0, buf)
				}
				return r.Recv(0, 0, buf)
			})
			if err != nil {
				b.Fatal(err)
			}
			lat = simtime.Duration(mpi.MaxTime(times))
		}
		return lat
	}
	static := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}
	dynamic := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Dynamic: true}
	cases := []struct {
		name       string
		nodes, ppn int
		cfg        core.Config
	}{
		{"EDR/Baseline", 2, 1, core.Config{}},
		{"EDR/Static", 2, 1, static},
		{"EDR/Dynamic", 2, 1, dynamic},
		{"NVLink/Baseline", 1, 2, core.Config{}},
		{"NVLink/Static", 1, 2, static},
		{"NVLink/Dynamic", 1, 2, dynamic},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			lat := run(b, c.nodes, c.ppn, c.cfg)
			b.ReportMetric(lat.Microseconds(), "sim-us")
		})
	}
}
