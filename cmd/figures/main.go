// Command figures regenerates the data series behind every figure in the
// paper's evaluation:
//
//	figures -fig 1     # Sierra link-speed disparity (motivation)
//	figures -fig 2a    # inter-node D-D bandwidth vs message size
//	figures -fig 2b    # AWP-ODC compute vs communication breakdown
//	figures -fig 5     # naive integration latency vs baseline
//	figures -fig 6     # MPC latency breakdown, naive vs MPC-OPT
//	figures -fig 8     # ZFP latency breakdown, naive vs ZFP-OPT
//	figures -fig 9     # point-to-point latency sweeps (4 subplots)
//	figures -fig 10    # MPC-OPT / ZFP-OPT latency percentage breakdown
//	figures -fig 11    # MPI_Bcast / MPI_Allgather on the 8 datasets
//	figures -fig 12    # AWP-ODC weak scaling on Frontera Liquid
//	figures -fig 13    # AWP-ODC weak scaling on Lassen
//	figures -fig 14    # Dask transpose-sum execution time and throughput
//	figures -fig all   # everything
//
// Figures 3, 4 and 7 are architecture diagrams; their content is the
// implemented control flow itself.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/cli"
	"mpicomp/internal/core"
	"mpicomp/internal/dask"
	"mpicomp/internal/datasets"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/omb"
	"mpicomp/internal/simtime"
)

var (
	iters  = flag.Int("iters", 3, "measured iterations per point")
	warmup = flag.Int("warmup", 1, "warmup iterations per point")
	maxMB  = flag.Int("maxmb", 32, "largest message size in MB for sweeps")
	steps  = flag.Int("steps", 3, "AWP-ODC time steps")
)

func main() {
	figFlag := flag.String("fig", "", "figure to regenerate: 1, 2a, 2b, 5, 6, 8, 9, 10, 11, 12, 13, 14 or all")
	flag.Parse()

	figs := map[string]func(){
		"1": fig1, "2a": fig2a, "2b": fig2b, "5": fig5, "6": fig6,
		"8": fig8, "9": fig9, "10": fig10, "11": fig11,
		"12": fig12, "13": fig13, "14": fig14,
	}
	if *figFlag == "all" {
		for _, id := range []string{"1", "2a", "2b", "5", "6", "8", "9", "10", "11", "12", "13", "14"} {
			figs[id]()
			fmt.Println()
		}
		return
	}
	f, ok := figs[*figFlag]
	if !ok {
		cli.Fatal(fmt.Errorf("unknown figure %q (want 1, 2a, 2b, 5, 6, 8, 9, 10, 11, 12, 13, 14 or all)", *figFlag))
	}
	f()
}

func sweepSizes() []int {
	var sizes []int
	for s := 256 << 10; s <= *maxMB<<20; s <<= 1 {
		sizes = append(sizes, s)
	}
	return sizes
}

func world(c hw.Cluster, nodes, ppn int, cfg core.Config) *mpi.World {
	w, err := mpi.NewWorld(mpi.Options{Cluster: c, Nodes: nodes, PPN: ppn, Engine: cfg})
	cli.Fatal(err)
	return w
}

// fig1 prints the Sierra node link-speed disparity of Figure 1.
func fig1() {
	fmt.Println("Figure 1: intra- vs inter-node GPU communication on Sierra-class nodes")
	fmt.Println()
	s := hw.Sierra()
	t := cli.NewTable("Link", "Bandwidth (GB/s)")
	t.Row(s.IntraNode.Name, s.IntraNode.BandwidthGBps)
	t.Row(hw.XBus().Name, hw.XBus().BandwidthGBps)
	t.Row(hw.PCIeGen4x8().Name, hw.PCIeGen4x8().BandwidthGBps)
	t.Row(s.InterNode.Name, s.InterNode.BandwidthGBps)
	t.Write(os.Stdout)
	fmt.Printf("\nDisparity: NVLink is %.1fx faster than the inter-node network.\n",
		s.IntraNode.BandwidthGBps/s.InterNode.BandwidthGBps)
}

// fig2a reproduces the inter-node device-to-device bandwidth curves of
// Figure 2(a): the optimized baseline saturates IB EDR; a less-optimized
// MPI library ("Spectrum MPI"-like, modeled with extra per-message
// software overhead) trails at mid sizes.
func fig2a() {
	fmt.Println("Figure 2(a): inter-node D-D bandwidth, Longhorn (IB EDR)")
	fmt.Println()
	var sizes []int
	for s := 16 << 10; s <= *maxMB<<20; s <<= 1 {
		sizes = append(sizes, s)
	}
	w := world(hw.Longhorn(), 2, 1, core.Config{})
	gdr, err := omb.Bandwidth(w, sizes, *warmup, *iters, 16, 0)
	cli.Fatal(err)
	spectrum, err := omb.Bandwidth(w, sizes, *warmup, *iters, 16, simtime.FromMicroseconds(12))
	cli.Fatal(err)
	t := cli.NewTable("Size", "MVAPICH2-GDR (GB/s)", "Spectrum-MPI-like (GB/s)", "Peak (GB/s)")
	for i, r := range gdr {
		t.Row(cli.FormatBytes(r.Bytes), fmt.Sprintf("%.2f", r.BandwidthGBps),
			fmt.Sprintf("%.2f", spectrum[i].BandwidthGBps), hw.Longhorn().InterNode.BandwidthGBps)
	}
	t.Write(os.Stdout)
}

// fig2b reproduces the AWP-ODC computation/communication split of
// Figure 2(b) at 4, 8 and 16 GPUs.
func fig2b() {
	fmt.Println("Figure 2(b): AWP-ODC time breakdown (Longhorn, 4 GPUs/node, weak scaling)")
	fmt.Println()
	t := cli.NewTable("GPUs", "Compute/step", "Comm/step", "Comm share")
	for _, gpus := range []int{4, 8, 16} {
		nodes := gpus / 4
		if nodes < 1 {
			nodes = 1
		}
		w := world(hw.Longhorn(), nodes, gpus/nodes, core.Config{})
		res, err := awpodc.Run(w, awpodc.Config{Steps: *steps})
		cli.Fatal(err)
		share := float64(res.CommTime) / float64(res.CommTime+res.ComputeTime)
		t.Row(gpus, res.ComputeTime, res.CommTime, fmt.Sprintf("%.0f%%", 100*share))
	}
	t.Write(os.Stdout)
}

// latencySeries runs an osu_latency sweep for one engine configuration.
func latencySeries(c hw.Cluster, nodes, ppn int, cfg core.Config, gen omb.DataGen) []omb.P2PResult {
	w := world(c, nodes, ppn, cfg)
	res, err := omb.Latency(w, sweepSizes(), *warmup, *iters, gen)
	cli.Fatal(err)
	return res
}

// fig5 reproduces the naive-integration latency curves of Figure 5.
func fig5() {
	fmt.Println("Figure 5: latency of naively integrating the compression algorithms")
	fmt.Println("(Longhorn-V100, inter-node, OMB dummy data)")
	fmt.Println()
	base := latencySeries(hw.Longhorn(), 2, 1, core.Config{}, nil)
	naiveMPC := latencySeries(hw.Longhorn(), 2, 1, core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoMPC}, nil)
	naiveZFP := latencySeries(hw.Longhorn(), 2, 1, core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoZFP, ZFPRate: 16}, nil)
	t := cli.NewTable("Size", "Baseline (us)", "Naive MPC (us)", "Naive ZFP r16 (us)")
	for i := range base {
		t.Row(cli.FormatBytes(base[i].Bytes),
			fmt.Sprintf("%.1f", base[i].Latency.Microseconds()),
			fmt.Sprintf("%.1f", naiveMPC[i].Latency.Microseconds()),
			fmt.Sprintf("%.1f", naiveZFP[i].Latency.Microseconds()))
	}
	t.Write(os.Stdout)
}

// breakdownSweep runs a latency sweep and prints the per-phase breakdown
// accumulated by both ranks' engines at each size — Figures 6 and 8.
func breakdownSweep(title string, c hw.Cluster, cfg core.Config, phases []core.Phase) {
	fmt.Println(title)
	fmt.Println()
	header := []string{"Size", "Total (us)"}
	for _, p := range phases {
		header = append(header, p.String()+" (us)")
	}
	header = append(header, "Comm & Other (us)")
	t := cli.NewTable(header...)
	for _, size := range sweepSizes() {
		w := world(c, 2, 1, cfg)
		res, err := omb.Latency(w, []int{size}, *warmup, *iters, nil)
		cli.Fatal(err)
		// Sum both engines' phase accounting, per measured iteration.
		var b core.Breakdown
		for i := 0; i < w.Size(); i++ {
			b.AddAll(&w.Rank(i).Engine.Stats)
		}
		perIter := b.Scale(*warmup + *iters)
		row := []interface{}{cli.FormatBytes(size), fmt.Sprintf("%.1f", (2 * res[0].Latency).Microseconds())}
		var accounted simtime.Duration
		for _, p := range phases {
			row = append(row, fmt.Sprintf("%.1f", perIter.Get(p).Microseconds()))
			accounted += perIter.Get(p)
		}
		comm := 2*res[0].Latency - accounted
		row = append(row, fmt.Sprintf("%.1f", comm.Microseconds()))
		t.Row(row...)
	}
	t.Write(os.Stdout)
}

func fig6() {
	mpcPhases := []core.Phase{core.PhaseMemAlloc, core.PhaseCompressKernel, core.PhaseDecompressKernel, core.PhaseDataCopy, core.PhaseCombine}
	breakdownSweep("Figure 6(a): inter-node round-trip breakdown, naive MPC (Longhorn)",
		hw.Longhorn(), core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoMPC}, mpcPhases)
	fmt.Println()
	breakdownSweep("Figure 6(b): inter-node round-trip breakdown, MPC-OPT (Longhorn)",
		hw.Longhorn(), core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}, mpcPhases)
}

func fig8() {
	zfpPhases := []core.Phase{core.PhaseStreamField, core.PhaseGridQuery, core.PhaseMemAlloc, core.PhaseCompressKernel, core.PhaseDecompressKernel}
	breakdownSweep("Figure 8(a): inter-node round-trip breakdown, naive ZFP r16 (Frontera Liquid)",
		hw.FronteraLiquid(), core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoZFP, ZFPRate: 16}, zfpPhases)
	fmt.Println()
	breakdownSweep("Figure 8(b): inter-node round-trip breakdown, ZFP-OPT r16 (Frontera Liquid)",
		hw.FronteraLiquid(), core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16}, zfpPhases)
}

// fig9 reproduces the four point-to-point latency sweeps of Figure 9.
func fig9() {
	type sub struct {
		name       string
		c          hw.Cluster
		nodes, ppn int
	}
	subs := []sub{
		{"9(a) Longhorn inter-node (V100, IB EDR)", hw.Longhorn(), 2, 1},
		{"9(b) Frontera Liquid inter-node (RTX5000, IB FDR)", hw.FronteraLiquid(), 2, 1},
		{"9(c) Longhorn intra-node (V100, NVLink)", hw.Longhorn(), 1, 2},
		{"9(d) Frontera Liquid intra-node (RTX5000, PCIe)", hw.FronteraLiquid(), 1, 2},
	}
	for _, sb := range subs {
		fmt.Printf("Figure %s\n\n", sb.name)
		base := latencySeries(sb.c, sb.nodes, sb.ppn, core.Config{}, nil)
		mpcOpt := latencySeries(sb.c, sb.nodes, sb.ppn, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}, nil)
		var zfpSeries [3][]omb.P2PResult
		for i, rate := range []int{16, 8, 4} {
			zfpSeries[i] = latencySeries(sb.c, sb.nodes, sb.ppn,
				core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: rate}, nil)
		}
		t := cli.NewTable("Size", "Baseline (us)", "MPC-OPT (us)", "ZFP-OPT r16 (us)", "ZFP-OPT r8 (us)", "ZFP-OPT r4 (us)")
		for i := range base {
			t.Row(cli.FormatBytes(base[i].Bytes),
				fmt.Sprintf("%.1f", base[i].Latency.Microseconds()),
				fmt.Sprintf("%.1f", mpcOpt[i].Latency.Microseconds()),
				fmt.Sprintf("%.1f", zfpSeries[0][i].Latency.Microseconds()),
				fmt.Sprintf("%.1f", zfpSeries[1][i].Latency.Microseconds()),
				fmt.Sprintf("%.1f", zfpSeries[2][i].Latency.Microseconds()))
		}
		t.Write(os.Stdout)
		fmt.Println()
	}
}

// fig10 reproduces the percentage latency breakdowns of Figure 10.
func fig10() {
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"10(a) MPC-OPT", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}},
		{"10(b) ZFP-OPT(rate:4)", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 4}},
	}
	for _, c := range configs {
		fmt.Printf("Figure %s: inter-node latency breakdown, Frontera Liquid\n\n", c.name)
		t := cli.NewTable("Size", "Compression", "Decompression", "Comm & Other")
		for _, size := range sweepSizes() {
			w := world(hw.FronteraLiquid(), 2, 1, c.cfg)
			res, err := omb.Latency(w, []int{size}, *warmup, *iters, nil)
			cli.Fatal(err)
			var b core.Breakdown
			for i := 0; i < w.Size(); i++ {
				b.AddAll(&w.Rank(i).Engine.Stats)
			}
			perIter := b.Scale(*warmup + *iters)
			total := 2 * res[0].Latency
			compr := perIter.Get(core.PhaseCompressKernel) + perIter.Get(core.PhaseDataCopy) +
				perIter.Get(core.PhaseCombine) + perIter.Get(core.PhaseMemAlloc)/2 +
				perIter.Get(core.PhaseStreamField)/2 + perIter.Get(core.PhaseGridQuery)/2
			decompr := perIter.Get(core.PhaseDecompressKernel) + perIter.Get(core.PhaseMemAlloc)/2 +
				perIter.Get(core.PhaseStreamField)/2 + perIter.Get(core.PhaseGridQuery)/2
			comm := total - compr - decompr
			pct := func(d simtime.Duration) string {
				return fmt.Sprintf("%.1fus (%.0f%%)", d.Microseconds(), 100*float64(d)/float64(total))
			}
			t.Row(cli.FormatBytes(size), pct(compr), pct(decompr), pct(comm))
		}
		t.Write(os.Stdout)
		fmt.Println()
	}
}

// fig11 reproduces the collective latency bars of Figure 11: MPI_Bcast and
// MPI_Allgather over the eight real datasets, 8 nodes x 2 ppn on Frontera.
func fig11() {
	msg := 2 << 20
	run := func(coll string, f func(w *mpi.World, gen omb.DataGen) (omb.CollResult, error)) {
		fmt.Printf("Figure 11 (%s): 4 nodes x 2 ppn, Frontera Liquid, %s messages\n\n", coll, cli.FormatBytes(msg))
		t := cli.NewTable("Dataset", "Baseline (us)", "MPC-OPT (us)", "ZFP r16 (us)", "ZFP r8 (us)", "ZFP r4 (us)", "MPC ratio")
		for _, d := range datasets.All() {
			gen, err := omb.DatasetData(d.Name)
			cli.Fatal(err)
			row := []interface{}{d.Name}
			var mpcRatio float64
			for _, cfg := range []core.Config{
				{},
				{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: d.Dim},
				{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16},
				{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8},
				{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 4},
			} {
				w := world(hw.FronteraLiquid(), 4, 2, cfg)
				res, err := f(w, gen)
				cli.Fatal(err)
				row = append(row, fmt.Sprintf("%.1f", res.Latency.Microseconds()))
				if cfg.Algorithm == core.AlgoMPC {
					mpcRatio = res.Ratio
				}
			}
			row = append(row, fmt.Sprintf("%.2f", mpcRatio))
			t.Row(row...)
		}
		t.Write(os.Stdout)
		fmt.Println()
	}
	run("MPI_Bcast", func(w *mpi.World, gen omb.DataGen) (omb.CollResult, error) {
		return omb.CollectiveLatency(w, "bcast", msg, *warmup, *iters, gen)
	})
	run("MPI_Allgather", func(w *mpi.World, gen omb.DataGen) (omb.CollResult, error) {
		return omb.CollectiveLatency(w, "allgather", msg, *warmup, *iters, gen)
	})
}

// awpScalingFigure renders one AWP-ODC weak-scaling panel. The per-rank
// mesh is sized so the largest point fits in host memory (the full
// 320x320x128 subdomain of cmd/awpodc needs ~105 MB per rank).
// dynamicMPC switches the MPC column to the cost-model-gated engine,
// used when the scaled-down mesh puts halo messages below MPC's
// break-even size (the paper's runs used 2-16 MB halos).
func awpScalingFigure(title string, c hw.Cluster, ppn int, gpuCounts []int, cfg awpodc.Config, dynamicMPC bool) {
	fmt.Printf("%s\n\n", title)
	cfg.Steps = *steps
	mpcLabel := "MPC-OPT TF"
	if dynamicMPC {
		mpcLabel = "MPC-OPT(dyn) TF"
	}
	t := cli.NewTable("GPUs", "Baseline TF", mpcLabel, "ZFP r16 TF", "ZFP r8 TF",
		"Base ms/step", "MPC ms/step", "ZFPr8 ms/step", "MPC ratio")
	for _, gpus := range gpuCounts {
		engines := []core.Config{
			{},
			{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Dynamic: dynamicMPC},
			{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16},
			{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8},
		}
		var results []awpodc.Result
		for _, e := range engines {
			res, err := awpodc.WeakScaling(c, ppn, []int{gpus}, e, cfg)
			cli.Fatal(err)
			results = append(results, res[0])
		}
		t.Row(gpus,
			fmt.Sprintf("%.2f", results[0].TFlops),
			fmt.Sprintf("%.2f", results[1].TFlops),
			fmt.Sprintf("%.2f", results[2].TFlops),
			fmt.Sprintf("%.2f", results[3].TFlops),
			fmt.Sprintf("%.2f", results[0].TimePerStep.Milliseconds()),
			fmt.Sprintf("%.2f", results[1].TimePerStep.Milliseconds()),
			fmt.Sprintf("%.2f", results[3].TimePerStep.Milliseconds()),
			fmt.Sprintf("%.1f", results[1].Ratio))
	}
	t.Write(os.Stdout)
}

func fig12() {
	cfg := awpodc.Config{NX: 320, NY: 320, NZ: 64}
	awpScalingFigure("Figure 12(a): AWP-ODC weak scaling, Frontera Liquid, 2 GPUs/node",
		hw.FronteraLiquid(), 2, []int{4, 8, 16}, cfg, false)
	fmt.Println()
	awpScalingFigure("Figure 12(b): AWP-ODC weak scaling, Frontera Liquid, 4 GPUs/node",
		hw.FronteraLiquid(), 4, []int{8, 16, 32, 64}, cfg, false)
}

func fig13() {
	// The per-rank mesh is sized so the 512-GPU point fits in host
	// memory (128x128x64 x 2 fields x 4 B ~ 8.6 MB per rank).
	awpScalingFigure("Figure 13: AWP-ODC weak scaling, Lassen, 4 GPUs/node (TFLOPS and ms/step)",
		hw.Lassen(), 4, []int{8, 16, 32, 64, 128, 256, 512},
		awpodc.Config{NX: 128, NY: 128, NZ: 64}, true)
}

// fig14 reproduces the Dask transpose-sum study of Figure 14 on RI2.
func fig14() {
	fmt.Println("Figure 14: Dask cuPy transpose-sum (RI2, 1 GPU/node, 8192x8192 array, 1024 chunks)")
	fmt.Println()
	m := dask.Matrix{Dim: 8192, ChunkDim: 1024}
	t := cli.NewTable("Workers", "Baseline (ms)", "ZFP r16 (ms)", "ZFP r8 (ms)",
		"Base GB/s", "ZFP r16 GB/s", "ZFP r8 GB/s")
	for _, workers := range []int{2, 4, 6, 8} {
		var res [3]dask.Result
		for i, cfg := range []core.Config{
			{},
			{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16},
			{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8},
		} {
			w := world(hw.RI2(), workers, 1, cfg)
			r, err := dask.TransposeSum(w, m)
			cli.Fatal(err)
			res[i] = r
		}
		t.Row(workers,
			fmt.Sprintf("%.2f", res[0].ExecTime.Milliseconds()),
			fmt.Sprintf("%.2f", res[1].ExecTime.Milliseconds()),
			fmt.Sprintf("%.2f", res[2].ExecTime.Milliseconds()),
			fmt.Sprintf("%.1f", res[0].ThroughputGBps),
			fmt.Sprintf("%.1f", res[1].ThroughputGBps),
			fmt.Sprintf("%.1f", res[2].ThroughputGBps))
	}
	t.Write(os.Stdout)
}
