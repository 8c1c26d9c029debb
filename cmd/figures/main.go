// Command figures regenerates the data series behind every figure in the
// paper's evaluation, and the design-choice ablations, as text tables:
//
//	figures -fig 9            # one figure; -h lists them all
//	figures -fig ablations
//	figures -fig all -iters 2 # everything (results_figures.txt)
//
// Figures 3, 4 and 7 are architecture diagrams; their content is the
// implemented control flow itself. Table III is cmd/tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/cli"
	"mpicomp/internal/core"
	"mpicomp/internal/dask"
	"mpicomp/internal/datasets"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/omb"
	"mpicomp/internal/simtime"
)

// figure is one entry of the evaluation: what -fig calls it, what -h says
// it is, and the function that runs it at a scale and prints it.
type figure struct {
	id, title string
	run       func(w io.Writer, s scale) error
}

// figures is the one definition of every figure: main, -fig all, the usage
// text, the unknown-figure error and the smoke test all walk it.
var figures = []figure{
	{"1", "Sierra link-speed disparity (motivation)", fig1},
	{"2a", "inter-node D-D bandwidth vs message size", fig2a},
	{"2b", "AWP-ODC compute vs communication breakdown", fig2b},
	{"5", "naive integration latency vs baseline", fig5},
	{"6", "MPC latency breakdown, naive vs MPC-OPT", fig6},
	{"8", "ZFP latency breakdown, naive vs ZFP-OPT", fig8},
	{"9", "point-to-point latency sweeps (4 subplots)", fig9},
	{"10", "MPC-OPT / ZFP-OPT latency percentage breakdown", fig10},
	{"11", "MPI_Bcast / MPI_Allgather on the 8 datasets", fig11},
	{"12", "AWP-ODC weak scaling on Frontera Liquid", fig12},
	{"13", "AWP-ODC weak scaling on Lassen", fig13},
	{"14", "Dask transpose-sum execution time and throughput", fig14},
	{"ablations", "partition count, GDRCopy readback, pipelined rendezvous, dynamic selection", ablations},
}

// scale sizes a run. main fills it from the flags, the paper's scale by
// default; the smoke test shrinks every axis to the least that still takes
// each figure through its code.
type scale struct {
	iters, warmup int
	maxBytes      int // largest message of a size sweep
	steps         int // AWP-ODC time steps
	points        int // points run of each dataset, GPU-count and worker-count axis; 0 = all
	shrink        int // divisor of every fixed extent (message sizes, AWP-ODC mesh, Dask matrix); 1 = the paper's
}

// axis returns the points of a dataset, GPU-count or worker-count axis this
// scale runs.
func axis[T any](s scale, all []T) []T {
	if s.points > 0 && s.points < len(all) {
		return all[:s.points]
	}
	return all
}

// sweep returns the doubling message sizes from first up to maxBytes.
func (s scale) sweep(first int) []int {
	var sizes []int
	for n := first; n <= s.maxBytes; n <<= 1 {
		sizes = append(sizes, n)
	}
	return sizes
}

// fixed is a figure's fixed message size at this scale.
func (s scale) fixed(bytes int) int { return bytes / s.shrink }

// figureList renders the table for the -fig help and the unknown-figure
// error.
func figureList() string {
	var b strings.Builder
	for _, f := range figures {
		fmt.Fprintf(&b, "  %-10s %s\n", f.id, f.title)
	}
	return b.String() + "  all        every one of them"
}

func main() {
	figFlag := flag.String("fig", "", "figure to regenerate:\n"+figureList())
	iters := flag.Int("iters", 3, "measured iterations per point")
	warmup := flag.Int("warmup", 1, "warmup iterations per point")
	maxMB := flag.Int("maxmb", 32, "largest message size in MB for sweeps")
	steps := flag.Int("steps", 3, "AWP-ODC time steps")
	flag.Parse()
	s := scale{iters: *iters, warmup: *warmup, maxBytes: *maxMB << 20, steps: *steps, shrink: 1}

	known := false
	for _, f := range figures {
		if *figFlag == f.id || *figFlag == "all" {
			known = true
			cli.Fatal(f.run(os.Stdout, s))
			if *figFlag == "all" {
				fmt.Println()
			}
		}
	}
	if !known {
		cli.Fatal(fmt.Errorf("unknown figure %q; want one of\n%s", *figFlag, figureList()))
	}
}

// scheme is one column of a figure: its label and the engine behind it.
type scheme struct {
	name string
	cfg  core.Config
}

// The paper's schemes send every message whole (PipelineChunkBytes -1), as
// Figure 4 draws them: the model-sized pipeline is an extension, measured
// in the ablations.
var (
	mpcOpt   = core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1}
	mpcNaive = core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1}
)

func zfpOpt(rate int) core.Config {
	return core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: rate, PipelineChunkBytes: -1}
}

func zfpNaive(rate int) core.Config {
	return core.Config{Mode: core.ModeNaive, Algorithm: core.AlgoZFP, ZFPRate: rate, PipelineChunkBytes: -1}
}

func world(c hw.Cluster, nodes, ppn int, cfg core.Config) (*mpi.World, error) {
	return mpi.NewWorld(mpi.Options{Cluster: c, Nodes: nodes, PPN: ppn, Engine: cfg})
}

func us(d simtime.Duration) string { return fmt.Sprintf("%.1f", d.Microseconds()) }

// fig1 prints the Sierra node link-speed disparity of Figure 1.
func fig1(w io.Writer, _ scale) error {
	fmt.Fprintln(w, "Figure 1: intra- vs inter-node GPU communication on Sierra-class nodes")
	fmt.Fprintln(w)
	s := hw.Sierra()
	t := cli.NewTable("Link", "Bandwidth (GB/s)")
	t.Row(s.IntraNode.Name, s.IntraNode.BandwidthGBps)
	t.Row(hw.XBus().Name, hw.XBus().BandwidthGBps)
	t.Row(hw.PCIeGen4x8().Name, hw.PCIeGen4x8().BandwidthGBps)
	t.Row(s.InterNode.Name, s.InterNode.BandwidthGBps)
	t.Write(w)
	fmt.Fprintf(w, "\nDisparity: NVLink is %.1fx faster than the inter-node network.\n",
		s.IntraNode.BandwidthGBps/s.InterNode.BandwidthGBps)
	return nil
}

// fig2a reproduces the inter-node device-to-device bandwidth curves of
// Figure 2(a): the optimized baseline saturates IB EDR; a less-optimized
// MPI library ("Spectrum MPI"-like, modeled with extra per-message
// software overhead) trails at mid sizes.
func fig2a(w io.Writer, s scale) error {
	fmt.Fprintln(w, "Figure 2(a): inter-node D-D bandwidth, Longhorn (IB EDR)")
	fmt.Fprintln(w)
	wd, err := world(hw.Longhorn(), 2, 1, core.Config{})
	if err != nil {
		return err
	}
	sizes := s.sweep(16 << 10)
	gdr, err := omb.Bandwidth(wd, sizes, s.warmup, s.iters, 16, 0)
	if err != nil {
		return err
	}
	spectrum, err := omb.Bandwidth(wd, sizes, s.warmup, s.iters, 16, simtime.FromMicroseconds(12))
	if err != nil {
		return err
	}
	t := cli.NewTable("Size", "MVAPICH2-GDR (GB/s)", "Spectrum-MPI-like (GB/s)", "Peak (GB/s)")
	for i, r := range gdr {
		t.Row(cli.FormatBytes(r.Bytes), fmt.Sprintf("%.2f", r.BandwidthGBps),
			fmt.Sprintf("%.2f", spectrum[i].BandwidthGBps), hw.Longhorn().InterNode.BandwidthGBps)
	}
	t.Write(w)
	return nil
}

// mesh is an AWP-ODC per-rank subdomain at this scale.
func (s scale) mesh(nx, ny, nz int) awpodc.Config {
	return awpodc.Config{NX: nx / s.shrink, NY: ny / s.shrink, NZ: nz / s.shrink, Steps: s.steps}
}

// fig2b reproduces the AWP-ODC computation/communication split of
// Figure 2(b) at 4, 8 and 16 GPUs.
func fig2b(w io.Writer, s scale) error {
	fmt.Fprintln(w, "Figure 2(b): AWP-ODC time breakdown (Longhorn, 4 GPUs/node, weak scaling)")
	fmt.Fprintln(w)
	t := cli.NewTable("GPUs", "Compute/step", "Comm/step", "Comm share")
	for _, gpus := range axis(s, []int{4, 8, 16}) {
		res, err := awpodc.WeakScaling(hw.Longhorn(), 4, []int{gpus}, core.Config{}, s.mesh(320, 320, 128))
		if err != nil {
			return err
		}
		share := float64(res[0].CommTime) / float64(res[0].CommTime+res[0].ComputeTime)
		t.Row(gpus, res[0].ComputeTime, res[0].CommTime, fmt.Sprintf("%.0f%%", 100*share))
	}
	t.Write(w)
	return nil
}

// latencyTable prints one osu_latency sweep per scheme, a column each.
func latencyTable(w io.Writer, s scale, c hw.Cluster, nodes, ppn int, schemes []scheme) error {
	header := []string{"Size"}
	series := make([][]omb.P2PResult, len(schemes))
	for i, sc := range schemes {
		header = append(header, sc.name+" (us)")
		wd, err := world(c, nodes, ppn, sc.cfg)
		if err != nil {
			return err
		}
		if series[i], err = omb.Latency(wd, s.sweep(256<<10), s.warmup, s.iters, nil); err != nil {
			return err
		}
	}
	t := cli.NewTable(header...)
	for row := range series[0] {
		cells := []interface{}{cli.FormatBytes(series[0][row].Bytes)}
		for i := range schemes {
			cells = append(cells, us(series[i][row].Latency))
		}
		t.Row(cells...)
	}
	t.Write(w)
	return nil
}

// fig5 reproduces the naive-integration latency curves of Figure 5.
func fig5(w io.Writer, s scale) error {
	fmt.Fprintln(w, "Figure 5: latency of naively integrating the compression algorithms")
	fmt.Fprintln(w, "(Longhorn-V100, inter-node, OMB dummy data)")
	fmt.Fprintln(w)
	return latencyTable(w, s, hw.Longhorn(), 2, 1, []scheme{
		{"Baseline", core.Config{}}, {"Naive MPC", mpcNaive}, {"Naive ZFP r16", zfpNaive(16)}})
}

// roundTrip runs one osu_latency point and returns the round-trip time and
// the phase accounting of both ranks' engines, per iteration.
func roundTrip(s scale, c hw.Cluster, cfg core.Config, size int) (simtime.Duration, core.Breakdown, error) {
	wd, err := world(c, 2, 1, cfg)
	if err != nil {
		return 0, core.Breakdown{}, err
	}
	res, err := omb.Latency(wd, []int{size}, s.warmup, s.iters, nil)
	if err != nil {
		return 0, core.Breakdown{}, err
	}
	var b core.Breakdown
	for i := 0; i < wd.Size(); i++ {
		b.AddAll(&wd.Rank(i).Engine.Stats)
	}
	return 2 * res[0].Latency, b.Scale(s.warmup + s.iters), nil
}

// breakdownSweep prints the per-phase round-trip breakdown at each size —
// Figures 6 and 8.
func breakdownSweep(w io.Writer, s scale, title string, c hw.Cluster, cfg core.Config, phases []core.Phase) error {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w)
	header := []string{"Size", "Total (us)"}
	for _, p := range phases {
		header = append(header, p.String()+" (us)")
	}
	t := cli.NewTable(append(header, "Comm & Other (us)")...)
	for _, size := range s.sweep(256 << 10) {
		total, perIter, err := roundTrip(s, c, cfg, size)
		if err != nil {
			return err
		}
		row := []interface{}{cli.FormatBytes(size), us(total)}
		comm := total
		for _, p := range phases {
			row = append(row, us(perIter.Get(p)))
			comm -= perIter.Get(p)
		}
		t.Row(append(row, us(comm))...)
	}
	t.Write(w)
	return nil
}

func fig6(w io.Writer, s scale) error {
	phases := []core.Phase{core.PhaseMemAlloc, core.PhaseCompressKernel, core.PhaseDecompressKernel, core.PhaseDataCopy, core.PhaseCombine}
	if err := breakdownSweep(w, s, "Figure 6(a): inter-node round-trip breakdown, naive MPC (Longhorn)",
		hw.Longhorn(), mpcNaive, phases); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return breakdownSweep(w, s, "Figure 6(b): inter-node round-trip breakdown, MPC-OPT (Longhorn)",
		hw.Longhorn(), mpcOpt, phases)
}

func fig8(w io.Writer, s scale) error {
	phases := []core.Phase{core.PhaseStreamField, core.PhaseGridQuery, core.PhaseMemAlloc, core.PhaseCompressKernel, core.PhaseDecompressKernel}
	if err := breakdownSweep(w, s, "Figure 8(a): inter-node round-trip breakdown, naive ZFP r16 (Frontera Liquid)",
		hw.FronteraLiquid(), zfpNaive(16), phases); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return breakdownSweep(w, s, "Figure 8(b): inter-node round-trip breakdown, ZFP-OPT r16 (Frontera Liquid)",
		hw.FronteraLiquid(), zfpOpt(16), phases)
}

// fig9 reproduces the four point-to-point latency sweeps of Figure 9.
func fig9(w io.Writer, s scale) error {
	subs := []struct {
		name       string
		c          hw.Cluster
		nodes, ppn int
	}{
		{"9(a) Longhorn inter-node (V100, IB EDR)", hw.Longhorn(), 2, 1},
		{"9(b) Frontera Liquid inter-node (RTX5000, IB FDR)", hw.FronteraLiquid(), 2, 1},
		{"9(c) Longhorn intra-node (V100, NVLink)", hw.Longhorn(), 1, 2},
		{"9(d) Frontera Liquid intra-node (RTX5000, PCIe)", hw.FronteraLiquid(), 1, 2},
	}
	for _, sb := range subs {
		fmt.Fprintf(w, "Figure %s\n\n", sb.name)
		err := latencyTable(w, s, sb.c, sb.nodes, sb.ppn, []scheme{
			{"Baseline", core.Config{}}, {"MPC-OPT", mpcOpt},
			{"ZFP-OPT r16", zfpOpt(16)}, {"ZFP-OPT r8", zfpOpt(8)}, {"ZFP-OPT r4", zfpOpt(4)}})
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// fig10 reproduces the percentage latency breakdowns of Figure 10.
func fig10(w io.Writer, s scale) error {
	for _, sc := range []scheme{{"10(a) MPC-OPT", mpcOpt}, {"10(b) ZFP-OPT(rate:4)", zfpOpt(4)}} {
		fmt.Fprintf(w, "Figure %s: inter-node latency breakdown, Frontera Liquid\n\n", sc.name)
		t := cli.NewTable("Size", "Compression", "Decompression", "Comm & Other")
		for _, size := range s.sweep(256 << 10) {
			total, perIter, err := roundTrip(s, hw.FronteraLiquid(), sc.cfg, size)
			if err != nil {
				return err
			}
			// Set-up phases serve both directions; each takes half.
			shared := perIter.Get(core.PhaseMemAlloc)/2 + perIter.Get(core.PhaseStreamField)/2 + perIter.Get(core.PhaseGridQuery)/2
			compr := perIter.Get(core.PhaseCompressKernel) + perIter.Get(core.PhaseDataCopy) + perIter.Get(core.PhaseCombine) + shared
			decompr := perIter.Get(core.PhaseDecompressKernel) + shared
			pct := func(d simtime.Duration) string {
				return fmt.Sprintf("%.1fus (%.0f%%)", d.Microseconds(), 100*float64(d)/float64(total))
			}
			t.Row(cli.FormatBytes(size), pct(compr), pct(decompr), pct(total-compr-decompr))
		}
		t.Write(w)
		fmt.Fprintln(w)
	}
	return nil
}

// fig11 reproduces the collective latency bars of Figure 11: MPI_Bcast and
// MPI_Allgather over the eight real datasets, 4 nodes x 2 ppn on Frontera.
func fig11(w io.Writer, s scale) error {
	msg := s.fixed(2 << 20)
	for _, coll := range []struct{ title, name string }{{"MPI_Bcast", "bcast"}, {"MPI_Allgather", "allgather"}} {
		fmt.Fprintf(w, "Figure 11 (%s): 4 nodes x 2 ppn, Frontera Liquid, %s messages\n\n", coll.title, cli.FormatBytes(msg))
		t := cli.NewTable("Dataset", "Baseline (us)", "MPC-OPT (us)", "ZFP r16 (us)", "ZFP r8 (us)", "ZFP r4 (us)", "MPC ratio")
		for _, d := range axis(s, datasets.All()) {
			gen, err := omb.DatasetData(d.Name)
			if err != nil {
				return err
			}
			mpcTuned := mpcOpt
			mpcTuned.MPCDim = d.Dim
			row := []interface{}{d.Name}
			var mpcRatio float64
			for _, cfg := range []core.Config{{}, mpcTuned, zfpOpt(16), zfpOpt(8), zfpOpt(4)} {
				wd, err := world(hw.FronteraLiquid(), 4, 2, cfg)
				if err != nil {
					return err
				}
				res, err := omb.CollectiveLatency(wd, coll.name, msg, s.warmup, s.iters, gen)
				if err != nil {
					return err
				}
				row = append(row, us(res.Latency))
				if cfg.Algorithm == core.AlgoMPC {
					mpcRatio = res.Ratio
				}
			}
			t.Row(append(row, fmt.Sprintf("%.2f", mpcRatio))...)
		}
		t.Write(w)
		fmt.Fprintln(w)
	}
	return nil
}

// awpScaling renders one AWP-ODC weak-scaling panel. The per-rank mesh is
// sized so the largest point fits in host memory (the full 320x320x128
// subdomain of cmd/awpodc needs ~105 MB per rank). dynamicMPC lets the
// cost model pick the MPC column's send forms (PipelineChunkBytes 0), used
// when the scaled-down mesh puts halo messages below MPC's break-even size
// (the paper's runs used 2-16 MB halos).
func awpScaling(w io.Writer, s scale, title string, c hw.Cluster, ppn int, gpuCounts []int, cfg awpodc.Config, dynamicMPC bool) error {
	fmt.Fprintf(w, "%s\n\n", title)
	mpcLabel, mpcCfg := "MPC-OPT TF", mpcOpt
	if dynamicMPC {
		mpcLabel, mpcCfg.PipelineChunkBytes = "MPC-OPT(dyn) TF", 0
	}
	t := cli.NewTable("GPUs", "Baseline TF", mpcLabel, "ZFP r16 TF", "ZFP r8 TF",
		"Base ms/step", "MPC ms/step", "ZFPr8 ms/step", "MPC ratio")
	for _, gpus := range axis(s, gpuCounts) {
		var results []awpodc.Result
		for _, e := range []core.Config{{}, mpcCfg, zfpOpt(16), zfpOpt(8)} {
			res, err := awpodc.WeakScaling(c, ppn, []int{gpus}, e, cfg)
			if err != nil {
				return err
			}
			results = append(results, res[0])
		}
		row := []interface{}{gpus}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.2f", r.TFlops))
		}
		for _, r := range []awpodc.Result{results[0], results[1], results[3]} {
			row = append(row, fmt.Sprintf("%.2f", r.TimePerStep.Milliseconds()))
		}
		t.Row(append(row, fmt.Sprintf("%.1f", results[1].Ratio))...)
	}
	t.Write(w)
	return nil
}

func fig12(w io.Writer, s scale) error {
	if err := awpScaling(w, s, "Figure 12(a): AWP-ODC weak scaling, Frontera Liquid, 2 GPUs/node",
		hw.FronteraLiquid(), 2, []int{4, 8, 16}, s.mesh(320, 320, 64), false); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return awpScaling(w, s, "Figure 12(b): AWP-ODC weak scaling, Frontera Liquid, 4 GPUs/node",
		hw.FronteraLiquid(), 4, []int{8, 16, 32, 64}, s.mesh(320, 320, 64), false)
}

func fig13(w io.Writer, s scale) error {
	// The per-rank mesh is sized so the 512-GPU point fits in host
	// memory (128x128x64 x 2 fields x 4 B ~ 8.6 MB per rank).
	return awpScaling(w, s, "Figure 13: AWP-ODC weak scaling, Lassen, 4 GPUs/node (TFLOPS and ms/step)",
		hw.Lassen(), 4, []int{8, 16, 32, 64, 128, 256, 512}, s.mesh(128, 128, 64), true)
}

// fig14 reproduces the Dask transpose-sum study of Figure 14 on RI2.
func fig14(w io.Writer, s scale) error {
	m := dask.Matrix{Dim: 8192 / s.shrink, ChunkDim: 1024 / s.shrink}
	fmt.Fprintf(w, "Figure 14: Dask cuPy transpose-sum (RI2, 1 GPU/node, %dx%d array, %d chunks)\n\n", m.Dim, m.Dim, m.ChunkDim)
	t := cli.NewTable("Workers", "Baseline (ms)", "ZFP r16 (ms)", "ZFP r8 (ms)",
		"Base GB/s", "ZFP r16 GB/s", "ZFP r8 GB/s")
	for _, workers := range axis(s, []int{2, 4, 6, 8}) {
		var res [3]dask.Result
		for i, cfg := range []core.Config{{}, zfpOpt(16), zfpOpt(8)} {
			wd, err := world(hw.RI2(), workers, 1, cfg)
			if err != nil {
				return err
			}
			if res[i], err = dask.TransposeSum(wd, m); err != nil {
				return err
			}
		}
		row := []interface{}{workers}
		for _, r := range res {
			row = append(row, fmt.Sprintf("%.2f", r.ExecTime.Milliseconds()))
		}
		for _, r := range res {
			row = append(row, fmt.Sprintf("%.1f", r.ThroughputGBps))
		}
		t.Row(row...)
	}
	t.Write(w)
	return nil
}

// oneWay times a single device-to-device send of vals from rank 0 to rank 1.
func oneWay(c hw.Cluster, nodes, ppn int, cfg core.Config, vals []float32, warmups int) (simtime.Duration, error) {
	wd, err := world(c, nodes, ppn, cfg)
	if err != nil {
		return 0, err
	}
	var times []simtime.Time
	for i := 0; i <= warmups && err == nil; i++ {
		wd.ResetClocks()
		times, err = wd.Run(func(r *mpi.Rank) error {
			buf := &gpusim.Buffer{Data: core.FloatsToBytes(nil, vals), Loc: gpusim.Device, Dev: r.Dev}
			if r.ID() == 0 {
				return r.Send(1, 0, buf)
			}
			return r.Recv(0, 0, buf)
		})
	}
	return simtime.Duration(mpi.MaxTime(times)), err
}

// ablations quantifies the four design choices DESIGN.md calls out, on
// Longhorn: MPC-OPT's multi-stream partitioning (Section IV-B), the GDRCopy
// size readback (Section IV-B, optimization 3), and the two extensions —
// pipelined rendezvous and the cost model's pick of each send's form.
func ablations(w io.Writer, s scale) error {
	size := s.fixed(8 << 20)
	fmt.Fprintf(w, "Ablation: MPC-OPT partition count (Longhorn inter-node, %s)\n\n", cli.FormatBytes(size))
	t := cli.NewTable("Partitions", "Latency (us)")
	for _, parts := range []int{1, 2, 4, 8} {
		cfg := mpcOpt
		cfg.MaxPartitions = parts
		total, _, err := roundTrip(s, hw.Longhorn(), cfg, size)
		if err != nil {
			return err
		}
		t.Row(parts, us(total/2)) // osu_latency's one-way figure
	}
	t.Write(w)

	size = s.fixed(4 << 20)
	fmt.Fprintf(w, "\nAblation: compressed-size readback (Longhorn inter-node round trip, %s)\n\n", cli.FormatBytes(size))
	t = cli.NewTable("Readback", "Data copy (us)", "Total (us)")
	for _, sc := range []scheme{{"cudaMemcpy (naive MPC)", mpcNaive}, {"GDRCopy (MPC-OPT)", mpcOpt}} {
		total, perIter, err := roundTrip(s, hw.Longhorn(), sc.cfg, size)
		if err != nil {
			return err
		}
		t.Row(sc.name, us(perIter.Get(core.PhaseDataCopy)), us(total))
	}
	t.Write(w)

	size = s.fixed(32 << 20)
	fmt.Fprintf(w, "\nAblation: pipelined rendezvous (Longhorn inter-node, MPC-OPT, one %s send of smooth data)\n\n", cli.FormatBytes(size))
	smooth := datasets.Smooth(size/4, 19, 1e-4)
	t = cli.NewTable("Chunk", "Latency (us)")
	for _, chunk := range []int{-1, size / 32, size / 16, size / 8, 0} {
		cfg, label := mpcOpt, "whole message"
		switch cfg.PipelineChunkBytes = chunk; {
		case chunk > 0:
			label = cli.FormatBytes(chunk)
		case chunk == 0:
			label = "model"
		}
		// One warm-up send gives the model a measured ratio to cut by.
		lat, err := oneWay(hw.Longhorn(), 2, 1, cfg, smooth, 1)
		if err != nil {
			return err
		}
		t.Row(label, us(lat))
	}
	t.Write(w)

	size = s.fixed(8 << 20)
	fmt.Fprintf(w, "\nAblation: dynamic selection (Longhorn, one %s send of dummy data)\n\n", cli.FormatBytes(size))
	dummy := datasets.Dummy(size / 4)
	model := mpcOpt
	model.PipelineChunkBytes = 0
	t = cli.NewTable("Link", "Baseline (us)", "Static MPC-OPT (us)", "Model (us)")
	for _, link := range []struct {
		name       string
		nodes, ppn int
	}{{"IB EDR", 2, 1}, {"NVLink", 1, 2}} {
		row := []interface{}{link.name}
		for _, cfg := range []core.Config{{}, mpcOpt, model} {
			lat, err := oneWay(hw.Longhorn(), link.nodes, link.ppn, cfg, dummy, 0)
			if err != nil {
				return err
			}
			row = append(row, us(lat))
		}
		t.Row(row...)
	}
	t.Write(w)
	return nil
}
