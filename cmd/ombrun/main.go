// Command ombrun is the OSU Micro-Benchmark driver for the simulated
// cluster — the equivalent of osu_latency / osu_bw / osu_bcast /
// osu_allgather built against the compression-enabled MPI runtime.
//
//	ombrun -bench latency -cluster longhorn -codec mpc -mode opt
//	ombrun -bench bw -cluster frontera
//	ombrun -bench bcast -nodes 8 -ppn 2 -dataset msg_sppm -codec zfp -rate 8
//	ombrun -bench allreduce -algo rab -codec mpc
//	ombrun -bench allreduce -algo auto -tune-table tune.json -codec mpc
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"time"

	"mpicomp/internal/cli"
	"mpicomp/internal/core"
	"mpicomp/internal/mpi"
	"mpicomp/internal/omb"
	"mpicomp/internal/sched"
	"mpicomp/internal/trace"
	"mpicomp/internal/tune"
)

// main drives one OMB-style benchmark. Simulated results come from the
// virtual clock; the harness additionally reports the real wall time of
// the whole run so regressions in host codec throughput stay visible.
func main() {
	bench := flag.String("bench", "latency", "benchmark: latency | bw | bibw | "+strings.Join(omb.Collectives(), " | "))
	cluster := flag.String("cluster", "longhorn", "cluster model: "+strings.Join(cli.ClusterNames(), " | "))
	nodes := flag.Int("nodes", 2, "number of nodes")
	ppn := flag.Int("ppn", 1, "processes (GPUs) per node")
	sizesFlag := flag.String("sizes", "256K,512K,1M,2M,4M,8M,16M,32M", "message sizes")
	iters := flag.Int("iters", 3, "measured iterations")
	warmup := flag.Int("warmup", 1, "warmup iterations")
	window := flag.Int("window", 16, "osu_bw window size")
	dataset := flag.String("dataset", "", "Table III dataset to transmit (default: dummy data)")
	traceOut := flag.String("trace", "", "write a Chrome trace of the last measurement to this file")
	faultsFlag := flag.String("faults", "", "fault injection spec, e.g. seed=7,drop=0.01,corrupt=0.005,degrade=0.1 (empty = off)")
	crashFlag := flag.String("crash", "", "process-failure spec, e.g. seed=7,crash=0.125,silent=0.06,window=2ms,codec=0.5,until=1ms (empty = off)")
	healthFlag := flag.String("health", "", "failure-handling spec, e.g. deadline=500us (empty = defaults)")
	partitionFlag := flag.String("partition", "", "link/partition fault spec, e.g. flap=0.1,groups=0:1|2:3,at=200us,heal=1ms (empty = off)")
	healFlag := flag.String("heal", "", "self-heal spec, e.g. on=true,attempts=4 (empty = off)")
	breakerFlag := flag.String("breaker", "", "codec circuit-breaker spec, e.g. threshold=3,cooldown=2ms (empty = off)")
	retries := flag.Int("retries", 0, "retransmission budget per protocol stage (0 = default, negative = retries off)")
	chunkRetry := flag.Int("chunk-retry", 0, "per-chunk retransmission budget on the pipelined path (0 = inherit -retries, negative = off)")
	algoFlag := flag.String("algo", sched.AllreduceAuto.String(), fmt.Sprintf("allreduce algorithm, one of %v (auto routes through the tuner)", sched.AllreduceAlgos()))
	tuneTable := flag.String("tune-table", "", "tuning-table JSON path under -algo auto: warm-start from it if present, rewrite it with the updated table on exit")
	eng := cli.AddEngineFlags(flag.CommandLine)
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := prof.Start()
	cli.Fatal(err)
	defer stopProfiles()

	cfg, err := eng.Config()
	cli.Fatal(err)
	c, err := cli.ClusterByName(*cluster)
	cli.Fatal(err)
	sizes, err := cli.ParseSizes(*sizesFlag)
	cli.Fatal(err)
	cli.Fatal(omb.CheckIters(*warmup, *iters))
	faultCfg, err := cli.ParseFaults(*faultsFlag)
	cli.Fatal(err)
	faultCfg, err = cli.ParseCrash(*crashFlag, faultCfg)
	cli.Fatal(err)
	faultCfg, err = cli.ParsePartition(*partitionFlag, faultCfg)
	cli.Fatal(err)
	health, err := cli.ParseHealth(*healthFlag)
	cli.Fatal(err)
	health, err = cli.ParseHeal(*healFlag, health)
	cli.Fatal(err)
	breaker, err := cli.ParseBreaker(*breakerFlag)
	cli.Fatal(err)
	algo, err := cli.ParseAlgo(*algoFlag)
	cli.Fatal(err)
	if *tuneTable != "" && algo != sched.AllreduceAuto {
		cli.Fatal(fmt.Errorf("-tune-table needs -algo %s: -algo %s bypasses the tuner", sched.AllreduceAuto, algo))
	}

	var gen omb.DataGen
	if *dataset != "" {
		gen, err = omb.DatasetData(*dataset)
		cli.Fatal(err)
	}

	var tracer *trace.Collector
	if *traceOut != "" {
		tracer = trace.New()
	}

	// The tuner drives auto dispatch; a pinned -algo bypasses it. The
	// table file is optional warm-start state: absent means cold.
	var tuner *tune.Tuner
	if algo == sched.AllreduceAuto {
		var tab *tune.Table
		if *tuneTable != "" {
			data, err := os.ReadFile(*tuneTable)
			switch {
			case err == nil:
				tab, err = tune.ParseTable(data)
				cli.Fatal(err)
			case !errors.Is(err, fs.ErrNotExist):
				cli.Fatal(err)
			}
		}
		tuner = tune.NewTuner(tune.Options{Table: tab})
	}
	opt := mpi.Options{
		Cluster: c, Nodes: *nodes, PPN: *ppn, Engine: cfg, Tracer: tracer,
		Faults: faultCfg, Retry: mpi.RetryPolicy{Limit: *retries, ChunkLimit: *chunkRetry}, Health: health,
		Allreduce: algo, Breaker: breaker,
	}
	if tuner != nil {
		opt.Tuner = tuner
	}
	w, err := mpi.NewWorld(opt)
	cli.Fatal(err)

	fmt.Printf("# %s on %s, %d nodes x %d ppn, mode=%s codec=%s algo=%s, codec workers=%d\n",
		*bench, c.Name, *nodes, *ppn, *eng.Mode, *eng.Codec, algo, w.Rank(0).Engine.CodecWorkers())
	if w.FaultsEnabled() {
		var specs []string
		for _, s := range []string{*faultsFlag, *crashFlag, *partitionFlag} {
			if s != "" {
				specs = append(specs, s)
			}
		}
		fmt.Printf("# fault injection on: %s\n", strings.Join(specs, " "))
	}

	start := time.Now()
	switch *bench {
	case "latency":
		res, err := omb.Latency(w, sizes, *warmup, *iters, gen)
		benchFatal(w, opt, err)
		t := cli.NewTable("Size", "Latency (us)", "Ratio")
		for _, r := range res {
			t.Row(cli.FormatBytes(r.Bytes), fmt.Sprintf("%.2f", r.Latency.Microseconds()), fmt.Sprintf("%.2f", r.Ratio))
		}
		t.Write(os.Stdout)
	case "bw":
		res, err := omb.Bandwidth(w, sizes, *warmup, *iters, *window, 0)
		benchFatal(w, opt, err)
		t := cli.NewTable("Size", "Bandwidth (GB/s)")
		for _, r := range res {
			t.Row(cli.FormatBytes(r.Bytes), fmt.Sprintf("%.3f", r.BandwidthGBps))
		}
		t.Write(os.Stdout)
	case "bibw":
		res, err := omb.BiBandwidth(w, sizes, *warmup, *iters, *window)
		benchFatal(w, opt, err)
		t := cli.NewTable("Size", "Bandwidth (GB/s)")
		for _, r := range res {
			t.Row(cli.FormatBytes(r.Bytes), fmt.Sprintf("%.3f", r.BandwidthGBps))
		}
		t.Write(os.Stdout)
	default:
		// Everything else is a row of omb's collective table; all share the
		// Size/Latency/Ratio shape.
		known := false
		for _, name := range omb.Collectives() {
			known = known || name == *bench
		}
		if !known {
			cli.Fatal(fmt.Errorf("unknown -bench %q", *bench))
		}
		t := cli.NewTable("Size", "Latency (us)", "Ratio")
		for _, size := range sizes {
			res, err := omb.CollectiveLatency(w, *bench, size, *warmup, *iters, gen)
			benchFatal(w, opt, err)
			t.Row(cli.FormatBytes(size), fmt.Sprintf("%.2f", res.Latency.Microseconds()), fmt.Sprintf("%.2f", res.Ratio))
			if tuner != nil {
				// Folding between sizes is world-synchronous: no
				// collective is in flight while Advance commits.
				tuner.Advance()
			}
		}
		t.Write(os.Stdout)
		printCacheStats(w)
		if tuner != nil {
			fmt.Println(tuner.StatsLine())
		}
	}
	if tuner != nil && *tuneTable != "" {
		data, err := tuner.Snapshot().Marshal()
		cli.Fatal(err)
		cli.Fatal(os.WriteFile(*tuneTable, data, 0o644))
		fmt.Printf("# tune table written to %s\n", *tuneTable)
	}
	wall := time.Since(start)

	// Wall-clock is real (non-deterministic) time, so it goes to stderr:
	// stdout stays byte-identical across same-seed runs.
	var host core.HostStats
	decompressions := 0
	for r := 0; r < w.Size(); r++ {
		host.Add(w.Rank(r).Engine.HostSnapshot())
		decompressions += w.Rank(r).Engine.Decompressions
	}
	// codec= is the time codec batches ran, summed over the ranks: each is
	// timed from when it had the pool, and the ranks share one pool that
	// runs a batch at a time, so it never exceeds run= (a rank's wait for
	// the pool is not in it). decode jobs < decompressions is the relay
	// collectives' decode-once: every rank is charged its decompression,
	// one rank per payload runs it.
	fmt.Fprintf(os.Stderr, "# wall-clock: run=%v codec=%v (%d batches across %d workers; %d decode jobs run for %d decompressions simulated)\n",
		wall.Round(time.Microsecond), host.CodecWall.Round(time.Microsecond),
		host.CodecRuns, w.Rank(0).Engine.CodecWorkers(), host.DecodeJobs, decompressions)

	writeStats(os.Stdout, w, opt)

	if tracer != nil {
		f, err := os.Create(*traceOut)
		cli.Fatal(err)
		cli.Fatal(tracer.WriteChromeTrace(f))
		cli.Fatal(f.Close())
		fmt.Printf("# wrote Chrome trace to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
}

// printCacheStats reports compress-once cache and relay activity summed
// across all ranks. Everything here derives from the virtual clock and
// program order, so it is deterministic and safe for stdout.
func printCacheStats(w *mpi.World) {
	var cs core.CacheStats
	for r := 0; r < w.Size(); r++ {
		cs.Add(w.Rank(r).Engine.CacheSnapshot())
	}
	fmt.Printf("# cache: hits=%d misses=%d invalidations=%d evictions=%d relayed=%dB recompressed=%dB pipelined-chunks=%d\n",
		cs.Hits, cs.Misses, cs.Invalidations, cs.Evictions,
		cs.RelayedBytes, cs.RecompressedBytes, cs.PipelinedChunks)
}

// writeStats reports the run's fault, health, pipeline, recovery and
// breaker activity, each line only when its subsystem is on — after a
// successful run on stdout, after a failed one on stderr, so a failure is
// attributable from the same lines a success prints. Every counter derives
// from seeded fault decisions, sender program order and virtual-clock
// arithmetic, so the lines are byte-identical across same-seed runs and
// codec worker counts.
func writeStats(out io.Writer, w *mpi.World, opt mpi.Options) {
	if w.FaultsEnabled() {
		st := w.FaultStats()
		fmt.Fprintf(out, "# faults injected: drops=%d corruptions=%d (bits=%d) degraded-windows=%d crashes=%d silences=%d codec-corruptions=%d duplicates=%d reorders=%d\n",
			st.Drops, st.Corruptions, st.BitsFlipped, st.Degrades, st.Crashes, st.Silences, st.CodecCorruptions, st.Duplicates, st.Reorders)
		hs := w.HealthStats()
		fmt.Fprintf(out, "# health: doomed=%v watchdog-wakeups=%d cascade-quiets=%d\n",
			hs.Doomed, hs.WatchdogWakeups, hs.CascadeQuiets)
	}
	var ps core.PipelineStats
	var picks []int
	for r := 0; r < w.Size(); r++ {
		ps.Add(w.Rank(r).Engine.PipeSnapshot())
		for k, n := range w.Rank(r).Engine.ChunkPicks() {
			for len(picks) <= k {
				picks = append(picks, 0)
			}
			picks[k] += n
		}
	}
	if opt.Engine.PipelineChunkBytes > 0 || ps.Chunks > 0 {
		// k= is the chunk chooser's histogram, count by chunk count
		// (1: kept whole); "-" when nothing was priced.
		var hist []string
		for k, n := range picks {
			if n > 0 {
				hist = append(hist, fmt.Sprintf("%d:%d", k, n))
			}
		}
		if hist == nil {
			hist = []string{"-"}
		}
		fmt.Fprintf(out, "# pipeline: chunks=%d relay-chunks=%d retransmits=%d retransmit-bytes=%d credit-stalls=%d window-shrinks=%d degrades=%d bypass-small=%d bypass-degraded=%d k=%s\n",
			ps.Chunks, ps.RelayChunks, ps.Retransmits, ps.RetransmitBytes,
			ps.CreditStalls, ps.WindowShrinks, ps.DegradeEvents, ps.BypassSmall, ps.BypassDegraded,
			strings.Join(hist, ","))
	}
	if opt.Health.SelfHeal {
		rs := w.RecoveryStats()
		fmt.Fprintf(out, "# recovery: reroutes=%d shrink-completions=%d revoked-ops=%d resourced-chunks=%d link-drops=%d recovery-time=%.2fus\n",
			rs.Reroutes, rs.ShrinkCompletions, rs.RevokedOps,
			rs.ResourcedChunks, rs.LinkDrops, rs.RecoveryTime.Microseconds())
	}
	if opt.Breaker.Enabled() {
		bs, recvs := w.BreakerStats()
		fmt.Fprintf(out, "# breaker: opens=%d closes=%d probes=%d fallback-sends=%d fallback-recvs=%d\n",
			bs.Opens, bs.Closes, bs.Probes, bs.FallbackSends, recvs)
	}
}

// benchFatal reports a benchmark failure: the same stat lines a successful
// run prints, on stderr, so the failure is attributable at a glance, and
// exit status 2 so harnesses can tell a delivery or peer failure apart
// from a usage error.
func benchFatal(w *mpi.World, opt mpi.Options, err error) {
	if err == nil {
		return
	}
	writeStats(os.Stderr, w, opt)
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(2)
}
