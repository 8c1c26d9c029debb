package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mpicomp/internal/core"
	"mpicomp/internal/mpi"
	"mpicomp/internal/trace"
)

// runTraced is the run the per-layer metrics come from. It is separate
// from the timed run, so spans and the program's own tracer cost the
// end-to-end figures nothing; the price of tracing is itself reported.
//
//  1. untraced operations, for the reference host time;
//  2. the ladder, on the workload's own message;
//  3. the same operations with a span around every call the driver makes
//     and the program's virtual-time tracer attached;
//  4. the public counters of the traced operations.
func runTraced(s spec, p params, o options) (*report, error) {
	budget := time.Duration(o.seconds) * time.Second / 4
	m := newMetricSet(perLayer)

	rd, err := setUp(s, p)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	plain := rd.measure(budget, rotations, o.ops, nil)
	rep := &report{Attempted: len(plain.samples), Failed: plain.failed}
	rd.judge(plain, rep)
	plainP50 := median(plain.wallMs())
	n := float64(len(plain.samples))
	hi, pct := highPercentile(plain.wallMs())
	var cpu time.Duration
	for _, smp := range plain.samples {
		cpu += smp.cpu
	}
	m.set("driver.host_ms_per_op_hi", hi)
	m.set("driver.hi_percentile", pct)
	m.set("driver.op_samples", n)
	m.set("driver.cpu_util", cpu.Seconds()/plain.wall.Seconds())
	m.set("driver.calib_ms", median(plain.calibMs()))
	m.set("driver.alloc_mb_per_op", float64(plain.mem.TotalAlloc-plain.mem0.TotalAlloc)/1e6/n)
	m.set("driver.gc_pause_ms_per_op", float64(plain.mem.PauseTotalNs-plain.mem0.PauseTotalNs)/1e6/n)
	// The Mode-off arm again, now that its world is as warm as the
	// compressed arm's was: the stack without codec and compress path.
	offMs, err := rd.off.hostMs(budget / 2)
	if err != nil {
		return nil, fmt.Errorf("%s: Mode-off arm: %w", s.name, err)
	}
	rd.off = nil
	m.set("mpi.host_ms_per_op_off", offMs)
	m.set("mpi.sim_latency_us_off", rd.offSimUs)
	if sim := plain.simUs(); len(sim) > 0 {
		lo, hi := sim[0], sim[0]
		for _, v := range sim {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		m.set("netsim.sim_spread_pct", 100*(hi-lo)/median(sim))
	}

	rec := newRecorder()
	root := rec.begin(0, "driver", "ladder", -1, 0)
	l := &ladder{rec: rec, root: root, msg: rd.on.ladderData[:len(rd.on.ladderData)&^15], cfg: s.codec, halo: rd.on.halo, delay: o.delay, spend: o.rung, m: m}
	compPerByte, decompPerByte := l.run()
	rec.end(root)

	// The traced arm is a second world: the program's tracer is wired in
	// when a world is built.
	rd.on = nil
	release()
	tr := trace.New()
	on, _, err := buildOn(s, p, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: traced arm: %w", s.name, err)
	}
	// Every operation starts at virtual time zero, so the simulated trace
	// keeps the last one only.
	op := on.op
	on.op = func(i int, rec *recorder, parent int) (opOut, error) {
		tr.Reset()
		return op(i, rec, parent)
	}
	rd.on = on
	traced := rd.measure(budget, rotations, o.ops, rec)
	trep := &report{Attempted: len(traced.samples), Failed: traced.failed}
	rd.judge(traced, trep)
	rep.Attempted += trep.Attempted
	rep.Failed += trep.Failed
	rep.Correct = rep.Correct && trep.Correct
	if rep.Error == "" {
		rep.Error = trep.Error
	}
	m.set("trace.overhead_pct", 100*(median(traced.wallMs())/plainP50-1))

	k := float64(len(traced.samples))
	c := readCounters(on.world)
	ranks := float64(on.world.Size())
	m.set("core.compressions_per_op", float64(c.compressions)/k)
	m.set("core.decompressions_per_op", float64(c.decompressions)/k)
	m.set("core.sim_compress_us", c.stats.Get(core.PhaseCompressKernel).Microseconds()/ranks/k)
	m.set("core.sim_decompress_us", c.stats.Get(core.PhaseDecompressKernel).Microseconds()/ranks/k)
	m.set("core.sim_comm_us", c.stats.Get(core.PhaseComm).Microseconds()/ranks/k)
	var overhead float64
	for _, ph := range []core.Phase{core.PhaseMemAlloc, core.PhaseDataCopy, core.PhaseCombine, core.PhaseStreamField, core.PhaseGridQuery, core.PhaseChecksum} {
		overhead += c.stats.Get(ph).Microseconds()
	}
	m.set("core.sim_overhead_us", overhead/ranks/k)
	if c.bytesOut > 0 {
		m.set("core.wire_ratio", float64(c.bytesIn)/float64(c.bytesOut))
	}
	m.set("core.pool_fallbacks", float64(c.poolFallbacks))
	if c.cache.Hits+c.cache.Misses > 0 {
		m.set("core.cache_hit_share", float64(c.cache.Hits)/float64(c.cache.Hits+c.cache.Misses))
	}
	m.set("mpi.retransmits", float64(c.pipe.Retransmits))
	m.set("mpi.pipe_chunks", float64(c.pipe.Chunks)/k)
	// ResetClocks clears the fabric's counters before every operation, so
	// they now hold the last operation's traffic.
	m.set("netsim.internode_mb_per_op", float64(on.world.Fabric().TotalInterNodeBytes())/1e6)
	var ctrl int64
	for _, ns := range on.world.Fabric().Stats() {
		ctrl += ns.ControlSent
	}
	m.set("netsim.ctrl_msgs_per_op", float64(ctrl))
	changes := 0
	for _, smp := range traced.samples {
		if smp.out.pick != rd.algo {
			changes++
		}
	}
	m.set("tune.pick_changes", float64(changes))
	if last := traced.samples[len(traced.samples)-1].out.awp; last.Steps > 0 {
		m.set("awpodc.sim_comm_share", float64(last.CommTime)/float64(last.TimePerStep))
		m.set("awpodc.tflops", last.TFlops)
	}

	// Reconcile the untraced median with parts measured apart from it:
	// the codec work the counters saw at the ladder's engine rates, plus
	// the Mode-off operation scaled to the bytes the compressed arm
	// moves. Serial sums: workloads whose ranks overlap on several cores
	// come out negative.
	predicted := offMs
	if c.compressions > 0 {
		msgBytes := float64(c.bytesIn) / float64(c.compressions)
		predicted = offMs*float64(c.bytesOut)/float64(c.bytesIn) +
			(float64(c.bytesIn)*compPerByte+float64(c.decompressions)*msgBytes*decompPerByte)/k/1e6
	}
	m.set("driver.unattributed_share", (plainP50-predicted)/plainP50)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	hostPath := filepath.Join(o.outDir, s.name+".host-trace.json")
	simPath := filepath.Join(o.outDir, s.name+".sim-trace.json")
	if err := rec.writeChrome(hostPath); err != nil {
		return nil, err
	}
	f, err := os.Create(simPath)
	if err != nil {
		return nil, err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	rep.TraceFile = []string{hostPath, simPath}
	rep.Metrics = m.complete()
	rep.HostMs, rep.SimUs = traced.wallMs(), traced.simUs()
	return rep, nil
}

// hostMs runs the arm for budget (at least one rotation) and returns the
// median host time of an operation.
func (a *arm) hostMs(budget time.Duration) (float64, error) {
	var xs []float64
	for i, start := 0, time.Now(); i < rotations || time.Since(start) < budget; i++ {
		t0 := time.Now()
		if _, err := a.op(i, nil, 0); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs), nil
}

// counters are the program's public counters summed over the ranks.
type counters struct {
	compressions, decompressions, poolFallbacks int
	bytesIn, bytesOut                           int64
	stats                                       core.Breakdown
	cache                                       core.CacheStats
	pipe                                        core.PipelineStats
}

func readCounters(w *mpi.World) counters {
	var c counters
	for q := 0; q < w.Size(); q++ {
		e := w.Rank(q).Engine
		c.compressions += e.Compressions
		c.decompressions += e.Decompressions
		c.poolFallbacks += e.PoolFallbacks
		c.bytesIn += e.BytesIn
		c.bytesOut += e.BytesOut
		c.stats.AddAll(&e.Stats)
		c.cache.Add(e.CacheSnapshot())
		c.pipe.Add(e.PipeSnapshot())
	}
	return c
}
