package main

// metricDef declares one metric of BENCHMARK.json. bench_test.go holds
// the two in step.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the metrics a user of the library (simulated clock) or of
// the simulator (host clock) sees. bound is the share of the parent's
// median a metric may worsen by before a change counts as a regression.
// The operations' host times are at the box's quiet speed (see calibrate).
var endToEnd = []metricDef{
	{"sim_latency_us", "sim_us", "lower", 0.02},
	{"sim_gain_vs_off", "x", "higher", 0.10},
	{"accuracy_bits", "bits", "higher", 0.02},
	{"host_ms_per_op_p50", "ms", "lower", 0.25},
	{"host_mb_per_s", "MB/s", "higher", 0.25},
	{"host_cpu_ms_per_op", "ms", "lower", 0.25},
	{"host_peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run, named
// <module>.<metric>.
var perLayer = []metricDef{
	{name: "bitstream.write_ns", unit: "ns", better: "lower"},
	{name: "bitstream.read_ns", unit: "ns", better: "lower"},
	{name: "mpc.compress_mb_s", unit: "MB/s", better: "higher"},
	{name: "mpc.decompress_mb_s", unit: "MB/s", better: "higher"},
	{name: "mpc.ratio", unit: "x", better: "higher"},
	{name: "zfp.compress_mb_s", unit: "MB/s", better: "higher"},
	{name: "zfp.decompress_mb_s", unit: "MB/s", better: "higher"},
	{name: "zfp.max_rel_err", unit: "ratio", better: "lower"},
	{name: "core.convert_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.roundtrip_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.self_ms_per_op", unit: "ms", better: "lower"},
	{name: "core.allocs_per_roundtrip", unit: "count", better: "lower"},
	{name: "core.cache_hit_us", unit: "us", better: "lower"},
	{name: "core.cache_hit_share", unit: "ratio", better: "higher"},
	{name: "core.typed_roundtrip_mb_s", unit: "MB/s", better: "higher"},
	{name: "core.compressions_per_op", unit: "count", better: "lower"},
	{name: "core.decompressions_per_op", unit: "count", better: "lower"},
	{name: "core.sim_compress_us", unit: "sim_us", better: "lower"},
	{name: "core.sim_decompress_us", unit: "sim_us", better: "lower"},
	{name: "core.sim_comm_us", unit: "sim_us", better: "lower"},
	{name: "core.sim_overhead_us", unit: "sim_us", better: "lower"},
	{name: "core.wire_ratio", unit: "x", better: "higher"},
	{name: "core.pool_fallbacks", unit: "count", better: "lower"},
	{name: "dtype.pack_mb_s", unit: "MB/s", better: "higher"},
	{name: "dtype.unpack_mb_s", unit: "MB/s", better: "higher"},
	{name: "codecpool.dispatch_us", unit: "us", better: "lower"},
	{name: "codecpool.parallel_eff", unit: "ratio", better: "higher"},
	{name: "gpusim.pool_getput_ns", unit: "ns", better: "lower"},
	{name: "gpusim.launch_ns", unit: "ns", better: "lower"},
	{name: "simtime.reserve_ns", unit: "ns", better: "lower"},
	{name: "netsim.transfer_ns", unit: "ns", better: "lower"},
	{name: "netsim.internode_mb_per_op", unit: "MB", better: "lower"},
	{name: "netsim.ctrl_msgs_per_op", unit: "count", better: "lower"},
	{name: "netsim.sim_spread_pct", unit: "%", better: "lower"},
	{name: "mpi.host_ms_per_op_off", unit: "ms", better: "lower"},
	{name: "mpi.sim_latency_us_off", unit: "sim_us", better: "lower"},
	{name: "mpi.eager_us_per_msg", unit: "us", better: "lower"},
	{name: "mpi.rndv_us_per_msg", unit: "us", better: "lower"},
	{name: "mpi.p2p_self_ms", unit: "ms", better: "lower"},
	{name: "mpi.retransmits", unit: "count", better: "lower"},
	{name: "mpi.pipe_chunks", unit: "count", better: "lower"},
	{name: "tune.pick_ns", unit: "ns", better: "lower"},
	{name: "tune.pick_changes", unit: "count", better: "lower"},
	{name: "awpodc.sim_comm_share", unit: "ratio", better: "lower"},
	{name: "awpodc.tflops", unit: "TFLOPS", better: "higher"},
	{name: "driver.host_ms_per_op_hi", unit: "ms", better: "lower"},
	{name: "driver.hi_percentile", unit: "%", better: "higher"},
	{name: "driver.op_samples", unit: "count", better: "higher"},
	{name: "driver.cpu_util", unit: "ratio", better: "higher"},
	{name: "driver.calib_ms", unit: "ms", better: "lower"},
	{name: "driver.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "driver.gc_pause_ms_per_op", unit: "ms", better: "lower"},
	{name: "driver.unattributed_share", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a declaration list.
type metricSet struct {
	defs   []metricDef
	values map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]metric{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

// complete fills every declared metric the run did not produce with 0:
// the benchmark contract wants every name on every workload, and 0 is
// what a layer that was not exercised has done.
func (m *metricSet) complete() map[string]metric {
	for _, d := range m.defs {
		if _, ok := m.values[d.name]; !ok {
			m.values[d.name] = metric{Value: 0, Unit: d.unit}
		}
	}
	return m.values
}
