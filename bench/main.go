// Command bench is the repository's benchmark: six workloads in the
// regimes the paper evaluates, measured on both clocks — the virtual
// clock the simulated cluster keeps and the host clock the simulator
// itself runs on — and, in a separate traced run, layer by layer. It
// touches no other file of the repository: every layer is measured from
// outside, through its public functions and counters. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     uint64
	seconds  int
	ops      int
	trace    bool
	check    bool
	outDir   string
	// scale, dataset and delay are set by -check on the runs it starts.
	scale   int
	dataset string
	delay   time.Duration
	// setups is how many whole set-ups a timed run times and rung how
	// long the ladder spends on each rung; the smoke test lowers both.
	setups int
	rung   time.Duration
}

// report is what one workload run produced.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// The rest goes to results.json, not to the result line.
	Error     string    `json:"-"`
	HostMs    []float64 `json:"-"`
	Calib     []float64 `json:"-"`
	SimUs     []float64 `json:"-"`
	SetupS    []float64 `json:"-"`
	TraceFile []string  `json:"-"`
}

func main() {
	// The shared codec pool sizes itself from GOMAXPROCS on first use.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)

	o := options{setups: setupReps, rung: rungBudget}
	trace01 := 0
	flag.StringVar(&o.workload, "workload", "", "run this workload in this process and print its result line (default: every workload, each in a fresh child process)")
	flag.Uint64Var(&o.seed, "seed", 1, "chooses the dataset cuts, the payload trim and the tuner seed")
	flag.IntVar(&o.seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&o.ops, "ops", 0, "measure exactly this many operations instead of -seconds")
	flag.IntVar(&trace01, "trace", 0, "1: the traced run (layer ladder, spans, counters, per-layer metrics); 0: the timed run (end-to-end metrics)")
	flag.BoolVar(&o.check, "check", false, "check the benchmark itself: A/A repeatability and known-answer sensitivity")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for results.json and traces")
	flag.IntVar(&o.scale, "scale", 1, "divide payloads by this (used by -check)")
	flag.StringVar(&o.dataset, "dataset", "msg_sppm", "Table III dataset payloads are cut from (used by -check)")
	flag.DurationVar(&o.delay, "inject-delay", 0, "spin this long in the ladder's wrapper around Engine.CompressAppend (used by -check)")
	flag.Parse()
	o.trace = trace01 != 0

	var err error
	switch {
	case o.check:
		err = runCheck(o)
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints the result line.
func runOne(o options) error {
	s, ok := specByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	p := params{seed: o.seed, scale: o.scale, dataset: o.dataset}
	var rep *report
	var err error
	if o.trace {
		rep, err = runTraced(s, p, o)
	} else {
		rep, err = runTimed(s, p, o)
	}
	if err != nil {
		return err
	}
	if rep.Error != "" {
		fmt.Fprintln(os.Stderr, "bench:", o.workload+":", rep.Error)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := writeSidecar(o, rep); err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return errors.New("operations failed")
	}
	return nil
}

// sidecar is the part of a child's report that does not fit the result
// line; runAll folds it into results.json.
type sidecar struct {
	Error  string    `json:"error,omitempty"`
	HostMs []float64 `json:"host_ms_per_op,omitempty"` // as measured
	Calib  []float64 `json:"calib_ms,omitempty"`       // the calibration each was scaled by
	SimUs  []float64 `json:"sim_us_per_op,omitempty"`
	SetupS []float64 `json:"setup_s,omitempty"`
	Traces []string  `json:"traces,omitempty"`
}

func sidecarPath(o options) string {
	kind := "timed"
	if o.trace {
		kind = "traced"
	}
	return filepath.Join(o.outDir, o.workload+"."+kind+".samples.json")
}

func writeSidecar(o options, rep *report) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(sidecar{rep.Error, rep.HostMs, rep.Calib, rep.SimUs, rep.SetupS, rep.TraceFile})
	if err != nil {
		return err
	}
	return os.WriteFile(sidecarPath(o), blob, 0o644)
}

// timedMetrics turns a timed loop into the end-to-end metrics, all but
// setup_s. The operations' host times are at the box's quiet speed (see
// calibrate); set-up is short and starts cold, where a calibration says
// least, and is reported as measured.
func timedMetrics(rd *ready, t *timed) *metricSet {
	m := newMetricSet(endToEnd)
	n := float64(len(t.samples))
	sim := mean(t.simUs())
	m.set("sim_latency_us", sim)
	m.set("sim_gain_vs_off", rd.offSimUs/sim)
	bits := accuracyCap + 0.0
	var cpu, wall time.Duration
	for _, s := range t.samples {
		if s.bits < bits {
			bits = s.bits
		}
		cpu += atQuietSpeed(s.cpu, s.calib)
		wall += atQuietSpeed(s.wall, s.calib)
	}
	m.set("accuracy_bits", bits)
	m.set("host_ms_per_op_p50", median(t.quietMs()))
	m.set("host_mb_per_s", float64(rd.on.payload)*n/1e6/wall.Seconds())
	m.set("host_cpu_ms_per_op", ms(cpu)/n)
	m.set("host_peak_rss_mb", peakRSSMB())
	return m
}

// runTimed is the run the end-to-end metrics come from: tracing off.
// The operations are measured after the first set-up, in a process that
// has done nothing else; the further set-ups that steady setup_s come
// after them, where what they leave on the heap cannot reach the
// operations' numbers.
func runTimed(s spec, p params, o options) (*report, error) {
	var setups []float64
	timedSetUp := func() (*ready, error) {
		t0 := time.Now()
		rd, err := setUp(s, p)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		rd.off = nil // its outputs are kept; its world is not needed again
		return rd, nil
	}
	rd, err := timedSetUp()
	if err != nil {
		return nil, err
	}
	t := rd.measure(time.Duration(o.seconds)*time.Second, minOps, o.ops, nil)
	m := timedMetrics(rd, t)
	rep := &report{Attempted: len(t.samples), Failed: t.failed, HostMs: t.wallMs(), Calib: t.calibMs(), SimUs: t.simUs()}
	rd.judge(t, rep)
	for i := 1; i < o.setups; i++ {
		rd = nil
		release()
		if rd, err = timedSetUp(); err != nil {
			return nil, err
		}
	}
	m.set("setup_s", median(setups))
	rep.Metrics, rep.SetupS = m.complete(), setups
	return rep, nil
}

// judge applies the workload's whole-run assertions.
func (rd *ready) judge(t *timed, rep *report) {
	if t.firstEr != nil {
		rep.Error = t.firstEr.Error()
	}
	fail := func(format string, a ...any) {
		rep.Failed = rep.Attempted
		if rep.Error == "" {
			rep.Error = fmt.Sprintf(format, a...)
		}
	}
	// The assertion is about the regime the workload is sized for, not
	// about a scaled-down copy of it.
	if gain := rd.offSimUs / mean(t.simUs()); rd.spec.mustGain && rd.scale == 1 && gain <= 1 {
		fail("sim_gain_vs_off = %.3f: compression must win on this workload", gain)
	}
	if rd.spec.noCodec {
		n := 0
		for q := 0; q < rd.on.world.Size(); q++ {
			n += rd.on.world.Rank(q).Engine.Compressions
		}
		if n != 0 {
			fail("%d compressions on a workload that must bypass the codec", n)
		}
	}
	rep.Correct = rep.Failed == 0
}

// child runs this program again for one workload and parses its result
// line. A fresh process per workload keeps one workload's heap, pools
// and peak RSS out of the next one's numbers.
func child(o options, workload string, trace bool) (*report, sidecar, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, sidecar{}, err
	}
	co := o
	co.workload, co.trace = workload, trace
	tr := "0"
	if trace {
		tr = "1"
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-ops", fmt.Sprint(o.ops), "-trace", tr, "-out", o.outDir,
		"-scale", fmt.Sprint(o.scale), "-dataset", o.dataset, "-inject-delay", o.delay.String())
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	rep := &report{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), rep); err != nil {
		if runErr != nil {
			return nil, sidecar{}, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, sidecar{}, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	var sc sidecar
	if blob, err := os.ReadFile(sidecarPath(co)); err == nil {
		if err := json.Unmarshal(blob, &sc); err != nil {
			return nil, sidecar{}, err
		}
	}
	return rep, sc, nil
}

// provenance is recorded with every results.json.
type provenance struct {
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Ops        int    `json:"ops"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

// commit names the checked-out commit when there is a git repository to
// ask, and says so when there is none.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// workloadResult is one workload's entry in results.json.
type workloadResult struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	OpsTotal   int               `json:"ops_total"`
	OpsFailed  int               `json:"ops_failed"`
	Correct    bool              `json:"correct"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Timed      sidecar           `json:"timed"`
	Traced     *sidecar          `json:"traced,omitempty"`
	TracedOps  int               `json:"traced_ops_total,omitempty"`
	TracedFail int               `json:"traced_ops_failed,omitempty"`
}

// runSet runs every workload once (timed, and traced when asked), each
// in its own child process, one after another.
func runSet(o options) ([]workloadResult, error) {
	var out []workloadResult
	for _, s := range specs {
		rep, sc, err := child(o, s.name, false)
		if err != nil {
			return nil, err
		}
		wr := workloadResult{
			Workload: s.name, Why: s.why, OpsTotal: rep.Attempted, OpsFailed: rep.Failed,
			Correct: rep.Correct, EndToEnd: rep.Metrics, Timed: sc,
		}
		if o.trace {
			trep, tsc, err := child(o, s.name, true)
			if err != nil {
				return nil, err
			}
			wr.PerLayer, wr.Traced = trep.Metrics, &tsc
			wr.TracedOps, wr.TracedFail = trep.Attempted, trep.Failed
			wr.Correct = wr.Correct && trep.Correct
		}
		out = append(out, wr)
	}
	return out, nil
}

func printMetrics(workload string, defs []metricDef, values map[string]metric) {
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Printf("%s/%s %.6g %s\n", workload, d.name, v.Value, v.Unit)
		}
	}
}

// runAll is the one command: every workload, every metric by name with
// its unit, outputs checked, results.json written.
func runAll(o options) error {
	results, err := runSet(o)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		printMetrics(r.Workload, endToEnd, r.EndToEnd)
		fmt.Printf("%s/ops_total %d count\n%s/ops_failed %d count\n", r.Workload, r.OpsTotal, r.Workload, r.OpsFailed)
		printMetrics(r.Workload, perLayer, r.PerLayer)
		if !r.Correct {
			failed++
		}
	}
	doc := struct {
		Provenance provenance       `json:"provenance"`
		Workloads  []workloadResult `json:"workloads"`
	}{
		provenance{o.seed, o.seconds, o.ops, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), time.Now().UTC().Format(time.RFC3339)},
		results,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, "results.json"), blob, 0o644); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d workloads had failed operations", failed)
	}
	return nil
}
