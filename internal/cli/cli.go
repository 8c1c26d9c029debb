// Package cli holds the flag parsing and text-table rendering shared by
// the repository's executables (cmd/tables, cmd/figures, cmd/ombrun,
// cmd/awpodc, cmd/daskbench).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// EngineFlags collects the compression-engine configuration flags.
type EngineFlags struct {
	Mode    *string
	Codec   *string
	Rate    *int
	Dim     *int
	Dynamic *bool
	Workers *int
	Chunk   *string
	Cache   *int
	Credits *int
}

// AddEngineFlags registers -mode/-codec/-rate/-mpcdim/-dynamic/-workers
// on fs. (The compression codec flag used to be called -algo; it was
// renamed so -algo could name the collective algorithm pin.)
func AddEngineFlags(fs *flag.FlagSet) *EngineFlags {
	return &EngineFlags{
		Mode:    fs.String("mode", "opt", "compression integration: off | naive | opt"),
		Codec:   fs.String("codec", "none", "compression codec: none | mpc | zfp"),
		Rate:    fs.Int("rate", 16, "ZFP fixed rate in bits/value (4, 8, 16, ...)"),
		Dim:     fs.Int("mpcdim", 1, "MPC dimensionality"),
		Dynamic: fs.Bool("dynamic", false, "enable cost-model-driven per-message selection"),
		Workers: fs.Int("workers", 0, "host codec worker pool size (0 = GOMAXPROCS, 1 = serial; cannot affect results)"),
		Chunk:   fs.String("chunk", "", "pipelined-rendezvous chunk size, e.g. 256K (empty = off)"),
		Cache:   fs.Int("cache", 0, "compress-once cache entries per engine (0 = default, negative = off)"),
		Credits: fs.Int("credits", 0, "pipeline credit window: max chunks in flight (0 = default, negative = unlimited)"),
	}
}

// Config materializes the engine configuration from the parsed flags.
func (e *EngineFlags) Config() (core.Config, error) {
	cfg := core.Config{
		ZFPRate: *e.Rate, MPCDim: *e.Dim, Dynamic: *e.Dynamic,
		Workers: *e.Workers, CacheEntries: *e.Cache,
		PipelineCredits: *e.Credits,
	}
	if *e.Chunk != "" {
		sizes, err := ParseSizes(*e.Chunk)
		if err != nil || len(sizes) != 1 {
			return cfg, fmt.Errorf("bad -chunk %q", *e.Chunk)
		}
		cfg.PipelineChunkBytes = sizes[0]
	}
	switch strings.ToLower(*e.Mode) {
	case "off":
		cfg.Mode = core.ModeOff
	case "naive":
		cfg.Mode = core.ModeNaive
	case "opt":
		cfg.Mode = core.ModeOpt
	default:
		return cfg, fmt.Errorf("unknown -mode %q", *e.Mode)
	}
	switch strings.ToLower(*e.Codec) {
	case "none", "":
		cfg.Algorithm = core.AlgoNone
	case "mpc":
		cfg.Algorithm = core.AlgoMPC
	case "zfp":
		cfg.Algorithm = core.AlgoZFP
	default:
		return cfg, fmt.Errorf("unknown -codec %q", *e.Codec)
	}
	return cfg, nil
}

// ErrBadAlgo is the sentinel ParseAlgo failures wrap.
var ErrBadAlgo = errors.New("unknown collective algorithm")

// ParseAlgo parses an -algo value, ignoring case and surrounding blanks,
// into its schedule table value; empty means auto.
func ParseAlgo(s string) (sched.AllreduceAlgo, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	if name == "" {
		return sched.AllreduceAuto, nil
	}
	a, ok := sched.ParseAllreduceAlgo(name)
	if !ok {
		return 0, fmt.Errorf("%w %q (want one of %v)", ErrBadAlgo, s, sched.AllreduceAlgos())
	}
	return a, nil
}

// ClusterNames lists the -cluster values, sorted.
func ClusterNames() []string {
	names := make([]string, 0, len(hw.Clusters()))
	for name := range hw.Clusters() {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// ClusterByName resolves a cluster flag value.
func ClusterByName(name string) (hw.Cluster, error) {
	c, ok := hw.Clusters()[strings.ToLower(name)]
	if !ok {
		return hw.Cluster{}, fmt.Errorf("unknown cluster %q (want %s)", name, strings.Join(ClusterNames(), ", "))
	}
	return c, nil
}

// commaParts splits a comma-separated flag value into its parts, blanks
// around each trimmed and empty parts dropped.
func commaParts(s string) []string {
	var parts []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			parts = append(parts, part)
		}
	}
	return parts
}

// ParseSizes parses a comma-separated size list with K/M/G suffixes
// ("256K,1M,32M"). A size is a byte count: zero is one (OSU's latency
// sweep starts there), a negative one or one past the int range is not.
func ParseSizes(s string) ([]int, error) {
	var out []int
	for _, raw := range commaParts(s) {
		mult, part := 1, raw
		switch {
		case strings.HasSuffix(part, "K"), strings.HasSuffix(part, "k"):
			mult, part = 1<<10, part[:len(part)-1]
		case strings.HasSuffix(part, "M"), strings.HasSuffix(part, "m"):
			mult, part = 1<<20, part[:len(part)-1]
		case strings.HasSuffix(part, "G"), strings.HasSuffix(part, "g"):
			mult, part = 1<<30, part[:len(part)-1]
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", raw, err)
		}
		if n < 0 || n > math.MaxInt/mult {
			return nil, fmt.Errorf("bad size %q: want a byte count from 0 to %d", raw, math.MaxInt)
		}
		out = append(out, n*mult)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty size list")
	}
	return out, nil
}

// field is one key of a spec flag and the setter that parses its value
// into place; a setter's error says what the value must be.
type field struct {
	key string
	set func(val string) error
}

// opt is the field that parses key's value with parse and stores it in dst.
// The spec flags take six kinds of value: parseProb, ParseSimDuration,
// parseCount, strconv.ParseBool, parseSeed and parseGroups.
func opt[T any](key string, dst *T, parse func(string) (T, error)) field {
	return field{key, func(val string) error {
		v, err := parse(val)
		if err == nil {
			*dst = v
		}
		return err
	}}
}

func parseProb(val string) (float64, error) {
	p, err := strconv.ParseFloat(val, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, errors.New("must be a probability in [0,1]")
	}
	return p, nil
}

func parseCount(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err != nil || n < 0 {
		return 0, errors.New("must be a non-negative integer")
	}
	return n, nil
}

func parseSeed(val string) (int64, error) { return strconv.ParseInt(val, 10, 64) }

// parseSpec is the grammar of every spec flag (-faults, -crash, -partition,
// -heal, -health, -breaker): comma-separated key=value parts,
// blanks around parts, keys and values ignored, keys case-insensitive, a
// repeated key overwriting the earlier one as a repeated flag would. what
// names the flag in errors; an unknown key's error lists the keys of fields.
func parseSpec(what, spec string, fields ...field) error {
	for _, part := range commaParts(spec) {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fmt.Errorf("bad %s option %q (want key=value)", what, part)
		}
		key, val = strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val)
		i := slices.IndexFunc(fields, func(f field) bool { return f.key == key })
		if i < 0 {
			keys := make([]string, len(fields))
			for j, f := range fields {
				keys[j] = f.key
			}
			return fmt.Errorf("unknown %s option %q (want %s)", what, key, strings.Join(keys, ", "))
		}
		if err := fields[i].set(val); err != nil {
			var num *strconv.NumError // names the function and repeats val
			if errors.As(err, &num) {
				err = num.Err
			}
			return fmt.Errorf("%s option %s=%q: %w", what, key, val, err)
		}
	}
	return nil
}

// parseGroups parses a partition plan like "0:1|2:3" into node-id groups.
func parseGroups(val string) ([][]int, error) {
	var groups [][]int
	for _, g := range strings.Split(val, "|") {
		if g = strings.TrimSpace(g); g == "" {
			continue
		}
		var nodes []int
		for _, id := range strings.Split(g, ":") {
			n, err := strconv.Atoi(strings.TrimSpace(id))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad node %q (want a non-negative node id)", id)
			}
			nodes = append(nodes, n)
		}
		groups = append(groups, nodes)
	}
	if len(groups) < 2 {
		return nil, errors.New("need at least two |-separated groups")
	}
	return groups, nil
}

// ParseSimDuration parses a simulated duration such as "500us", "2ms",
// "1.5s" or "250ns" into a simtime.Duration.
func ParseSimDuration(s string) (simtime.Duration, error) {
	v := strings.ToLower(strings.TrimSpace(s))
	var unit simtime.Duration
	var num string
	switch {
	case strings.HasSuffix(v, "ns"):
		unit, num = 1, v[:len(v)-2]
	case strings.HasSuffix(v, "us"):
		unit, num = simtime.Microsecond, v[:len(v)-2]
	case strings.HasSuffix(v, "ms"):
		unit, num = simtime.Millisecond, v[:len(v)-2]
	case strings.HasSuffix(v, "s"):
		unit, num = simtime.Second, v[:len(v)-1]
	default:
		return 0, fmt.Errorf("bad duration %q (want a number with ns/us/ms/s suffix, e.g. 500us)", s)
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(num), 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("bad duration %q (want a non-negative number with ns/us/ms/s suffix)", s)
	}
	return simtime.Duration(f * float64(unit)), nil
}

// faultSpec parses spec into cfg (allocated when nil) through the fields
// table lays over it. An empty spec returns cfg unchanged, nil included.
func faultSpec(what, spec string, cfg *faults.Config, table func(*faults.Config) []field) (*faults.Config, error) {
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	if cfg == nil {
		cfg = &faults.Config{}
	}
	if err := parseSpec(what, spec, table(cfg)...); err != nil {
		return nil, err
	}
	return cfg, nil
}

// ParseFaults parses a fault-injection spec of the form
// "seed=7,drop=0.01,corrupt=0.005,degrade=0.1,factor=0.25" into a
// faults.Config; the chunk* keys are the chunk-granular fates. Omitted keys
// stay zero. An empty string yields nil (fault injection off).
func ParseFaults(s string) (*faults.Config, error) {
	return faultSpec("fault", s, nil, func(c *faults.Config) []field {
		return []field{
			opt("seed", &c.Seed, parseSeed),
			opt("drop", &c.DropRate, parseProb), opt("corrupt", &c.CorruptRate, parseProb),
			opt("degrade", &c.DegradeRate, parseProb), opt("factor", &c.DegradeFactor, parseProb),
			opt("chunkdrop", &c.ChunkDropRate, parseProb), opt("chunkcorrupt", &c.ChunkCorruptRate, parseProb),
			opt("chunkdup", &c.ChunkDuplicateRate, parseProb), opt("chunkreorder", &c.ChunkReorderRate, parseProb),
		}
	})
}

// ParseCrash parses a process-failure spec of the form
// "seed=7,crash=0.125,silent=0.06,window=2ms,codec=0.5,until=1ms" and
// merges it into cfg (which may be nil). window bounds failure onsets;
// until heals codec faults past that simulated instant.
func ParseCrash(s string, cfg *faults.Config) (*faults.Config, error) {
	return faultSpec("crash", s, cfg, func(c *faults.Config) []field {
		return []field{
			opt("seed", &c.Seed, parseSeed),
			opt("crash", &c.CrashRate, parseProb), opt("silent", &c.SilentRate, parseProb),
			opt("window", &c.FailWindow, ParseSimDuration),
			opt("codec", &c.CodecRate, parseProb), opt("until", &c.CodecUntil, ParseSimDuration),
		}
	})
}

// ParsePartition parses a link/partition fault spec of the form
// "seed=3,flap=0.1,period=400us,duty=0.25,groups=0:1|2:3,at=200us,heal=1ms"
// and merges it into cfg (which may be nil). flap is a per-node-pair
// probability; groups names an explicit partition plan; at/heal bound the
// partition window.
func ParsePartition(s string, cfg *faults.Config) (*faults.Config, error) {
	return faultSpec("partition", s, cfg, func(c *faults.Config) []field {
		return []field{
			opt("seed", &c.Seed, parseSeed),
			opt("flap", &c.LinkFlapRate, parseProb), opt("period", &c.FlapPeriod, ParseSimDuration),
			opt("duty", &c.FlapDuty, parseProb),
			opt("groups", &c.PartitionGroups, parseGroups),
			opt("at", &c.PartitionAt, ParseSimDuration), opt("heal", &c.PartitionHeal, ParseSimDuration),
		}
	})
}

// ParseHeal parses a self-heal spec of the form "on=true,attempts=4" and
// merges it into pol (typically the policy from -health).
func ParseHeal(s string, pol mpi.HealthPolicy) (mpi.HealthPolicy, error) {
	err := parseSpec("heal", s,
		opt("on", &pol.SelfHeal, strconv.ParseBool), opt("attempts", &pol.MaxAttempts, parseCount))
	return pol, err
}

// ParseHealth parses a failure-handling spec of the form "deadline=500us";
// empty is the zero policy (library defaults).
func ParseHealth(s string) (pol mpi.HealthPolicy, err error) {
	err = parseSpec("health", s, opt("deadline", &pol.Deadline, ParseSimDuration))
	return pol, err
}

// ParseBreaker parses a codec-circuit-breaker spec of the form
// "threshold=3,cooldown=2ms"; empty is the zero policy (breaker off).
func ParseBreaker(s string) (pol core.BreakerPolicy, err error) {
	err = parseSpec("breaker", s, opt("threshold", &pol.Threshold, parseCount),
		opt("cooldown", &pol.Cooldown, ParseSimDuration))
	return pol, err
}

// FormatBytes renders a byte count with a binary suffix ("32M", "256K").
func FormatBytes(n int) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dG", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dM", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dK", n>>10)
	default:
		return strconv.Itoa(n)
	}
}

// Table renders aligned text tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// ProfileFlags collects the host-profiling flags of the executables that
// drive the whole stack, so a profile comes from the program a user runs
// rather than from a micro-benchmark.
type ProfileFlags struct {
	CPU *string
	Mem *string
}

// AddProfileFlags registers -cpuprofile and -memprofile on fs.
func AddProfileFlags(fs *flag.FlagSet) *ProfileFlags {
	return &ProfileFlags{
		CPU: fs.String("cpuprofile", "", "write a host CPU profile of the run to this file (go tool pprof)"),
		Mem: fs.String("memprofile", "", "write a host heap profile taken at the end of the run to this file"),
	}
}

// Start begins the CPU profile when one was asked for and returns the
// function that finishes it and writes the heap profile. Call stop once,
// on the normal way out of main; a run that ends in Fatal leaves no
// profile.
func (p *ProfileFlags) Start() (stop func(), err error) {
	var cpu *os.File
	if *p.CPU != "" {
		if cpu, err = os.Create(*p.CPU); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			Fatal(cpu.Close())
		}
		if *p.Mem != "" {
			f, err := os.Create(*p.Mem)
			Fatal(err)
			runtime.GC() // the profile reports the heap as of the last collection
			Fatal(pprof.WriteHeapProfile(f))
			Fatal(f.Close())
		}
	}, nil
}

// Fatal prints the error to stderr and exits with status 1 when err is
// non-nil; it is a no-op otherwise.
func Fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
