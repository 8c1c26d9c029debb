package cli

import (
	"bytes"
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/mpi"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

func TestEngineFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ef := AddEngineFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	cfg, err := ef.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.ModeOpt || cfg.Algorithm != core.AlgoNone || cfg.ZFPRate != 16 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestEngineFlagsParsing(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	ef := AddEngineFlags(fs)
	if err := fs.Parse([]string{"-mode", "naive", "-codec", "zfp", "-rate", "8"}); err != nil {
		t.Fatal(err)
	}
	cfg, err := ef.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != core.ModeNaive || cfg.Algorithm != core.AlgoZFP || cfg.ZFPRate != 8 {
		t.Fatalf("parsed wrong: %+v", cfg)
	}
}

func TestEngineFlagsRejectsUnknown(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bogus"},
		{"-codec", "lz4"},
		{"-chunk=-1K"},
	} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		ef := AddEngineFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := ef.Config(); err == nil {
			t.Fatalf("args %v should be rejected", args)
		}
	}
}

func TestParseAlgo(t *testing.T) {
	good := map[string]sched.AllreduceAlgo{
		"auto":          sched.AllreduceAuto,
		"":              sched.AllreduceAuto,
		"reduce-bcast":  sched.AllreduceReduceBcast,
		"ring":          sched.AllreduceRing,
		"ring-blocking": sched.AllreduceRingBlocking,
		"rd":            sched.AllreduceRecursiveDoubling,
		"RAB":           sched.AllreduceRabenseifner,
		" two-level ":   sched.AllreduceTwoLevel,
	}
	for in, want := range good {
		got, err := ParseAlgo(in)
		if err != nil {
			t.Errorf("ParseAlgo(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseAlgo(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"bogus", "ringz", "recursive-doubling", "rab2", "mpc"} {
		if _, err := ParseAlgo(in); !errors.Is(err, ErrBadAlgo) {
			t.Errorf("ParseAlgo(%q) err = %v, want ErrBadAlgo", in, err)
		}
	}
	// Round trip: every accepted name is the enum's own String form.
	for _, a := range []sched.AllreduceAlgo{
		sched.AllreduceAuto, sched.AllreduceReduceBcast, sched.AllreduceRing,
		sched.AllreduceRingBlocking, sched.AllreduceRecursiveDoubling,
		sched.AllreduceRabenseifner, sched.AllreduceTwoLevel,
	} {
		got, err := ParseAlgo(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAlgo(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
	}
}

func TestClusterByName(t *testing.T) {
	c, err := ClusterByName("Frontera")
	if err != nil || c.Name != "Frontera Liquid" {
		t.Fatalf("lookup failed: %v %v", c.Name, err)
	}
	if _, err := ClusterByName("summit"); err == nil {
		t.Fatal("unknown cluster should fail")
	}
}

func TestParseSizes(t *testing.T) {
	got, err := ParseSizes("256K, 1M,32M,7")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{256 << 10, 1 << 20, 32 << 20, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes: %v", got)
		}
	}
	if _, err := ParseSizes(""); err == nil {
		t.Fatal("empty should fail")
	}
	if _, err := ParseSizes("12Q"); err == nil {
		t.Fatal("bad suffix should fail")
	}
	g, err := ParseSizes("1G")
	if err != nil || g[0] != 1<<30 {
		t.Fatalf("G suffix: %v %v", g, err)
	}
	// Zero is a size (OSU's latency sweep starts there); a negative one,
	// or one whose suffix multiply leaves the int range, is not.
	if z, err := ParseSizes("0,0K"); err != nil || z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero sizes: %v %v", z, err)
	}
	maxG := strconv.Itoa(math.MaxInt >> 30)
	if m, err := ParseSizes(maxG + "G"); err != nil || m[0] != math.MaxInt>>30<<30 {
		t.Fatalf("largest G size: %v %v", m, err)
	}
	for _, bad := range []string{"-4K", "-1", "1K,-1M", maxG + "1G", "9223372036854775807K", "99999999999999999999"} {
		if got, err := ParseSizes(bad); err == nil || !strings.Contains(err.Error(), "bad size") {
			t.Errorf("ParseSizes(%q) = %v, %v; want a bad-size error", bad, got, err)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int]string{
		7:         "7",
		1 << 10:   "1K",
		256 << 10: "256K",
		32 << 20:  "32M",
		2 << 30:   "2G",
		1500:      "1500",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d)=%q want %q", n, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Name", "Value")
	tbl.Row("alpha", 1)
	tbl.Row("a-much-longer-name", 3.14159)
	var buf bytes.Buffer
	tbl.Write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Name") || !strings.Contains(lines[3], "3.142") {
		t.Fatalf("rendering wrong:\n%s", out)
	}
	// Columns align: every line has the same prefix width for column 2.
	idx0 := strings.Index(lines[0], "Value")
	idx3 := strings.Index(lines[3], "3.142")
	if idx0 != idx3 {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestFatalNilIsNoop(t *testing.T) {
	Fatal(nil) // must not exit
}

func TestParseFaults(t *testing.T) {
	if cfg, err := ParseFaults(""); err != nil || cfg != nil {
		t.Fatalf("empty spec: cfg=%v err=%v", cfg, err)
	}
	cfg, err := ParseFaults("seed=7, drop=0.01, corrupt=0.005, degrade=0.1, factor=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.DropRate != 0.01 || cfg.CorruptRate != 0.005 ||
		cfg.DegradeRate != 0.1 || cfg.DegradeFactor != 0.25 {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
	if !cfg.Enabled() {
		t.Fatal("parsed config should be enabled")
	}
	for _, bad := range []string{"drop=2", "drop=-0.1", "bogus=1", "drop", "seed=x"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}

func TestParseSimDuration(t *testing.T) {
	good := map[string]simtime.Duration{
		"250ns": 250,
		"500us": 500 * simtime.Microsecond,
		"2ms":   2 * simtime.Millisecond,
		"1.5s":  simtime.Duration(1.5 * float64(simtime.Second)),
		"0us":   0,
		" 3ms ": 3 * simtime.Millisecond,
	}
	for in, want := range good {
		got, err := ParseSimDuration(in)
		if err != nil {
			t.Errorf("ParseSimDuration(%q): %v", in, err)
		} else if got != want {
			t.Errorf("ParseSimDuration(%q) = %v, want %v", in, got, want)
		}
	}
	for _, in := range []string{"", "500", "abc", "-2ms", "2 hours", "ms"} {
		if _, err := ParseSimDuration(in); err == nil {
			t.Errorf("ParseSimDuration(%q) accepted", in)
		}
	}
}

func TestParseCrash(t *testing.T) {
	// Empty spec leaves cfg alone, including a nil one.
	if cfg, err := ParseCrash("", nil); err != nil || cfg != nil {
		t.Errorf("empty spec gave cfg=%v err=%v", cfg, err)
	}

	cfg, err := ParseCrash("seed=7,crash=0.125,silent=0.06,window=2ms,codec=0.5,until=1ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Config{
		Seed: 7, CrashRate: 0.125, SilentRate: 0.06,
		FailWindow: 2 * simtime.Millisecond,
		CodecRate:  0.5, CodecUntil: simtime.Millisecond,
	}
	if !reflect.DeepEqual(*cfg, want) {
		t.Errorf("ParseCrash = %+v, want %+v", *cfg, want)
	}

	// Merging into an existing config (from -faults) keeps its fields.
	base := &faults.Config{Seed: 1, DropRate: 0.25}
	cfg, err = ParseCrash("crash=0.5", base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != base || cfg.DropRate != 0.25 || cfg.CrashRate != 0.5 || cfg.Seed != 1 {
		t.Errorf("merge mangled the base config: %+v", *cfg)
	}

	for _, in := range []string{
		"crash", "crash=2", "crash=-0.1", "silent=x", "codec=1.5",
		"window=5", "until=-1ms", "seed=abc", "bogus=1",
	} {
		if _, err := ParseCrash(in, nil); err == nil {
			t.Errorf("ParseCrash(%q) accepted", in)
		}
	}
}

func TestParsePartition(t *testing.T) {
	// Empty spec leaves cfg alone, including a nil one.
	if cfg, err := ParsePartition("", nil); err != nil || cfg != nil {
		t.Errorf("empty spec gave cfg=%v err=%v", cfg, err)
	}

	cfg, err := ParsePartition(
		"seed=3,flap=0.1,period=400us,duty=0.25,groups=0:1|2:3,at=200us,heal=1ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := faults.Config{
		Seed:            3,
		LinkFlapRate:    0.1,
		FlapPeriod:      400 * simtime.Microsecond,
		FlapDuty:        0.25,
		PartitionGroups: [][]int{{0, 1}, {2, 3}},
		PartitionAt:     200 * simtime.Microsecond,
		PartitionHeal:   simtime.Millisecond,
	}
	if !reflect.DeepEqual(*cfg, want) {
		t.Errorf("ParsePartition = %+v, want %+v", *cfg, want)
	}
	if !cfg.LinkFaults() {
		t.Error("parsed config should enable link faults")
	}

	// Merging into an existing config (from -faults/-crash) keeps its fields.
	base := &faults.Config{Seed: 1, CrashRate: 0.5}
	cfg, err = ParsePartition("flap=0.125", base)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != base || cfg.CrashRate != 0.5 || cfg.LinkFlapRate != 0.125 || cfg.Seed != 1 {
		t.Errorf("merge mangled the base config: %+v", *cfg)
	}

	for _, in := range []string{
		"flap", "flap=2", "flap=-0.1", "duty=x", "period=5",
		"at=-1ms", "groups=0:1", "groups=0:x|2", "seed=abc", "bogus=1",
		"linkdown=0.25", "outage=600us", "window=2ms",
	} {
		if _, err := ParsePartition(in, nil); err == nil {
			t.Errorf("ParsePartition(%q) accepted", in)
		}
	}
}

func TestParseHeal(t *testing.T) {
	base := mpi.HealthPolicy{Deadline: 500 * simtime.Microsecond}
	if pol, err := ParseHeal("", base); err != nil || pol != base {
		t.Errorf("empty spec gave %+v err=%v", pol, err)
	}
	pol, err := ParseHeal("on=true,attempts=3", base)
	if err != nil {
		t.Fatal(err)
	}
	if !pol.SelfHeal || pol.MaxAttempts != 3 || pol.Deadline != base.Deadline {
		t.Errorf("ParseHeal = %+v", pol)
	}
	for _, in := range []string{"on=maybe", "attempts=-1", "attempts=x", "on", "retry=2"} {
		if _, err := ParseHeal(in, base); err == nil {
			t.Errorf("ParseHeal(%q) accepted", in)
		}
	}
}

func TestParseHealth(t *testing.T) {
	if pol, err := ParseHealth(""); err != nil || pol != (mpi.HealthPolicy{}) {
		t.Errorf("empty spec gave %+v err=%v", pol, err)
	}
	pol, err := ParseHealth("deadline=500us")
	if err != nil {
		t.Fatal(err)
	}
	if pol != (mpi.HealthPolicy{Deadline: 500 * simtime.Microsecond}) {
		t.Errorf("ParseHealth = %+v", pol)
	}
	for _, in := range []string{"deadline=5", "shrink=true", "deadline", "timeout=1ms"} {
		if _, err := ParseHealth(in); err == nil {
			t.Errorf("ParseHealth(%q) accepted", in)
		}
	}
}

func TestParseBreaker(t *testing.T) {
	if pol, err := ParseBreaker(""); err != nil || pol.Enabled() {
		t.Errorf("empty spec gave %+v err=%v", pol, err)
	}
	pol, err := ParseBreaker("threshold=3,cooldown=2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := mpi.BreakerPolicy{Threshold: 3, Cooldown: 2 * simtime.Millisecond}
	if pol != want {
		t.Errorf("ParseBreaker = %+v, want %+v", pol, want)
	}
	for _, in := range []string{"threshold=-1", "threshold=x", "cooldown=5", "seed=11", "trip=3"} {
		if _, err := ParseBreaker(in); err == nil {
			t.Errorf("ParseBreaker(%q) accepted", in)
		}
	}
}

// TestSpecGrammar runs one matrix through all six spec parsers: what the
// grammar accepts and rejects is decided once, in parseSpec, so it must be
// the same for every flag.
func TestSpecGrammar(t *testing.T) {
	base := mpi.HealthPolicy{Deadline: 500 * simtime.Microsecond}
	parsers := []struct {
		what  string // the flag's noun in errors
		keys  string // the keys of its table, as an unknown key's error lists them
		a, b  string // one valid option, and the same key with another value
		parse func(string) (any, error)
	}{
		{"fault", "seed, drop, corrupt, degrade, factor, chunkdrop, chunkcorrupt, chunkdup, chunkreorder",
			"drop=0.5", "drop=0.25", func(s string) (any, error) { return ParseFaults(s) }},
		{"crash", "seed, crash, silent, window, codec, until",
			"window=2ms", "window=3ms", func(s string) (any, error) { return ParseCrash(s, nil) }},
		{"partition", "seed, flap, period, duty, groups, at, heal",
			"groups=0:1|2:3", "groups=0|1|2", func(s string) (any, error) { return ParsePartition(s, nil) }},
		{"heal", "on, attempts", "attempts=3", "attempts=5", func(s string) (any, error) { return ParseHeal(s, base) }},
		{"health", "deadline", "deadline=500us", "deadline=1ms", func(s string) (any, error) { return ParseHealth(s) }},
		{"breaker", "threshold, cooldown", "cooldown=2ms", "cooldown=3ms", func(s string) (any, error) { return ParseBreaker(s) }},
	}
	for _, p := range parsers {
		empty, err := p.parse("")
		if err != nil {
			t.Errorf("%s: empty spec: %v", p.what, err)
		}
		want, err := p.parse(p.a)
		if err != nil || reflect.DeepEqual(want, empty) {
			t.Errorf("%s: %q parsed to %+v, %v; want a change from the empty spec", p.what, p.a, want, err)
			continue
		}
		key, val, _ := strings.Cut(p.a, "=")
		for name, spec := range map[string]string{
			"stray commas and blanks": " , " + key + " = " + val + " ,, ",
			"upper-case key":          strings.ToUpper(key) + "=" + val,
			"repeated key, last wins": p.b + "," + p.a,
		} {
			if got, err := p.parse(spec); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: %s: %q parsed to %+v, %v; want what %q parses to", p.what, name, spec, got, err, p.a)
			}
		}
		for spec, wantErr := range map[string]string{
			key:                   `bad ` + p.what + ` option "` + key + `" (want key=value)`,
			p.a + ",bogus=1":      `unknown ` + p.what + ` option "bogus" (want ` + p.keys + `)`,
			p.a + ",=1":           `unknown ` + p.what + ` option ""`,
			p.a + "," + key + "=": p.what + ` option ` + key + `=""`,
		} {
			if _, err := p.parse(spec); err == nil || !strings.Contains(err.Error(), wantErr) {
				t.Errorf("%s: %q: error %v, want one containing %q", p.what, spec, err, wantErr)
			}
		}
	}

	// The six value kinds reject what they must, naming flag, key and value.
	for _, c := range []struct {
		parser        int
		spec, wantErr string
	}{
		{0, "drop=1.5", `fault option drop="1.5": must be a probability in [0,1]`},
		{1, "crash=-0.1", `crash option crash="-0.1": must be a probability in [0,1]`},
		{2, "duty=2", `partition option duty="2": must be a probability in [0,1]`},
		{3, "attempts=-1", `heal option attempts="-1": must be a non-negative integer`},
		{5, "threshold=1.5", `breaker option threshold="1.5": must be a non-negative integer`},
		{1, "window=5h", `crash option window="5h": bad duration`},
		{2, "at=-1ms", `partition option at="-1ms": bad duration`},
		{4, "deadline=1m", `health option deadline="1m": bad duration`},
		{5, "cooldown=ms", `breaker option cooldown="ms": bad duration`},
		{3, "on=maybe", `heal option on="maybe": `},
		{0, "seed=x", `fault option seed="x": `},
		{2, "groups=0:1", `partition option groups="0:1": need at least two |-separated groups`},
		{2, "groups=0:x|2", `partition option groups="0:x|2": bad node "x"`},
	} {
		if _, err := parsers[c.parser].parse(c.spec); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%q: error %v, want one containing %q", c.spec, err, c.wantErr)
		}
	}

	// The three merging parsers keep what the spec does not name, and an
	// empty spec hands back what it was given.
	cfg := &faults.Config{Seed: 1, DropRate: 0.25}
	if got, err := ParseCrash("crash=0.5", cfg); err != nil || got != cfg || !reflect.DeepEqual(*got, faults.Config{Seed: 1, DropRate: 0.25, CrashRate: 0.5}) {
		t.Errorf("ParseCrash merge: %+v, %v", got, err)
	}
	if got, err := ParsePartition("seed=9,flap=0.5", cfg); err != nil || got != cfg || got.Seed != 9 || got.DropRate != 0.25 || got.CrashRate != 0.5 || got.LinkFlapRate != 0.5 {
		t.Errorf("ParsePartition merge: %+v, %v", got, err)
	}
	if got, err := ParsePartition(" ", cfg); err != nil || got != cfg {
		t.Errorf("ParsePartition blank spec: %p, %v; want the config it was given", got, err)
	}
	if got, err := ParseHeal("on=true", base); err != nil || got != (mpi.HealthPolicy{Deadline: base.Deadline, SelfHeal: true}) {
		t.Errorf("ParseHeal merge: %+v, %v", got, err)
	}
}

// TestOneSpecLoop keeps the grammar from forking again: this package splits a
// flag value on commas in exactly one place, and only parseSpec cuts a part
// at its "=".
func TestOneSpecLoop(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "cli.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string][]string{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			sep, isLit := call.Args[1].(*ast.BasicLit)
			if ok && isLit && strings.HasPrefix(sel.Sel.Name, "Split") || ok && isLit && sel.Sel.Name == "Cut" {
				sites[sel.Sel.Name+sep.Value] = append(sites[sel.Sel.Name+sep.Value], fn.Name.Name)
			}
			return true
		})
	}
	if got := sites[`Split","`]; !reflect.DeepEqual(got, []string{"commaParts"}) {
		t.Errorf("a flag value is split on commas in %v, want commaParts alone", got)
	}
	if got := sites[`Cut"="`]; !reflect.DeepEqual(got, []string{"parseSpec"}) {
		t.Errorf("a key=value part is cut in %v, want parseSpec alone", got)
	}
	if len(sites[`SplitN"="`]) != 0 || len(sites[`SplitN","`]) != 0 {
		t.Errorf("a hand-written spec loop is back: %v", sites)
	}
}

func TestEngineFlagsChunk(t *testing.T) {
	for args, want := range map[string]int{"": 0, "-chunk=off": -1, "-chunk=1M": 1 << 20, "-chunk=0": 0} {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		ef := AddEngineFlags(fs)
		var argv []string
		if args != "" {
			argv = []string{args}
		}
		if err := fs.Parse(argv); err != nil {
			t.Fatal(err)
		}
		cfg, err := ef.Config()
		if err != nil || cfg.PipelineChunkBytes != want {
			t.Errorf("%q: PipelineChunkBytes %d (err %v), want %d", args, cfg.PipelineChunkBytes, err, want)
		}
	}
}
