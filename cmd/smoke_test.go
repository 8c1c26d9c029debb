// Package cmd holds no code of its own: the executables live one directory
// down. This file is the smoke test over all of them.
package cmd

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// commands is the one build of every command under cmd/ the tests share.
var commands struct {
	once sync.Once
	dir  string
	err  error
}

// TestMain removes the shared build when the tests are done.
func TestMain(m *testing.M) {
	code := m.Run()
	if commands.dir != "" {
		os.RemoveAll(commands.dir)
	}
	os.Exit(code)
}

// buildCommands builds every command under cmd/ into a fresh directory,
// once per test binary.
func buildCommands(t *testing.T) string {
	t.Helper()
	commands.once.Do(func() {
		if commands.dir, commands.err = os.MkdirTemp("", "mpicomp-cmd"); commands.err != nil {
			return
		}
		build := exec.Command("go", "build", "-o", commands.dir+string(filepath.Separator), "./...")
		if out, err := build.CombinedOutput(); err != nil {
			commands.err = fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
		}
	})
	if commands.err != nil {
		t.Fatal(commands.err)
	}
	return commands.dir
}

// TestEveryCommandStartsUp builds every command under cmd/ and runs it with
// -h. Flag registration happens before flag.Parse, so a command that
// registers one name twice (daskbench did, from PR 2 to PR 12: its own
// -workers and -chunk against cli.AddEngineFlags') panics here and nowhere
// else — it compiles, and vet cannot see it.
func TestEveryCommandStartsUp(t *testing.T) {
	dirs, err := filepath.Glob("*/main.go")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no commands found under cmd/: %v", err)
	}
	bin := buildCommands(t)
	for _, d := range dirs {
		name := filepath.Dir(d)
		t.Run(name, func(t *testing.T) {
			if _, err := os.Stat(filepath.Join(bin, name)); err != nil {
				t.Fatalf("go build produced no binary for cmd/%s: %v", name, err)
			}
			out, err := exec.Command(filepath.Join(bin, name), "-h").CombinedOutput()
			// The flag package exits 0 on -h; a command with its own
			// usage may exit 2. A panic exits 2 as well, so look at
			// what it printed, too.
			var exit *exec.ExitError
			if err != nil && (!errors.As(err, &exit) || exit.ExitCode() != 2) {
				t.Errorf("%s -h: %v\n%s", name, err, out)
			}
			if bytes.Contains(out, []byte("panic:")) || bytes.Contains(out, []byte("goroutine 1 [")) {
				t.Errorf("%s -h panicked:\n%s", name, out)
			}
			if len(bytes.TrimSpace(out)) == 0 {
				t.Errorf("%s -h printed no usage", name)
			}
		})
	}
}

// TestOmbrunWritesProfiles runs the real driver through the codec path with
// -cpuprofile and -memprofile (cli.AddProfileFlags): host profiles of the
// whole stack come from here, not from a micro-benchmark.
func TestOmbrunWritesProfiles(t *testing.T) {
	bin := buildCommands(t)
	tmp := t.TempDir()
	cpu, mem := filepath.Join(tmp, "cpu.prof"), filepath.Join(tmp, "mem.prof")
	out, err := exec.Command(filepath.Join(bin, "ombrun"), "-bench", "latency", "-sizes", "1M",
		"-codec", "mpc", "-cpuprofile", cpu, "-memprofile", mem).CombinedOutput()
	if err != nil {
		t.Fatalf("ombrun: %v\n%s", err, out)
	}
	for _, f := range []string{cpu, mem} {
		if st, err := os.Stat(f); err != nil || st.Size() == 0 {
			t.Errorf("ombrun left no profile in %s (err %v)\n%s", filepath.Base(f), err, out)
		}
	}
}

// TestOmbrunFailureCarriesStatLines: a run whose retry budget is exhausted
// exits 2, and its stderr carries the same stat lines (by name) a
// successful run with the same subsystems on prints to stdout — the
// failure path used to print a shorter fault line and no pipeline or
// recovery line, exactly when a chunk stream had just run out of budget.
func TestOmbrunFailureCarriesStatLines(t *testing.T) {
	bin := buildCommands(t)
	common := []string{"-bench", "latency", "-sizes", "1M", "-iters", "1", "-warmup", "0",
		"-codec", "mpc", "-chunk", "256K", "-breaker", "threshold=3", "-heal", "on=true"}
	statNames := func(out []byte) string {
		var names []string
		for _, line := range strings.Split(string(out), "\n") {
			for _, name := range []string{"# faults injected:", "# health:", "# pipeline:", "# recovery:", "# breaker:"} {
				if strings.HasPrefix(line, name) {
					names = append(names, name)
				}
			}
		}
		return strings.Join(names, " ")
	}
	var stdout, stderr bytes.Buffer
	ok := exec.Command(filepath.Join(bin, "ombrun"), append(common, "-faults", "seed=7,drop=0.05")...)
	ok.Stdout = &stdout
	if err := ok.Run(); err != nil {
		t.Fatalf("ombrun under light loss: %v", err)
	}
	want := statNames(stdout.Bytes())
	if strings.Count(want, "#") != 5 {
		t.Fatalf("a successful run printed stat lines %q, want all five", want)
	}
	failing := exec.Command(filepath.Join(bin, "ombrun"),
		append(common, "-faults", "seed=3,drop=0.9", "-retries", "-1", "-chunk-retry", "-1")...)
	failing.Stderr = &stderr
	var exit *exec.ExitError
	if err := failing.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("ombrun with no retry budget under 90%% loss: %v, want exit status 2\n%s", err, stderr.Bytes())
	}
	if got := statNames(stderr.Bytes()); got != want {
		t.Errorf("failure stderr carries stat lines %q, a success prints %q\n%s", got, want, stderr.Bytes())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("retry budget exhausted")) {
		t.Errorf("failure stderr does not name the cause:\n%s", stderr.Bytes())
	}
}

// TestOmbrunPipelineLine: the model cuts an uncached 4 MiB msg_sppm send in
// two once its rank has a ratio estimate — for its warm-up send, from the
// probe the prior estimate's "uncompressed" pick triggers — and
// "# pipeline:" reports the chunks with the chooser's k= histogram, and
// "# model:" the forms it picked: every send two chunks. -chunk off sends
// whole and prints neither line.
func TestOmbrunPipelineLine(t *testing.T) {
	run := func(extra ...string) string {
		args := append([]string{"-bench", "latency", "-codec", "mpc", "-dataset", "msg_sppm",
			"-sizes", "4M", "-cache", "-1", "-iters", "1", "-warmup", "1"}, extra...)
		out, err := exec.Command(filepath.Join(buildCommands(t), "ombrun"), args...).Output()
		if err != nil {
			t.Fatalf("ombrun %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}
	if out := run(); !strings.Contains(out, "# pipeline: chunks=8 ") || !strings.Contains(out, " k=2:4\n") ||
		!strings.Contains(out, "# model: uncompressed=0 whole=0 cut=4 bypasses=0\n") {
		t.Errorf("the model's run does not report two 2-chunk sends per rank:\n%s", out)
	}
	if out := run("-chunk", "off"); strings.Contains(out, "# pipeline:") || strings.Contains(out, "# model:") {
		t.Errorf("-chunk off sent chunks or reported the model:\n%s", out)
	}
}

// TestOmbrunModelLine: "# model:" sums the forms the cost model picked over
// the ranks. In a 2x2 8 MiB msg_sppm MPC alltoall (one warm-up, one
// measured iteration) each rank sends its node peer a segment over NVLink
// uncompressed and its two other peers one over IB EDR whole and
// compressed; bypasses= counts the same uncompressed sends. -chunk off
// leaves the model out and prints no line.
func TestOmbrunModelLine(t *testing.T) {
	run := func(extra ...string) string {
		args := append([]string{"-bench", "alltoall", "-nodes", "2", "-ppn", "2", "-codec", "mpc",
			"-dataset", "msg_sppm", "-sizes", "8M", "-cache", "-1", "-iters", "1", "-warmup", "1"}, extra...)
		out, err := exec.Command(filepath.Join(buildCommands(t), "ombrun"), args...).Output()
		if err != nil {
			t.Fatalf("ombrun %v: %v\n%s", extra, err, out)
		}
		return string(out)
	}
	if out := run(); !strings.Contains(out, "# model: uncompressed=8 whole=16 cut=0 bypasses=8\n") {
		t.Errorf("the model's line does not report one uncompressed and two whole sends per rank and iteration:\n%s", out)
	}
	if out := run("-chunk", "off"); strings.Contains(out, "# model:") {
		t.Errorf("-chunk off reported the model:\n%s", out)
	}
}

// TestOmbrunSelfHealsAFatedRank drives a fated rank through -heal end to
// end: seed 7 dooms rank 6 of 16 inside the first allgather, and the
// survivors retry once on the shrunk view and complete. This is the
// README's self-heal example.
func TestOmbrunSelfHealsAFatedRank(t *testing.T) {
	out, err := exec.Command(filepath.Join(buildCommands(t), "ombrun"), "-bench", "allgather",
		"-nodes", "8", "-ppn", "2", "-crash", "seed=7,crash=0.125", "-health", "deadline=500us",
		"-heal", "on=true", "-sizes", "1M", "-iters", "1", "-warmup", "0").Output()
	if err != nil {
		t.Fatalf("ombrun -heal: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("# recovery: reroutes=1 shrink-completions=1 ")) {
		t.Errorf("ombrun -heal did not recover with one reroute:\n%s", out)
	}
}

// TestOmbrunTuneTableNeedsAuto: a tuning table is the tuner's state, and a
// pinned -algo runs no tuner, so -tune-table with one is a usage error (exit
// 1, naming -algo auto) that writes nothing; it used to be ignored without a
// word. Under -algo auto the same flags write the table.
func TestOmbrunTuneTableNeedsAuto(t *testing.T) {
	bin := buildCommands(t)
	table := filepath.Join(t.TempDir(), "tune.json")
	args := []string{"-bench", "allreduce", "-nodes", "4", "-sizes", "32K", "-iters", "1", "-warmup", "0", "-tune-table", table}
	out, err := exec.Command(filepath.Join(bin, "ombrun"), append(args, "-algo", "ring")...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !bytes.Contains(out, []byte("-algo auto")) {
		t.Fatalf("ombrun -algo ring -tune-table: %v, want exit status 1 naming -algo auto\n%s", err, out)
	}
	if _, err := os.Stat(table); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a rejected run left a table behind (stat: %v)", err)
	}
	if out, err := exec.Command(filepath.Join(bin, "ombrun"), append(args, "-algo", "auto")...).CombinedOutput(); err != nil || !bytes.Contains(out, []byte("# tune table written to "+table)) {
		t.Fatalf("ombrun -algo auto -tune-table: %v\n%s", err, out)
	}
}

// TestOmbrunRejectsBadParameters: a measurement with no iteration, and a
// codec parameter outside the codec's range, are usage errors (exit 1,
// naming the problem) before anything runs; they used to divide by zero
// in a driver or panic a rank at its first compressed message.
func TestOmbrunRejectsBadParameters(t *testing.T) {
	bin := buildCommands(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "bcast", "-nodes", "2", "-sizes", "1M", "-iters", "0"}, "iters >= 1"},
		{[]string{"-bench", "latency", "-sizes", "1M", "-warmup", "-1"}, "warmup >= 0"},
		{[]string{"-bench", "bw", "-sizes", "1M", "-iters", "0"}, "iters >= 1"},
		{[]string{"-codec", "zfp", "-rate", "40", "-sizes", "1M"}, "rate out of range"},
		{[]string{"-codec", "mpc", "-mpcdim", "-2", "-sizes", "1M"}, "dimensionality out of range"},
	} {
		out, err := exec.Command(filepath.Join(bin, "ombrun"), c.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !bytes.Contains(out, []byte(c.want)) {
			t.Errorf("ombrun %s: %v, want exit status 1 naming %q\n%s", strings.Join(c.args, " "), err, c.want, out)
		}
	}
}

// TestTable3ReproducesCommittedRun: Table III has one definition, cmd/tables,
// and one committed run, results_table3.txt; the first must print the second
// byte for byte (its ratios are measured by the real codecs on the eight
// datasets, its throughputs come from the calibrated kernel model).
func TestTable3ReproducesCommittedRun(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "results_table3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command(filepath.Join(buildCommands(t), "tables"), "-table", "3").Output()
	if err != nil {
		t.Fatalf("tables -table 3: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("tables -table 3 no longer prints results_table3.txt:\n%s", got)
	}
}

// TestCIPatternsNameTests: every alternative of a -run pattern in the CI
// workflow, and every fuzz-smoke target, names a Test or Fuzz function in
// the packages its step runs. A test renamed or deleted under a CI job's
// pattern otherwise leaves that job quietly running less than it says.
func TestCIPatternsNameTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	fuzzTarget := regexp.MustCompile(`'(Fuzz\w+) (\./[^' ]+)'`)
	pkgArg := regexp.MustCompile(`\./[\w./]*`)
	checked := 0
	for _, step := range runBlocks(string(raw)) {
		for _, m := range runFlag.FindAllStringSubmatch(step, -1) {
			if m[1] == "^$" {
				continue // compiles the tests and runs none, on purpose
			}
			names := testFuncs(t, pkgArg.FindAllString(step, -1))
			for _, alt := range strings.Split(m[1], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Fatalf("ci.yml -run %q: %v", m[1], err)
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml -run %q: %q names no test in %v", m[1], alt, pkgArg.FindAllString(step, -1))
				}
				checked++
			}
		}
		for _, m := range fuzzTarget.FindAllStringSubmatch(step, -1) {
			if !slices.Contains(testFuncs(t, []string{m[2]}), m[1]) {
				t.Errorf("ci.yml fuzz smoke: no %s in %s", m[1], m[2])
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern or fuzz target in ci.yml")
	}
}

// runBlocks returns the text of every run: step in a workflow, the key's
// line together with the lines indented deeper than the key.
func runBlocks(yml string) []string {
	var blocks []string
	lines := strings.Split(yml, "\n")
	for i, line := range lines {
		col := strings.Index(line, "run:")
		if col < 0 || strings.TrimLeft(strings.TrimSpace(line[:col]), "- ") != "" {
			continue
		}
		block := []string{line[col+len("run:"):]}
		for _, next := range lines[i+1:] {
			if strings.TrimSpace(next) != "" && len(next)-len(strings.TrimLeft(next, " ")) <= col {
				break
			}
			block = append(block, next)
		}
		blocks = append(blocks, strings.Join(block, "\n"))
	}
	return blocks
}

// testFuncs lists the Test and Fuzz functions declared in the packages the
// go test arguments name (directories relative to the repository root).
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	for _, pkg := range pkgs {
		files, _ := filepath.Glob(filepath.Join("..", pkg, "*_test.go"))
		if len(files) == 0 {
			t.Errorf("ci.yml runs tests in %s, which holds none", pkg)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllSubmatch(src, -1) {
				names = append(names, string(m[1]))
			}
		}
	}
	return names
}
