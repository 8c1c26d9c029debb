// Package cmd holds no code of its own: the executables live one directory
// down. This file is the smoke test over all of them.
package cmd

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildCommands builds every command under cmd/ into a fresh directory.
func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return bin
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
