package simlint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestTreeIsSimlintClean is the acceptance gate for the analyzer suite:
// the repository's own production code must carry zero diagnostics.
// Every legitimate wall-clock or order-insensitive site is expected to
// carry a //simlint:wallclock or //simlint:orderok annotation with a
// reason, so a failure here is a real invariant violation, a new site
// that needs an explicit, reviewed exemption, or a directive no analyzer
// owns.
func TestTreeIsSimlintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	root := filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
	diags, err := Run(root, Analyzers(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Fatalf("%d simlint diagnostics on the tree; fix or annotate with a reasoned //simlint directive", len(diags))
	}
}

// TestUnknownDirectivesAreFlagged: a directive no analyzer declares — a
// typo, or one whose analyzer was retired — is a finding, while a live
// one stays quiet.
func TestUnknownDirectivesAreFlagged(t *testing.T) {
	dir := t.TempDir()
	src := "package plant\n\n" +
		"//simlint:bogus no analyzer owns this\nfunc a() {}\n\n" +
		"//simlint:lockheld retired with the lockorder analyzer\nfunc b() {}\n\n" +
		"//simlint:orderok owned by detrange\nfunc c() {}\n"
	for name, body := range map[string]string{"go.mod": "module plant\n\ngo 1.22\n", "plant.go": src} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	diags, err := Run(dir, Analyzers(), "./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d %s", d.Position.Line, d.Message))
	}
	want := []string{
		"3 unknown directive simlint:bogus: no analyzer declares it",
		"6 unknown directive simlint:lockheld: no analyzer declares it",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
