package main

import (
	"bytes"
	"strings"
	"testing"

	"mpicomp/internal/simlint"
)

// TestListNamesEveryAnalyzer pins the -list contract: one analyzer name
// per line, in registration order, nothing else.
func TestListNamesEveryAnalyzer(t *testing.T) {
	var buf bytes.Buffer
	printList(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	analyzers := simlint.Analyzers()
	if len(lines) != len(analyzers) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(analyzers), buf.String())
	}
	for i, a := range analyzers {
		if lines[i] != a.Name {
			t.Errorf("-list line %d = %q, want %q", i, lines[i], a.Name)
		}
	}
}

// TestHelpDocumentsAnalyzersAndExitCodes pins the help contract: every
// analyzer appears with its full Doc, and the exit codes are documented —
// the standalone ones, the only mode there is.
func TestHelpDocumentsAnalyzersAndExitCodes(t *testing.T) {
	var buf bytes.Buffer
	printHelp(&buf, "simlint")
	out := buf.String()
	for _, a := range simlint.Analyzers() {
		if !strings.Contains(out, "  "+a.Name+"\n") {
			t.Errorf("help does not list analyzer %q", a.Name)
		}
		if !strings.Contains(out, a.Doc) {
			t.Errorf("help does not include the doc of %q", a.Name)
		}
	}
	if want := "Exit codes: 0 no findings, 1 findings, 2 usage or load failure."; !strings.Contains(out, want) {
		t.Errorf("help does not document exit codes %q", want)
	}
	if strings.Contains(out, "vet") || strings.Contains(out, ".cfg") {
		t.Errorf("help still documents a vet-tool mode:\n%s", out)
	}
}
