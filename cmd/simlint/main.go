// Command simlint runs the repository's custom static analyzers — the
// determinism, virtual-clock, arena-aliasing and phase-charging
// invariants described in DESIGN.md §10 — over Go packages:
//
//	simlint [-checks a,b,...] [packages]
//
// analyzes the given package patterns (default ./...) and prints one
// line per finding; a //simlint: directive no analyzer declares is a
// finding too. Exit status: 0 clean, 1 findings, 2 usage or load failure.
// `simlint help` prints the analyzer catalog with full documentation;
// `simlint -list` prints just the analyzer names.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"mpicomp/internal/simlint"
)

func main() {
	progname := filepath.Base(os.Args[0])
	fs := flag.NewFlagSet(progname, flag.ExitOnError)
	checks := fs.String("checks", "", "comma-separated subset of analyzers to run (default all)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() { printHelp(os.Stderr, progname) }
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *list {
		printList(os.Stdout)
		return
	}
	args := fs.Args()
	if len(args) > 0 && args[0] == "help" {
		printHelp(os.Stdout, progname)
		return
	}

	var names []string
	if *checks != "" {
		names = strings.Split(*checks, ",")
	}
	analyzers, err := simlint.ByName(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(2)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(2)
	}
	diags, err := simlint.Run(cwd, analyzers, args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Printf("%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d finding(s)\n", progname, len(diags))
		os.Exit(1)
	}
}

// printList writes one analyzer name per line, in registration order.
func printList(w io.Writer) {
	for _, a := range simlint.Analyzers() {
		fmt.Fprintln(w, a.Name)
	}
}

// printHelp writes the analyzer catalog — every analyzer with its full
// Doc — and the exit-code contract.
func printHelp(w io.Writer, progname string) {
	fmt.Fprintf(w, "%s runs the repository's custom static analyzers (DESIGN.md §10).\n\n", progname)
	fmt.Fprintf(w, "usage: %s [-checks a,b] [packages]\n", progname)
	fmt.Fprintf(w, "       %s help | -list\n\nAnalyzers:\n\n", progname)
	for _, a := range simlint.Analyzers() {
		fmt.Fprintf(w, "  %s\n      %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(w, "\nA //simlint: directive that no analyzer declares is reported as a finding.\n")
	fmt.Fprintf(w, "Exit codes: 0 no findings, 1 findings, 2 usage or load failure.\n")
}
