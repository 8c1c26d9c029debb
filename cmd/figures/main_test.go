package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestEveryFigureRuns runs every entry of the figure table at the smallest
// scale that still takes it through its code — one sweep size, one dataset,
// the smallest GPU and worker counts, every fixed extent a quarter of the
// paper's — and checks that it prints its heading and a table with at least
// one data row.
func TestEveryFigureRuns(t *testing.T) {
	smallest := scale{iters: 1, warmup: 0, maxBytes: 256 << 10, steps: 1, points: 1, shrink: 4}
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.id] || f.id == "all" || f.title == "" {
			t.Errorf("figure %q: ids must be unique, titled and not \"all\"", f.id)
		}
		seen[f.id] = true
		t.Run(f.id, func(t *testing.T) {
			var out bytes.Buffer
			if err := f.run(&out, smallest); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(out.String(), "\n")
			if !strings.HasPrefix(lines[0], "Figure ") && !strings.HasPrefix(lines[0], "Ablation: ") {
				t.Errorf("first line %q is not a heading", lines[0])
			}
			rows := 0
			for i, line := range lines[:len(lines)-1] {
				// A table is a header, a rule of dashes, then its rows.
				if strings.HasPrefix(line, "--") && strings.Trim(line, "- ") == "" && strings.TrimSpace(lines[i+1]) != "" {
					rows++
				}
			}
			if rows == 0 {
				t.Errorf("no table with a data row in:\n%s", out.String())
			}
		})
	}
	if list := figureList(); strings.Count(list, "\n") != len(figures) || !strings.Contains(list, "  ablations ") {
		t.Errorf("figureList() does not list the table:\n%s", list)
	}
}
