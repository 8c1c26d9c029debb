package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json and the tables the
// program reports from in step, and both within the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the allowed characters", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(specs) || len(specs) > 6 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program (at most 6)", len(m.Workloads), len(specs))
	}
	for i, s := range specs {
		unique(s.name)
		if w := m.Workloads[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, w.Name, s.name)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200", s.name, len(s.why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(want) > limit {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program (at most %d)", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			unique(d.name)
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if !unit.MatchString(d.unit) {
				t.Errorf("%s: unit %q is outside the allowed characters", d.name, d.unit)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound in BENCHMARK.json does not match %v (0 < bound <= 0.25, end-to-end only)", d.name, d.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 8, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)
}

// TestSmoke runs every workload once at an eighth of its payload, timed
// and traced, and checks that each declared metric comes out exactly
// once with its declared unit.
func TestSmoke(t *testing.T) {
	o := options{ops: 1, setups: 1, rung: time.Millisecond, outDir: t.TempDir()}
	p := params{seed: 1, scale: 8, dataset: "msg_sppm"}
	for _, s := range specs {
		for _, run := range []struct {
			kind string
			f    func(spec, params, options) (*report, error)
			defs []metricDef
		}{{"timed", runTimed, endToEnd}, {"traced", runTraced, perLayer}} {
			t.Run(s.name+"/"+run.kind, func(t *testing.T) {
				rep, err := run.f(s, p, o)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %s", rep.Correct, rep.Attempted, rep.Failed, rep.Error)
				}
				if len(rep.Metrics) != len(run.defs) {
					t.Errorf("%d metrics, %d declared", len(rep.Metrics), len(run.defs))
				}
				for _, d := range run.defs {
					if got, ok := rep.Metrics[d.name]; !ok || got.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, got, d.unit)
					}
				}
			})
		}
	}
}
