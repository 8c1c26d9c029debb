// Versioned on-disk tuning tables. A Table is the canonical JSON form
// of a Tuner's committed snapshot: Marshal always emits entries sorted
// by key and scores sorted by algorithm name, so marshaling is a
// fixpoint (ParseTable(Marshal(t)) marshals back byte-identically) and
// tables diff cleanly under version control. ParseTable is strict —
// unknown fields, unknown algorithm or topology names, duplicate keys,
// and out-of-range numbers are all errors, never panics — so a table
// that loads is a table the Tuner can warm-start from unconditionally.
package tune

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"mpicomp/internal/netsim"
	"mpicomp/internal/sched"
)

// TableVersion is the current tuning-table schema version. ParseTable
// rejects any other value: a table is a warm-start cache, not data, so a
// schema change bumps this and an old table is re-tuned, never silently
// reinterpreted.
const TableVersion = 3

// ErrBadTable is the sentinel all table parse/validate failures wrap.
var ErrBadTable = errors.New("tune: bad table")

// Table is the persisted tuning state.
type Table struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

// Entry is one key's committed state.
type Entry struct {
	SizeClass int     `json:"size_class"`
	Ranks     int     `json:"ranks"`
	Topo      string  `json:"topo"`
	Scores    []Score `json:"scores"`
}

// Score is one candidate's standing within an entry.
type Score struct {
	Algo     string `json:"algo"`
	EmaNanos int64  `json:"ema_nanos"`
	Samples  int64  `json:"samples"`
}

// parseAlgoName resolves a table algorithm name. Auto is a dispatch mode,
// not a schedule a score can belong to.
func parseAlgoName(s string) (sched.AllreduceAlgo, error) {
	a, ok := sched.ParseAllreduceAlgo(s)
	if !ok || a == sched.AllreduceAuto {
		return 0, fmt.Errorf("%w: unknown algorithm %q", ErrBadTable, s)
	}
	return a, nil
}

func validTopo(s string) bool {
	switch netsim.TopoClass(s) {
	case netsim.TopoSingleNode, netsim.TopoFlat, netsim.TopoHierarchical:
		return true
	}
	return false
}

// ParseTable decodes, validates, and canonicalizes a table. The
// returned table always satisfies Validate and marshals to the
// canonical byte form.
func ParseTable(data []byte) (*Table, error) {
	// An old schema's columns would fail the strict decode below as
	// unknown fields; say what to do about it instead.
	var head struct{ Version int }
	if json.Unmarshal(data, &head) == nil && head.Version != TableVersion {
		return nil, fmt.Errorf("%w: version %d, want %d: re-tune (a table is a warm-start cache)", ErrBadTable, head.Version, TableVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var t Table
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTable, err)
	}
	// A second document after the first is garbage, not a table.
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after table document", ErrBadTable)
	}
	t.canonicalize()
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// canonicalize sorts entries by key and scores by algorithm name so
// Marshal output is unique for a given logical table.
func (t *Table) canonicalize() {
	for i := range t.Entries {
		e := &t.Entries[i]
		sort.Slice(e.Scores, func(a, b int) bool { return e.Scores[a].Algo < e.Scores[b].Algo })
	}
	sort.Slice(t.Entries, func(a, b int) bool {
		x, y := &t.Entries[a], &t.Entries[b]
		if x.SizeClass != y.SizeClass {
			return x.SizeClass < y.SizeClass
		}
		if x.Ranks != y.Ranks {
			return x.Ranks < y.Ranks
		}
		return x.Topo < y.Topo
	})
}

// Validate checks the table is loadable: known version, known names,
// in-range numbers, unique keys and score algorithms. All failures
// wrap ErrBadTable.
func (t *Table) Validate() error {
	if t.Version != TableVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadTable, t.Version, TableVersion)
	}
	seenKey := make(map[Key]bool)
	for i := range t.Entries {
		e := &t.Entries[i]
		if e.SizeClass < 0 || e.SizeClass > 62 {
			return fmt.Errorf("%w: entry %d: size_class %d out of range", ErrBadTable, i, e.SizeClass)
		}
		if e.Ranks < 1 || e.Ranks > 1<<20 {
			return fmt.Errorf("%w: entry %d: ranks %d out of range", ErrBadTable, i, e.Ranks)
		}
		if !validTopo(e.Topo) {
			return fmt.Errorf("%w: entry %d: unknown topo %q", ErrBadTable, i, e.Topo)
		}
		k := Key{SizeClass: e.SizeClass, Ranks: e.Ranks, Topo: netsim.TopoClass(e.Topo)}
		if seenKey[k] {
			return fmt.Errorf("%w: duplicate entry for size_class=%d ranks=%d topo=%s", ErrBadTable, e.SizeClass, e.Ranks, e.Topo)
		}
		seenKey[k] = true
		seenAlgo := make(map[string]bool)
		for j := range e.Scores {
			s := &e.Scores[j]
			if _, err := parseAlgoName(s.Algo); err != nil {
				return fmt.Errorf("%w: entry %d score %d: unknown algorithm %q", ErrBadTable, i, j, s.Algo)
			}
			if seenAlgo[s.Algo] {
				return fmt.Errorf("%w: entry %d: duplicate score for %q", ErrBadTable, i, s.Algo)
			}
			seenAlgo[s.Algo] = true
			if s.EmaNanos < 0 {
				return fmt.Errorf("%w: entry %d score %d: negative ema_nanos", ErrBadTable, i, j)
			}
			if s.Samples < 0 {
				return fmt.Errorf("%w: entry %d score %d: negative samples", ErrBadTable, i, j)
			}
		}
	}
	return nil
}

// Marshal renders the canonical JSON byte form (sorted, indented,
// trailing newline). The table must already be canonical — every table
// produced by ParseTable or Tuner.Snapshot is.
func (t *Table) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTable, err)
	}
	return append(out, '\n'), nil
}
