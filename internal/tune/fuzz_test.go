package tune

import (
	"bytes"
	"testing"
)

// FuzzTableJSON drives ParseTable with arbitrary bytes: malformed
// input must be rejected with an error (never a panic), and any input
// that parses must re-encode to a canonical fixpoint — Marshal of the
// parsed table parses again and marshals byte-identically.
func FuzzTableJSON(f *testing.F) {
	f.Add([]byte(`{"version":2,"seed":0,"entries":[]}`))
	f.Add([]byte(`{"version":2,"seed":42,"entries":[{"size_class":20,"ranks":8,"topo":"flat","ratio_milli":1430,"scores":[{"algo":"rd","ema_nanos":1048576,"samples":3},{"algo":"ring","ema_nanos":2097152,"samples":1}]}]}`))
	f.Add([]byte(`{"version":2,"seed":0,"entries":[{"size_class":12,"ranks":6,"topo":"hierarchical","ratio_milli":1000,"scores":[{"algo":"two-level","ema_nanos":4096,"samples":9}]}]}`))
	f.Add([]byte(`{"version":1,"seed":0,"entries":[{"size_class":20,"ranks":8,"topo":"flat","ratio_milli":1430,"chunk_bytes":131072,"codec_hint":"mpc","scores":[]}]}`))
	f.Add([]byte(`{"version":2,"seed":0,"entries":[{"size_class":-3,"ranks":0,"topo":"mesh","ratio_milli":-1,"scores":null}]}`))
	f.Add([]byte(`not a table`))
	f.Add([]byte(`{}`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("{\"version\":2,\"seed\":0,\"entries\":[]}\n{\"version\":2}"))
	// The current schema (v3, no seed or ratio_milli column): the seeds
	// above only reach the reject paths, these reach the accept path and
	// the Marshal fixpoint — zero entries, a two-level score, entries and
	// scores out of canonical order, and a v2 column on a v3 table.
	f.Add([]byte(`{"version":3,"entries":[]}`))
	f.Add([]byte(`{"version":3,"entries":[{"size_class":20,"ranks":8,"topo":"flat","scores":[{"algo":"rd","ema_nanos":1048576,"samples":3},{"algo":"ring","ema_nanos":2097152,"samples":1}]}]}`))
	f.Add([]byte(`{"version":3,"entries":[{"size_class":12,"ranks":6,"topo":"hierarchical","scores":[{"algo":"two-level","ema_nanos":4096,"samples":9}]}]}`))
	f.Add([]byte(`{"version":3,"entries":[{"size_class":22,"ranks":8,"topo":"hierarchical","scores":[{"algo":"two-level","ema_nanos":1309760,"samples":3},{"algo":"rab","ema_nanos":1169600,"samples":3},{"algo":"rd","ema_nanos":1005109,"samples":21}]},{"size_class":15,"ranks":8,"topo":"single-node","scores":[]}]}`))
	f.Add([]byte(`{"version":3,"entries":[{"size_class":20,"ranks":8,"topo":"flat","ratio_milli":1430,"scores":[]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ParseTable(data)
		if err != nil {
			if tab != nil {
				t.Fatal("ParseTable returned a table alongside an error")
			}
			return
		}
		out1, err := tab.Marshal()
		if err != nil {
			t.Fatalf("parsed table failed to marshal: %v", err)
		}
		tab2, err := ParseTable(out1)
		if err != nil {
			t.Fatalf("canonical output failed to re-parse: %v\n%s", err, out1)
		}
		out2, err := tab2.Marshal()
		if err != nil {
			t.Fatalf("re-parsed table failed to marshal: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("marshal not a fixpoint:\n%s\nvs\n%s", out1, out2)
		}
	})
}
