package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// The engine-path golden pins everything a message can observe of the
// send-side and receive-side framework: wire bytes (payload CRC and the
// encoded header), every simulated instant, every Stats phase and every
// activity counter, for both codecs, both integration modes, the paper's
// static form and the model's pick on both sides of its decision, flat and
// strided messages, whole and chunked, across cache states and pool
// starvation. The file was
// generated at the commit before the typed fork was folded into the flat
// path; any refactor of the engine must reproduce it byte for byte, for
// every worker count. Regenerate (only for an intended behaviour change)
// with ENGINE_GOLDEN=write go test -run TestEnginePathGolden ./internal/core/

const enginePathGolden = "testdata/engine_path_golden.json"

type goldenCell struct {
	Name           string           `json:"name"`
	Steps          []string         `json:"steps"`
	Phases         map[string]int64 `json:"phases"`
	Compressions   int              `json:"compressions"`
	Decompressions int              `json:"decompressions"`
	Bypasses       int              `json:"bypasses"`
	PoolFallbacks  int              `json:"pool_fallbacks"`
	CacheHits      int              `json:"cache_hits"`
	CacheMisses    int              `json:"cache_misses"`
	Invalidations  int              `json:"cache_invalidations"`
	BytesIn        int64            `json:"bytes_in"`
	BytesOut       int64            `json:"bytes_out"`
	Ratio          float64          `json:"predicted_ratio"`
}

type goldenLayout struct {
	name  string
	t     dtype.Type // nil: contiguous
	words int        // source buffer extent
}

func goldenLayouts() []goldenLayout {
	return []goldenLayout{
		{"flat", nil, 1 << 18},
		{"vector", dtype.Vector{Count: 512, BlockLen: 96, Stride: 160}, 511*160 + 96},
		{"subarray", dtype.Subarray3D{Dims: [3]int{66, 66, 64}, Sub: [3]int{64, 64, 64}, Start: [3]int{1, 1, 0}}, 66 * 66 * 64},
	}
}

// goldenChunks cuts a total-byte packed stream the way no uniform chunker
// would, to reach every eligibility branch: an aligned chunk, a chunk of
// unaligned length, an aligned-length chunk at an unaligned offset (a
// contiguous message compresses it, a layout bypasses it), a sub-threshold
// realignment, a large aligned chunk at a nonzero offset, and a ragged
// unaligned tail.
func goldenChunks(total int) [][2]int {
	sizes := []int{16384, 8194, 8192, 2}
	rest := total - (16384 + 8194 + 8192 + 2)
	sizes = append(sizes, rest-4100, 4098, 2)
	var out [][2]int
	off := 0
	for _, n := range sizes {
		out = append(out, [2]int{off, n})
		off += n
	}
	if off != total {
		panic("goldenChunks: bad partition")
	}
	return out
}

func runGoldenCell(t *testing.T, name string, cfg Config, lay goldenLayout, chunked bool, bw float64) goldenCell {
	t.Helper()
	dev := gpusim.NewDevice(hw.TeslaV100(), 8)
	clk := simtime.NewClock(0)
	e := NewEngine(clk, dev, cfg)
	src := deviceBufferWith(dev, smooth(lay.words, 11)).Track()
	dst := &gpusim.Buffer{Data: make([]byte, src.Len()), Loc: gpusim.Device, Dev: dev}
	total := src.Len()
	if lay.t != nil {
		if err := lay.t.Validate(src.Len()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total = lay.t.Size()
	}
	chunks := [][2]int{{0, total}}
	if chunked {
		chunks = goldenChunks(total)
	}
	cell := goldenCell{Name: name}
	pass := func(label string, send func(off, n int) ([]byte, Header)) {
		for _, c := range chunks {
			off, n := c[0], c[1]
			payload, hdr := send(off, n)
			sentAt := clk.Now()
			if err := e.DecompressChunk(clk, hdr, payload, dst, lay.t, off); err != nil {
				t.Fatalf("%s %s chunk [%d,+%d): %v", name, label, off, n, err)
			}
			step := fmt.Sprintf("%s [%d,+%d) crc=%08x hdr=%x sent=%d recv=%d out=%08x hits=%d misses=%d bypasses=%d fallbacks=%d",
				label, off, n, Checksum(payload), hdr.Encode(), int64(sentAt), int64(clk.Now()), Checksum(dst.Data),
				e.CacheHits, e.CacheMisses, e.Bypasses, e.PoolFallbacks)
			cell.Steps = append(cell.Steps, step)
		}
	}
	// A whole message takes the form the model picks, as a send does; the
	// chunks of a cut are never gated one by one.
	cached := func(off, n int) ([]byte, Header) {
		if !chunked {
			if k, _ := e.SendForm(clk, src, lay.t, n, bw, false); k == 0 {
				return e.BypassChunk(clk, src, lay.t, off, n)
			}
		}
		return e.CompressChunkCached(clk, src, lay.t, off, n)
	}
	pass("cold", cached)
	pass("warm", cached)
	src.Data[5] ^= 0x40
	src.MarkDirty()
	pass("dirty", cached)
	pass("breaker", func(off, n int) ([]byte, Header) {
		return e.BypassChunk(clk, src, lay.t, off, n)
	})
	// Starve the staging pool the way a burst of in-flight receives does:
	// eligible chunks degrade to the uncompressed form, uncached.
	src.MarkDirty()
	var held []*gpusim.Buffer
	for i := 0; i < cfg.PoolBuffers; i++ {
		held = append(held, e.StageRecv(clk, Header{Compressed: true, CompBytes: 1 << 10}))
	}
	pass("starved", cached)
	for _, b := range held {
		e.ReleaseRecv(clk, b)
	}
	pass("recovered", cached)

	cell.Phases = map[string]int64{}
	for _, p := range Phases() {
		cell.Phases[p.String()] = int64(e.Stats.Get(p))
	}
	cell.Compressions, cell.Decompressions = e.Compressions, e.Decompressions
	cell.Bypasses, cell.PoolFallbacks = e.Bypasses, e.PoolFallbacks
	cell.CacheHits, cell.CacheMisses, cell.Invalidations = e.CacheHits, e.CacheMisses, e.CacheInvalidations
	cell.BytesIn, cell.BytesOut = e.BytesIn, e.BytesOut
	cell.Ratio = e.PredictedRatio()
	return cell
}

func goldenCells(t *testing.T, workers int) []goldenCell {
	var cells []goldenCell
	for _, algo := range []Algorithm{AlgoMPC, AlgoZFP} {
		for _, mode := range []Mode{ModeNaive, ModeOpt} {
			// The static form (PipelineChunkBytes -1) ignores the link, and
			// so does ModeNaive. In ModeOpt the model picks a whole
			// message's form: a 2 GB/s link is where it compresses a 1 MiB
			// message; 75 GB/s (3-lane NVLink) probes and bypasses it.
			for _, form := range []struct {
				name  string
				chunk int
				bw    float64
			}{{"static", -1, 12.5}, {"model", 0, 2}, {"model", 0, 75}} {
				for _, lay := range goldenLayouts() {
					for _, chunked := range []bool{false, true} {
						cfg := Config{
							Mode: mode, Algorithm: algo, ZFPRate: 8, PipelineChunkBytes: form.chunk,
							Threshold: 4 << 10, PoolBuffers: 2, Workers: workers,
						}
						shape := "whole"
						if chunked {
							shape = "chunks"
						}
						name := fmt.Sprintf("%v/%v/%s@%g/%s/%s", algo, mode, form.name, form.bw, lay.name, shape)
						cells = append(cells, runGoldenCell(t, name, cfg, lay, chunked, form.bw))
					}
				}
			}
		}
	}
	return cells
}

func TestEnginePathGolden(t *testing.T) {
	write := os.Getenv("ENGINE_GOLDEN") == "write"
	var want []byte
	if !write {
		var err error
		if want, err = os.ReadFile(enginePathGolden); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := json.MarshalIndent(goldenCells(t, workers), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if write && want == nil {
			// The first worker count writes the file; the others must match it.
			want = got
			if err := os.WriteFile(enginePathGolden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: engine path diverges from %s: %s", workers, enginePathGolden, firstGoldenDiff(got, want))
		}
	}
}

// firstGoldenDiff names the first differing line so a failure points at a
// cell and field instead of at half a megabyte of JSON.
func firstGoldenDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	cell := ""
	for i := 0; i < len(g) && i < len(w); i++ {
		if bytes.Contains(g[i], []byte(`"name"`)) {
			cell = string(bytes.TrimSpace(g[i]))
		}
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d in cell %s:\n got  %s\n want %s", i+1, cell, g[i], w[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d", len(g), len(w))
}
