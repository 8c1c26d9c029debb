package mpi

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// chunkCase is one codec on one dataset of the model-chunking tests.
type chunkCase struct {
	name    string
	cfg     core.Config
	dataset string
}

var chunkCases = []chunkCase{
	{"mpc/msg_sppm", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1}, "msg_sppm"},
	{"mpc/msg_sp", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1}, "msg_sp"},
	{"zfp8/msg_sppm", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}, "msg_sppm"},
}

// datasetBytes returns n bytes of a Table III dataset.
func datasetBytes(t testing.TB, name string, n int) []byte {
	t.Helper()
	d, ok := datasets.ByName(name)
	if !ok {
		t.Fatalf("no dataset %q", name)
	}
	return core.FloatsToBytes(nil, d.Values(n/4))
}

// oneWay sends data from rank 0 to rank 1 on fresh clocks and returns the
// instant the receive completes. When predict is set, rank 0 first asks
// its engine what the chooser picks for the send, which the send then
// uses (the ask changes no estimate).
func oneWay(t *testing.T, w *World, data []byte, predict bool) (lat simtime.Duration, k int, pred simtime.Duration) {
	t.Helper()
	w.ResetClocks()
	times, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			buf := &gpusim.Buffer{Data: data, Loc: gpusim.Device, Dev: r.Dev}
			if predict {
				k, pred = r.Engine.PredictForm(buf, nil, len(data), r.shareGBps(r.Node(), w.nodeOf(1)), true)
			}
			return r.Send(1, 0, buf)
		}
		return r.Recv(0, 0, &gpusim.Buffer{Data: make([]byte, len(data)), Loc: gpusim.Device, Dev: r.Dev})
	})
	if err != nil {
		t.Fatal(err)
	}
	return simtime.Duration(times[1]), k, pred
}

// TestModelChunkingNearBest holds the chooser to the forms it picks from:
// with the compress-once cache off (every send pays its kernels), the
// model's form of a 2x1 send lands within 5 % of the best of
// {uncompressed, whole, 8M, 4M, 2M, 1M}, and the time it predicts for that
// form within 10 % of the simulated one. Each size sends a prefix of one 32 MiB
// sample per dataset. One codec worker: no result depends on the count,
// and the test leaves a core to the packages that run beside it.
func TestModelChunkingNearBest(t *testing.T) {
	sizes := []int{4 << 20, 8 << 20, 16 << 20, 32 << 20}
	fixed := []int{-1, 8 << 20, 4 << 20, 2 << 20, 1 << 20}
	samples := map[string][]byte{}
	for _, cc := range chunkCases {
		if samples[cc.dataset] == nil {
			samples[cc.dataset] = datasetBytes(t, cc.dataset, sizes[len(sizes)-1])
		}
	}
	for _, cl := range []hw.Cluster{hw.Longhorn(), hw.FronteraLiquid()} {
		for _, cc := range chunkCases {
			data := map[int][]byte{}
			for _, n := range sizes {
				data[n] = samples[cc.dataset][:n]
			}
			world := func(chunk int) *World {
				cfg := cc.cfg
				cfg.CacheEntries, cfg.PipelineChunkBytes, cfg.Workers = -1, chunk, 1
				return mustWorld(t, Options{Cluster: cl, Nodes: 2, PPN: 1, Engine: cfg})
			}
			best := map[int]simtime.Duration{}
			raw := mustWorld(t, Options{Cluster: cl, Nodes: 2, PPN: 1, Engine: core.Config{Workers: 1}})
			for _, n := range sizes {
				best[n], _, _ = oneWay(t, raw, data[n], false)
			}
			for _, chunk := range fixed {
				w := world(chunk)
				for _, n := range sizes {
					if chunk > 0 && n < 2*chunk {
						continue // sent whole, as the -1 world measured
					}
					if lat, _, _ := oneWay(t, w, data[n], false); lat < best[n] {
						best[n] = lat
					}
				}
			}
			w := world(0)
			for _, n := range sizes {
				oneWay(t, w, data[n], false) // the ratio estimate sees this size's data
				lat, k, pred := oneWay(t, w, data[n], true)
				name := fmt.Sprintf("%s %s %dM", cl.Name, cc.name, n>>20)
				t.Logf("%s: k=%d model %.2f us (predicted %.2f), best fixed form %.2f us",
					name, k, lat.Microseconds(), pred.Microseconds(), best[n].Microseconds())
				if float64(lat) > 1.05*float64(best[n]) {
					t.Errorf("%s: model's k=%d takes %v, more than 5%% over the best fixed form's %v", name, k, lat, best[n])
				}
				if d := float64(pred - lat); d > 0.1*float64(lat) || -d > 0.1*float64(lat) {
					t.Errorf("%s: model predicts %v for k=%d, simulated %v", name, pred, k, lat)
				}
			}
		}
	}
}

// TestModelChunksDeliverWholeBytes sends the same message whole and cut
// by the model and compares what arrives, byte for byte: MPC is lossless,
// and ZFP's cuts fall on whole blocks, so its chunks decode to the floats
// the whole message does. Contiguous and Subarray3D sends, codec workers
// 1, 2 and 8.
func TestModelChunksDeliverWholeBytes(t *testing.T) {
	face := dtype.Subarray3D{Dims: [3]int{130, 130, 130}, Sub: [3]int{128, 128, 128}, Start: [3]int{1, 1, 1}}
	layouts := []struct {
		name  string
		t     dtype.Type
		bytes int
	}{
		{"flat", nil, 8 << 20},
		{"subarray", face, 4 * 130 * 130 * 130},
	}
	for _, cc := range []chunkCase{chunkCases[0], chunkCases[2]} {
		for _, lay := range layouts {
			src := datasetBytes(t, cc.dataset, lay.bytes)
			for _, workers := range []int{1, 2, 8} {
				recv := func(chunk int) ([]byte, int) {
					cfg := cc.cfg
					cfg.CacheEntries, cfg.PipelineChunkBytes, cfg.Workers = -1, chunk, workers
					w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg})
					out := make([]byte, lay.bytes)
					// The first send sets the ratio estimate; the second is
					// the one the model cuts.
					for i := 0; i < 2; i++ {
						if _, err := w.Run(func(r *Rank) error {
							buf := &gpusim.Buffer{Data: src, Loc: gpusim.Device, Dev: r.Dev}
							if r.ID() == 0 {
								if lay.t == nil {
									return r.Send(1, 0, buf)
								}
								return r.SendTyped(1, 0, buf, lay.t)
							}
							dst := &gpusim.Buffer{Data: out, Loc: gpusim.Device, Dev: r.Dev}
							if lay.t == nil {
								return r.Recv(0, 0, dst)
							}
							return r.RecvTyped(0, 0, dst, lay.t)
						}); err != nil {
							t.Fatal(err)
						}
					}
					return out, w.Rank(0).Engine.PipeSnapshot().Chunks
				}
				name := fmt.Sprintf("%s/%s/workers=%d", cc.name, lay.name, workers)
				whole, _ := recv(-1)
				cut, chunks := recv(0)
				if chunks == 0 {
					t.Fatalf("%s: the model sent the message whole", name)
				}
				if !bytes.Equal(cut, whole) {
					t.Fatalf("%s: %d chunks deliver other bytes than the whole message", name, chunks)
				}
			}
		}
	}
}

// TestModelKeepsHalosWhole: a 360 KiB halo-sized ZFP send on Frontera
// Liquid is under two Threshold-sized chunks, so the model keeps it whole
// and the chunked tier never sees it.
func TestModelKeepsHalosWhole(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.FronteraLiquid(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}})
	data := datasetBytes(t, "msg_sppm", 360<<10)
	for i := 0; i < 2; i++ {
		oneWay(t, w, data, false)
	}
	if _, k, _ := oneWay(t, w, data, true); k != 1 {
		t.Fatalf("the model cuts a 360 KiB halo into %d chunks", k)
	}
	if ps := w.Rank(0).Engine.PipeSnapshot(); ps.Chunks != 0 {
		t.Fatalf("a 360 KiB halo went through the chunked tier: %+v", ps)
	}
}

// TestModelCutPassesTheDynamicGate: over IB EDR a 32 MiB msg_sp send
// (CR 1.11) loses to the uncompressed transfer when compressed whole but
// wins when the model cuts it. The model prices the uncompressed send
// beside every cut and picks the form once: the chunks of the cut are not
// gated again one by one — priced as whole messages of their own they
// would go uncompressed — so every chunk compresses. Cache off.
func TestModelCutPassesTheDynamicGate(t *testing.T) {
	data := datasetBytes(t, "msg_sp", 32<<20)
	world := func(chunk int) *World {
		return mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: core.Config{
			Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, CacheEntries: -1, PipelineChunkBytes: chunk}})
	}
	base, _, _ := oneWay(t, mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1}), data, false)
	if whole, _, _ := oneWay(t, world(-1), data, false); whole <= base {
		t.Fatalf("compressed whole %v, uncompressed %v: the test needs a message that loses whole", whole, base)
	}
	w := world(0)
	oneWay(t, w, data, false) // the ratio estimate sees the data
	e := w.Rank(0).Engine
	comps, chunks := e.Compressions, e.PipeSnapshot().Chunks
	lat, k, pred := oneWay(t, w, data, true)
	if k < 2 || e.Compressions-comps != k || e.PipeSnapshot().Chunks-chunks != k {
		t.Fatalf("cut into k=%d: %d compressions, %d chunks; want every chunk compressed",
			k, e.Compressions-comps, e.PipeSnapshot().Chunks-chunks)
	}
	if lat >= base || pred >= base {
		t.Fatalf("k=%d: %v (predicted %v), the uncompressed send took %v", k, lat, pred, base)
	}
}

// TestModelPricesTheSharedLink: the model prices the wire at the node's
// share of the link. On Frontera Liquid 2x4 AWP-ODC's 360 KiB ZFP rate-8
// typed X-face halo compresses over both PCIe and IB FDR; priced on a
// PCIe link of its own it would go uncompressed. On Longhorn 2x2 an 8 MiB
// MPC msg_sppm segment, priced whole as a collective step is, goes
// uncompressed over NVLink and compressed over IB EDR.
func TestModelPricesTheSharedLink(t *testing.T) {
	const ny, nz, fields = 320, 32, 9
	face := dtype.Subarray3D{Dims: [3]int{2, ny, fields * nz}, Sub: [3]int{1, ny, fields * nz}}
	halo := datasetBytes(t, "msg_sppm", 4*2*ny*fields*nz)
	w := mustWorld(t, Options{Cluster: hw.FronteraLiquid(), Nodes: 2, PPN: 4,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}})
	e := w.Rank(0).Engine
	src := &gpusim.Buffer{Data: halo, Loc: gpusim.Device, Dev: w.Rank(0).Dev}
	if k, _ := e.PredictForm(src, face, face.Size(), hw.FronteraLiquid().IntraNode.BandwidthGBps, true); k != 0 {
		t.Errorf("priced on a PCIe link of its own the halo takes form %d; the test needs one that loses there", k)
	}
	peers := []int{1, 4} // PCIe, IB FDR
	if _, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			for _, p := range peers {
				if k, pred := e.PredictForm(src, face, face.Size(), r.shareGBps(r.Node(), w.nodeOf(p)), true); k != 1 {
					t.Errorf("halo to rank %d: form %d (predicted %v), want whole and compressed", p, k, pred)
				}
				if err := r.SendTyped(p, 0, src, face); err != nil {
					return err
				}
			}
			return nil
		}
		if !slices.Contains(peers, r.ID()) {
			return nil
		}
		dst := &gpusim.Buffer{Data: make([]byte, len(halo)), Loc: gpusim.Device, Dev: r.Dev}
		return r.RecvTyped(0, 0, dst, face)
	}); err != nil {
		t.Fatal(err)
	}
	if e.Compressions != len(peers) || e.Bypasses != 0 {
		t.Errorf("halos: %d compressions, %d bypasses; want both compressed", e.Compressions, e.Bypasses)
	}

	w = mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1}})
	r := w.Rank(0)
	seg := &gpusim.Buffer{Data: datasetBytes(t, "msg_sppm", 8<<20), Loc: gpusim.Device, Dev: r.Dev}
	r.Engine.Compress(r.Clock, seg) // the ratio estimate sees the data
	for _, c := range []struct {
		peer int
		link string
		want int
	}{{1, "NVLink", 0}, {2, "IB EDR", 1}} {
		if k, pred := r.Engine.PredictForm(seg, nil, seg.Len(), r.shareGBps(r.Node(), w.nodeOf(c.peer)), false); k != c.want {
			t.Errorf("8 MiB segment over %s: form %d (predicted %v), want %d", c.link, k, pred, c.want)
		}
	}
}

// TestModelCutCompressesEveryChunk: the model picks a send's form once, and
// every chunk of a cut compresses. Its cut points fall on 128-byte
// boundaries and its last chunk reaches Threshold (TestChunkCandidatesReachThreshold),
// so no chunk is left below threshold or unaligned: over IB EDR, for MPC
// on msg_sppm and ZFP rate 8, flat sends of 16 MiB and 16 MiB + 4 B and a
// Subarray3D send, k chunks compress k times and bypass nothing. Cache
// off.
func TestModelCutCompressesEveryChunk(t *testing.T) {
	face := dtype.Subarray3D{Dims: [3]int{130, 130, 130}, Sub: [3]int{128, 128, 128}, Start: [3]int{1, 1, 1}}
	layouts := []struct {
		name  string
		t     dtype.Type
		bytes int
	}{
		{"flat 16M", nil, 16 << 20},
		{"flat 16M+4", nil, 16<<20 + 4},
		{"subarray", face, 4 * 130 * 130 * 130},
	}
	for _, cc := range []chunkCase{chunkCases[0], chunkCases[2]} {
		cfg := cc.cfg
		cfg.CacheEntries = -1
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg})
		for _, lay := range layouts {
			data := datasetBytes(t, cc.dataset, lay.bytes)
			n := lay.bytes
			if lay.t != nil {
				n = lay.t.Size()
			}
			send := func(predict bool) (k int) {
				if _, err := w.Run(func(r *Rank) error {
					buf := &gpusim.Buffer{Data: data, Loc: gpusim.Device, Dev: r.Dev}
					if r.ID() == 1 {
						dst := &gpusim.Buffer{Data: make([]byte, len(data)), Loc: gpusim.Device, Dev: r.Dev}
						if lay.t == nil {
							return r.Recv(0, 0, dst)
						}
						return r.RecvTyped(0, 0, dst, lay.t)
					}
					if predict {
						k, _ = r.Engine.PredictForm(buf, lay.t, n, r.shareGBps(r.Node(), w.nodeOf(1)), true)
					}
					if lay.t == nil {
						return r.Send(1, 0, buf)
					}
					return r.SendTyped(1, 0, buf, lay.t)
				}); err != nil {
					t.Fatal(err)
				}
				return k
			}
			send(false) // the ratio estimate sees the data
			e := w.Rank(0).Engine
			comps, bypasses, chunks := e.Compressions, e.Bypasses, e.PipeSnapshot().Chunks
			k := send(true)
			name := fmt.Sprintf("%s %s", cc.name, lay.name)
			if k < 2 {
				t.Fatalf("%s: the model keeps the send whole (form %d); the test needs a cut", name, k)
			}
			if got := e.PipeSnapshot().Chunks - chunks; got != k {
				t.Errorf("%s: form %d sent %d chunks", name, k, got)
			}
			if dc, db := e.Compressions-comps, e.Bypasses-bypasses; dc != k || db != 0 {
				t.Errorf("%s: %d chunks compressed %d times and bypassed %d times", name, k, dc, db)
			}
		}
	}
}

// pingPong is osu_latency over tracked buffers (the compress-once cache
// serves every repeat): the mean one-way time of iters round trips after
// warmup, per size, all sizes on w in order.
func pingPong(t *testing.T, w *World, data map[int][]byte, sizes []int, warmup, iters int) []simtime.Duration {
	t.Helper()
	var out []simtime.Duration
	for _, n := range sizes {
		var total simtime.Duration
		w.ResetClocks()
		if _, err := w.Run(func(r *Rank) error {
			buf := (&gpusim.Buffer{Data: data[n], Loc: gpusim.Device, Dev: r.Dev}).Track()
			scratch := (&gpusim.Buffer{Data: make([]byte, n), Loc: gpusim.Device, Dev: r.Dev}).Track()
			peer := 1 - r.ID()
			for it := 0; it < warmup+iters; it++ {
				start := r.Clock.Now()
				var err error
				if r.ID() == 0 {
					if err = r.Send(peer, 0, buf); err == nil {
						err = r.Recv(peer, 0, scratch)
					}
				} else if err = r.Recv(peer, 0, scratch); err == nil {
					err = r.Send(peer, 0, buf)
				}
				if err != nil {
					return err
				}
				if it >= warmup && r.ID() == 0 {
					total += r.Clock.Now().Sub(start) / 2
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		out = append(out, total/simtime.Duration(iters))
	}
	return out
}

// TestModelCutNoSlowerCached: with the compress-once cache on, ombrun's
// ping-pong (one warm-up, three measured round trips) is no slower cut by
// the model than sent whole, both for the 4M-32M sweep on one world and
// for a lone 16 MiB size, where the first send is whole (no ratio seen
// yet) and the cache then holds it whole.
func TestModelCutNoSlowerCached(t *testing.T) {
	sizes := []int{4 << 20, 8 << 20, 16 << 20, 32 << 20}
	data := map[int][]byte{}
	for _, n := range sizes {
		data[n] = datasetBytes(t, "msg_sppm", n)
	}
	world := func(chunk int) *World {
		return mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: core.Config{
			Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, PipelineChunkBytes: chunk}})
	}
	for _, run := range [][]int{sizes, {16 << 20}} {
		whole := pingPong(t, world(-1), data, run, 1, 3)
		model := pingPong(t, world(0), data, run, 1, 3)
		for i, n := range run {
			t.Logf("%dM of %v: whole %.2f us, model %.2f us", n>>20, len(run), whole[i].Microseconds(), model[i].Microseconds())
			if model[i] > whole[i] {
				t.Errorf("%d MiB (sweep of %d sizes): the model's cut takes %v, the whole message %v", n>>20, len(run), model[i], whole[i])
			}
		}
	}
}

// TestModelLeavesCollectivesWhole: by default only user point-to-point
// sends are cut. A 2x1 Bcast, Allgather, AllreduceSum and Alltoallv of
// 16 MiB per rank — sizes the model cuts between the same two ranks —
// send no chunk, and the model picks none of their forms above whole.
func TestModelLeavesCollectivesWhole(t *testing.T) {
	const n = 16 << 20
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: core.Config{
		Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, CacheEntries: -1}})
	data := datasetBytes(t, "msg_sppm", n)
	oneWay(t, w, data, false) // a ratio seen: the chooser would cut from here on
	if _, k, _ := oneWay(t, w, data, true); k < 2 {
		t.Fatalf("the model keeps a %d MiB point-to-point send whole; the test needs one it cuts", n>>20)
	}
	before := make([]core.PipelineStats, 2)
	picks := make([][]int, 2)
	for i := range before {
		before[i], picks[i] = w.Rank(i).Engine.PipeSnapshot(), w.Rank(i).Engine.ChunkPicks()
	}
	_, err := w.Run(func(r *Rank) error {
		dev := func(b []byte) *gpusim.Buffer { return &gpusim.Buffer{Data: b, Loc: gpusim.Device, Dev: r.Dev} }
		src, dst := dev(append([]byte(nil), data...)), dev(make([]byte, 2*n))
		if err := r.Bcast(0, src); err != nil {
			return err
		}
		if err := r.Allgather(src, dst); err != nil {
			return err
		}
		if err := r.AllreduceSum(src, dev(make([]byte, n))); err != nil {
			return err
		}
		counts, displs := []int{n / 2, n / 2}, []int{0, n / 2}
		return r.Alltoallv(src, counts, displs, dev(make([]byte, n)), counts, displs)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		e := w.Rank(i).Engine
		if ps := e.PipeSnapshot(); ps.Chunks != before[i].Chunks || ps.RelayChunks != before[i].RelayChunks {
			t.Errorf("rank %d: collectives sent chunks: %+v, before %+v", i, ps, before[i])
		}
		cuts := func(p []int) []int { return p[min(2, len(p)):] }
		if got := e.ChunkPicks(); !slices.Equal(cuts(got), cuts(picks[i])) {
			t.Errorf("rank %d: the model cut a collective's send: picks %v, before %v", i, got, picks[i])
		}
	}
}

// TestModelPricesRewrittenBuffersCold: a tracked buffer written before
// every send misses the compress-once cache every time, so from its second
// send on the chooser prices its compress kernel as it runs. With the cache
// on, those sends pick the k and take the simulated time they take with the
// cache off, for codec workers 1, 2 and 8 alike. Longhorn 2x1, MPC on
// msg_sppm and ZFP rate 8, one 4-32 MiB buffer per size, three sends each.
func TestModelPricesRewrittenBuffersCold(t *testing.T) {
	sizes := []int{4 << 20, 8 << 20, 16 << 20, 32 << 20}
	for _, cc := range []chunkCase{chunkCases[0], chunkCases[2]} {
		data := datasetBytes(t, cc.dataset, sizes[len(sizes)-1])
		sends := func(cacheEntries, workers int) []string {
			cfg := cc.cfg
			cfg.CacheEntries, cfg.Workers = cacheEntries, workers
			w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg})
			var out []string
			for _, n := range sizes {
				buf := (&gpusim.Buffer{Data: data[:n], Loc: gpusim.Device, Dev: w.Rank(0).Dev}).Track()
				dst := make([]byte, n)
				for i := 0; i < 3; i++ {
					buf.MarkDirty()
					var k int
					w.ResetClocks()
					times, err := w.Run(func(r *Rank) error {
						if r.ID() == 0 {
							k, _ = r.Engine.PredictForm(buf, nil, n, r.shareGBps(r.Node(), w.nodeOf(1)), true)
							return r.Send(1, 0, buf)
						}
						return r.Recv(0, 0, &gpusim.Buffer{Data: dst, Loc: gpusim.Device, Dev: r.Dev})
					})
					if err != nil {
						t.Fatal(err)
					}
					if i > 0 {
						out = append(out, fmt.Sprintf("%dM send %d: k=%d %d ns", n>>20, i+1, k, times[1]))
					}
				}
			}
			return out
		}
		uncached := sends(-1, 1)
		for _, workers := range []int{1, 2, 8} {
			if got := sends(0, workers); !slices.Equal(got, uncached) {
				t.Errorf("%s workers=%d: cached %q, uncached %q", cc.name, workers, got, uncached)
			}
		}
		t.Logf("%s: %q", cc.name, uncached)
	}
}
