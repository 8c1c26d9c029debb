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
				k, pred = r.Engine.PipelineChunks(buf, nil, len(data), r.linkGBps(1))
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

// TestModelChunkingNearBest holds the chooser to the fixed chunk sizes it
// replaces: with the compress-once cache off (every send pays its
// kernels), the model's cut of a 2x1 send lands within 5 % of the best of
// {whole, 8M, 4M, 2M, 1M}, and the time it predicts for that cut within
// 10 % of the simulated one. Each size sends a prefix of one 32 MiB
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
			for _, chunk := range fixed {
				w := world(chunk)
				for _, n := range sizes {
					if chunk > 0 && n < 2*chunk {
						continue // sent whole, as the -1 world measured
					}
					if lat, _, _ := oneWay(t, w, data[n], false); best[n] == 0 || lat < best[n] {
						best[n] = lat
					}
				}
			}
			w := world(0)
			for _, n := range sizes {
				oneWay(t, w, data[n], false) // the ratio estimate sees this size's data
				lat, k, pred := oneWay(t, w, data[n], true)
				name := fmt.Sprintf("%s %s %dM", cl.Name, cc.name, n>>20)
				t.Logf("%s: k=%d model %.2f us (predicted %.2f), best fixed %.2f us",
					name, k, lat.Microseconds(), pred.Microseconds(), best[n].Microseconds())
				if float64(lat) > 1.05*float64(best[n]) {
					t.Errorf("%s: model's k=%d takes %v, more than 5%% over the best fixed cut's %v", name, k, lat, best[n])
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
// (CR 1.11) loses when compressed whole but wins when the model cuts it.
// The Dynamic gate prices each chunk at the send's k, so it lets the cut
// compress; priced as whole messages of their own, the chunks would go
// uncompressed. Cache off.
func TestModelCutPassesTheDynamicGate(t *testing.T) {
	cfg := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, Dynamic: true, CacheEntries: -1}
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg})
	data := datasetBytes(t, "msg_sp", 32<<20)
	base, _, _ := oneWay(t, w, data, false) // gated whole: the uncompressed transfer
	if got := w.Rank(0).Engine.Compressions; got != 0 {
		t.Fatalf("the whole message passed the gate (%d compressions)", got)
	}
	lat, k, pred := oneWay(t, w, data, true)
	e := w.Rank(0).Engine
	if k < 2 || e.Compressions != k || e.PipeSnapshot().Chunks != k {
		t.Fatalf("cut into k=%d: %d compressions, %d chunks; want every chunk compressed", k, e.Compressions, e.PipeSnapshot().Chunks)
	}
	if lat >= base || pred >= base {
		t.Fatalf("k=%d: %v (predicted %v), the uncompressed send took %v", k, lat, pred, base)
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
// send no chunk and ask the chooser nothing.
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
		if got := e.ChunkPicks(); !slices.Equal(got, picks[i]) {
			t.Errorf("rank %d: collectives asked the chooser: picks %v, before %v", i, got, picks[i])
		}
	}
}
