package mpi

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/dtype"
	"mpicomp/internal/faults"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
	"mpicomp/internal/trace"
)

// streamSpan is one reservation of a rank's GPU streams, as the device
// forwards it to the tracer.
type streamSpan struct {
	stream, blocks int
	start, end     simtime.Time
}

// auditStreams checks a traced run's GPU stream queue rank by rank and
// returns the first violations it finds: resident blocks above the
// device's SMs at some instant; a decode launched before as many payloads
// had landed on the rank as it has launched decodes (the k-th decode
// needs the k-th landing); a kernel still running when the call that
// launched it returned (marks[r] holds rank r's clock after each call).
// A decode is a "Decompression Kernel" span that starts where the rank's
// d_off take and memset ("Memory Allocation") end.
func auditStreams(events []trace.Event, sms int, marks [][]simtime.Time) []string {
	ranks := len(marks)
	streams := make([][]streamSpan, ranks)
	landings := make([][]simtime.Time, ranks)
	allocEnds := make([]map[simtime.Time]bool, ranks)
	decodes := make([][]simtime.Time, ranks)
	for r := range allocEnds {
		allocEnds[r] = map[simtime.Time]bool{}
	}
	for _, e := range events {
		var r, s, b int
		switch {
		case strings.HasPrefix(e.Track, "net "):
			if _, err := fmt.Sscanf(e.Track, "net %d->%d", &s, &r); err == nil {
				landings[r] = append(landings[r], e.End)
			}
		case strings.Contains(e.Track, " / stream "):
			if _, err := fmt.Sscanf(e.Track+" "+e.Name, "rank %d / stream %d %d blocks", &r, &s, &b); err == nil {
				streams[r] = append(streams[r], streamSpan{s, b, e.Start, e.End})
			}
		default:
			if _, err := fmt.Sscanf(e.Track, "rank %d", &r); err != nil {
				continue
			}
			switch e.Name {
			case core.PhaseMemAlloc.String():
				allocEnds[r][e.End] = true
			case core.PhaseDecompressKernel.String():
				decodes[r] = append(decodes[r], e.Start)
			}
		}
	}
	var bad []string
	for r := 0; r < ranks; r++ {
		// Resident blocks: a sweep over the reservations' edges, ends first
		// at a shared instant.
		type edge struct {
			at     simtime.Time
			blocks int
		}
		var edges []edge
		for _, sp := range streams[r] {
			if sp.end > sp.start {
				edges = append(edges, edge{sp.start, sp.blocks}, edge{sp.end, -sp.blocks})
			}
		}
		slices.SortFunc(edges, func(a, b edge) int {
			if a.at != b.at {
				return int(a.at - b.at)
			}
			return a.blocks - b.blocks
		})
		resident := 0
		for _, e := range edges {
			if resident += e.blocks; resident > sms {
				bad = append(bad, fmt.Sprintf("rank %d: %d blocks resident at %v, the device has %d SMs", r, resident, e.at, sms))
				break
			}
		}
		slices.Sort(landings[r])
		var starts []simtime.Time
		for _, d := range decodes[r] {
			if allocEnds[r][d] {
				starts = append(starts, d)
			}
		}
		slices.Sort(starts)
		for k, d := range starts {
			if k >= len(landings[r]) || landings[r][k] > d {
				bad = append(bad, fmt.Sprintf("rank %d: decode %d launched at %v, before the rank's payload %d landed", r, k, d, k))
				break
			}
		}
		for _, sp := range streams[r] {
			if i := slices.IndexFunc(marks[r], func(m simtime.Time) bool { return sp.start < m && m < sp.end }); i >= 0 {
				bad = append(bad, fmt.Sprintf("rank %d: a %d-block kernel on stream %d runs [%v, %v], past call %d's return at %v",
					r, sp.blocks, sp.stream, sp.start, sp.end, i, marks[r][i]))
				break
			}
		}
	}
	return bad
}

// auditRun runs each rank's calls on w (traced by tr) and audits the
// streams; calls are the rank's collective calls in order.
func auditRun(t *testing.T, name string, w *World, tr *trace.Collector, calls func(r *Rank) []func() error) {
	t.Helper()
	marks := make([][]simtime.Time, w.Size())
	if _, err := w.Run(func(r *Rank) error {
		for _, call := range calls(r) {
			if err := call(); err != nil {
				return err
			}
			marks[r.ID()] = append(marks[r.ID()], r.Clock.Now())
		}
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	events := tr.Events()
	if !slices.ContainsFunc(events, func(e trace.Event) bool { return strings.Contains(e.Track, " / stream ") }) {
		t.Fatalf("%s: the trace holds no stream reservation", name)
	}
	for _, v := range auditStreams(events, w.Rank(0).Dev.Spec.SMs, marks) {
		t.Errorf("%s: %s", name, v)
	}
}

// TestStreamAudit holds the relays' queued decodes to the simulated GPU:
// on the coll_mix shape at smoke scale (4x2 Longhorn MPC: Bcast,
// Allgather and AllreduceSum under each schedule), on the transport
// golden's relay cells and on a ring allreduce whose relayed blocks
// straddle a partition-count boundary (1 MiB decodes over two streams,
// the others over one), on a Gather's root and on a typed halo Waitall
// (decodes in landing order), no instant holds more resident blocks than the
// device has SMs, no decode starts before its payload landed, and no call
// returns while a kernel it launched still runs. Returning from a relay
// without its sync, or queueing decodes of different partition counts
// without waiting, fails it.
func TestStreamAudit(t *testing.T) {
	mpcOpt := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1}
	for _, algo := range []sched.AllreduceAlgo{sched.AllreduceRing, sched.AllreduceRecursiveDoubling, sched.AllreduceRabenseifner, sched.AllreduceTwoLevel} {
		tr := trace.New()
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Engine: mpcOpt, Tracer: tr, Allreduce: algo})
		const words = 256 << 10 // 1 MiB a rank
		auditRun(t, fmt.Sprintf("coll_mix/%v", algo), w, tr, func(r *Rank) []func() error {
			send := goldenPayload(r, 1, words).Track()
			bc, ag, ar := emptyDevBuf(r, words), emptyDevBuf(r, words*r.Size()), emptyDevBuf(r, words)
			root := bc
			if r.ID() == 0 {
				root = send
			}
			var calls []func() error
			for range 2 {
				calls = append(calls,
					func() error { return r.Bcast(0, root) },
					func() error { return r.Allgather(send, ag) },
					func() error { return r.AllreduceSum(send, ar) })
			}
			return calls
		})
	}
	relays := []string{"bcast", "bcast-hier", "bcast-sag", "allgather", "allgather-hier", "ring-allreduce"}
	for _, lay := range []struct{ nodes, ppn int }{{4, 1}, {4, 2}} {
		for _, chunk := range []int{-1, 0, goldenCollChunk} {
			for _, op := range goldenCollectives() {
				if !slices.Contains(relays, op.name) {
					continue
				}
				tr := trace.New()
				w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: lay.nodes, PPN: lay.ppn, Tracer: tr, Engine: core.Config{
					Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 4 << 10, PipelineChunkBytes: chunk}})
				auditRun(t, fmt.Sprintf("coll/%dx%d/%s/chunk=%d", lay.nodes, lay.ppn, op.name, chunk), w, tr, func(r *Rank) []func() error {
					run, _ := op.setup(r, goldenCollWords)
					return []func() error{run, run}
				})
			}
		}
	}
	// Waits on several receives, whose decodes follow the landings: the
	// root of an MPC Gather of 1 MiB blocks on 4x2, and an AWP-ODC-shaped
	// ZFP halo exchange on a 2x2 torus, each rank listing its four typed
	// ghost-face receives before its four face sends in one Waitall.
	tr := trace.New()
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Engine: mpcOpt, Tracer: tr})
	auditRun(t, "gather/4x2", w, tr, func(r *Rank) []func() error {
		send, recv := goldenPayload(r, 5, 256<<10), emptyDevBuf(r, (256<<10)*r.Size())
		gather := func() error { return r.Gather(0, send, recv) }
		return []func() error{gather, gather}
	})
	tr = trace.New()
	w = mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 1, Tracer: tr,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8, Threshold: 4 << 10, PipelineChunkBytes: -1}})
	auditRun(t, "halo/2x2-torus/zfp", w, tr, func(r *Rank) []func() error {
		grid := goldenPayload(r, 6, 68*68*130)
		face := func(x, y int, alongX bool) dtype.Subarray3D {
			if alongX {
				return dtype.Subarray3D{Dims: [3]int{68, 68, 130}, Sub: [3]int{2, 64, 128}, Start: [3]int{x, y, 1}}
			}
			return dtype.Subarray3D{Dims: [3]int{68, 68, 130}, Sub: [3]int{64, 2, 128}, Start: [3]int{x, y, 1}}
		}
		// Directions x+, x-, y+, y-: the face sent that way, the ghost face
		// filled from that side, and the neighbor there.
		sendFace := []dtype.Subarray3D{face(64, 2, true), face(2, 2, true), face(2, 64, false), face(2, 2, false)}
		ghost := []dtype.Subarray3D{face(66, 2, true), face(0, 2, true), face(2, 66, false), face(2, 0, false)}
		me := r.ID()
		nbr := []int{me ^ 1, me ^ 1, me ^ 2, me ^ 2}
		exchange := func() error {
			var reqs []*Request
			for d := range 4 {
				req, err := r.IrecvTyped(nbr[d], d^1, grid, ghost[d])
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
			}
			for d := range 4 {
				req, err := r.IsendTyped(nbr[d], d, grid, sendFace[d])
				if err != nil {
					return err
				}
				reqs = append(reqs, req)
			}
			return r.Waitall(reqs...)
		}
		return []func() error{exchange, exchange}
	})
	// 4 ranks of 262143 words and one word over: block 0 is 1 MiB (two
	// partitions), the others 4 bytes short (one).
	tr = trace.New()
	w = mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 1, Tracer: tr,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, PipelineChunkBytes: -1}})
	const mixed = 4*262143 + 1
	auditRun(t, "mixed-partitions/ring-allreduce", w, tr, func(r *Rank) []func() error {
		send, recv := goldenPayload(r, 1, mixed), emptyDevBuf(r, mixed)
		ring := allreduceBy(sched.Ring, true)
		return []func() error{func() error { return ring(r, send, recv) }, func() error { return ring(r, send, recv) }}
	})
}

// TestRelayStagingStaysPooled: a relaying rank holds a staging slot and a
// d_off slot for every decode it has queued, so a ring of P ranks could
// hold P-1 of each — past the pool's eight slots, the rank syncs the
// decodes in so far before its next receive. On the MPC Allgather at
// 1 MiB a rank on 4x2, 4x4 and 8x2 (15 relayed blocks a rank on the
// last two) and at 4 MiB on 4x2, every block compressed, no send may fall
// back to uncompressed for want of a slot, both pools must be whole after
// each call, and the second call may add no device allocation to the
// first's.
func TestRelayStagingStaysPooled(t *testing.T) {
	cells := []struct{ nodes, ppn, words int }{
		{4, 2, 256 << 10}, {4, 4, 256 << 10}, {8, 2, 256 << 10}, {4, 2, 1 << 20},
	}
	for _, c := range cells {
		name := fmt.Sprintf("%dx%d/%dMiB", c.nodes, c.ppn, c.words>>18)
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: c.nodes, PPN: c.ppn,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, PipelineChunkBytes: -1}})
		if _, err := w.Run(func(r *Rank) error {
			send, all := goldenPayload(r, 3, c.words), emptyDevBuf(r, c.words*r.Size())
			mallocs := 0
			for call := range 2 {
				if err := r.Allgather(send, all); err != nil {
					return err
				}
				var bad []string
				if n := r.Engine.PoolFallbacks; n != 0 {
					bad = append(bad, fmt.Sprintf("%d pool fallbacks", n))
				}
				if free, total := r.Engine.PoolBalance(); free != total {
					bad = append(bad, fmt.Sprintf("staging pool %d/%d free", free, total))
				}
				if free, total := r.Engine.OffPoolBalance(); free != total {
					bad = append(bad, fmt.Sprintf("d_off pool %d/%d free", free, total))
				}
				if call == 0 {
					mallocs = r.Dev.MallocCount
				} else if n := r.Dev.MallocCount - mallocs; n != 0 {
					bad = append(bad, fmt.Sprintf("%d device allocations in the second call", n))
				}
				if bad != nil {
					return fmt.Errorf("%s rank %d after call %d: %s", name, r.ID(), call, strings.Join(bad, ", "))
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelfHealRingReleasesQueuedDecodes: a crash can abort an Allgather
// ring whose ranks hold queued decodes, each with a staging and a d_off
// slot. The crash onset sweeps the first calls; in some runs the fated
// rank must fail holding queued decodes, and after every run both pools of
// every rank must be exactly whole — a slot not handed back leaves one
// short, a slot handed back twice one over (the survivors' drainAborted
// and the fated rank's reapInflight sync through releaseRawStaged).
func TestSelfHealRingReleasesQueuedDecodes(t *testing.T) {
	const nodes, words = 4, 16 << 10
	cfg := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, PipelineChunkBytes: -1, Threshold: 4 << 10}
	aborts := 0
	for window := 200 * simtime.Microsecond; window <= 2*simtime.Millisecond; window += 100 * simtime.Microsecond {
		fcfg := faults.Config{CrashRate: 0.25, FailWindow: window}
		fcfg.Seed = findHealSeed(t, nodes, fcfg, 1)
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: 1, Engine: cfg, Faults: &fcfg,
			Health: HealthPolicy{SelfHeal: true, Deadline: 100 * simtime.Microsecond}})
		doomed := w.HealthStats().Doomed[0]
		held := 0
		_, errs := w.RunAll(func(r *Rank) error {
			send, all := goldenPayload(r, 3, words), emptyDevBuf(r, words*r.Size())
			for range 8 {
				if err := r.Allgather(send, all); err != nil {
					if r.ID() == doomed {
						held = r.Engine.HeldRecvs()
					}
					return err
				}
			}
			return nil
		})
		assertNoRankGoroutines(t)
		for id, err := range errs {
			if id == doomed && !errors.Is(err, ErrRankCrashed) || id != doomed && err != nil {
				t.Fatalf("window %v: rank %d (fated %d): %v", window, id, doomed, err)
			}
		}
		if held > 0 {
			aborts++
		}
		for id := 0; id < w.Size(); id++ {
			e := w.Rank(id).Engine
			sf, st := e.PoolBalance()
			of, ot := e.OffPoolBalance()
			if sf != st || of != ot {
				t.Errorf("window %v: rank %d staging pool %d/%d free, d_off pool %d/%d", window, id, sf, st, of, ot)
			}
		}
	}
	if aborts == 0 {
		t.Error("no crash aborted a ring holding queued decodes: the sweep misses what it guards")
	}
}

// TestFabricDivergence is the divergence detector (ROADMAP item 4a): it
// replays the cells known to book the fabric in host order — the 2x2
// Lassen chunk soak with every chunk uncompressed, and coll_mix's Mode-off
// Allgather + AllreduceSum on 4x2 — ten times each, GOMAXPROCS cycling
// 1/2/4, and compares every run's fabric bookings (the tracer's net spans)
// with the first run's. It reports how many runs diverged and the first
// booking that differs; it fails nothing.
func TestFabricDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays each cell ten times")
	}
	cells := []struct {
		name string
		run  func(tr *trace.Collector)
	}{
		{"2x2-lassen-uncompressed-chunks", func(tr *trace.Collector) {
			w := mustWorld(t, Options{Cluster: hw.Lassen(), Nodes: 2, PPN: 2, Tracer: tr,
				Engine: core.Config{Mode: core.ModeOff, PipelineChunkBytes: 128 << 10}})
			if _, err := w.Run(func(r *Rank) error {
				const words = 1 << 18
				peer := (r.ID() + 2) % r.Size()
				recv, bc, sum := emptyDevBuf(r, words), emptyDevBuf(r, words), emptyDevBuf(r, words)
				if err := r.Sendrecv(peer, 1, goldenPayload(r, 1, words), peer, 1, recv); err != nil {
					return err
				}
				if err := r.Bcast(0, bc); err != nil {
					return err
				}
				return allreduceBy(sched.Ring, true)(r, recv, sum)
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{"coll_mix-mode-off", func(tr *trace.Collector) {
			w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Tracer: tr,
				Engine: core.Config{Mode: core.ModeOff}, Allreduce: sched.AllreduceRing})
			if _, err := w.Run(func(r *Rank) error {
				const words = 256 << 10
				send := goldenPayload(r, 1, words)
				if err := r.Allgather(send, emptyDevBuf(r, words*r.Size())); err != nil {
					return err
				}
				return r.AllreduceSum(send, emptyDevBuf(r, words))
			}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// bookings lists a run's fabric bookings in (start, link, name, end)
	// order, so the first that differs is the earliest in simulated time.
	bookings := func(tr *trace.Collector) []string {
		events := slices.DeleteFunc(tr.Events(), func(e trace.Event) bool { return !strings.HasPrefix(e.Track, "net ") })
		slices.SortFunc(events, func(a, b trace.Event) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), strings.Compare(a.Track, b.Track), strings.Compare(a.Name, b.Name), cmp.Compare(a.End, b.End))
		})
		out := make([]string, len(events))
		for i, e := range events {
			out[i] = fmt.Sprintf("%s %s [%v, %v]", e.Track, e.Name, e.Start, e.End)
		}
		return out
	}
	for _, c := range cells {
		var ref []string
		diverged, first := 0, ""
		for i := range 10 {
			procs := []int{1, 2, 4}[i%3]
			prev := runtime.GOMAXPROCS(procs)
			tr := trace.New()
			c.run(tr)
			runtime.GOMAXPROCS(prev)
			got := bookings(tr)
			if i == 0 {
				ref = got
				continue
			}
			if k := firstDiff(ref, got); k >= 0 {
				diverged++
				if first == "" {
					first = fmt.Sprintf("run %d (GOMAXPROCS %d), booking %d: %s, first run: %s", i, procs, k, at(got, k), at(ref, k))
				}
			}
		}
		t.Logf("%s: %d of 9 replays diverged from the first run's %d fabric bookings", c.name, diverged, len(ref))
		if first != "" {
			t.Logf("%s: first divergence: %s", c.name, first)
		}
	}
}

// firstDiff is the first index where a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

// at is s[i], or "none" past its end.
func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "none"
}
