package mpi

import (
	"bytes"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// allreduceBy runs gen's allreduce on the executor, as a call of the one
// named schedule with no tuner and no schedule cache tag: pipelined, or —
// pipelined false — its blocking oracle. Tests name a schedule directly
// through it; programs name one through sched.AllreduceAlgo.
func allreduceBy(gen sched.Generator, pipelined bool) func(r *Rank, send, recv *gpusim.Buffer) error {
	return func(r *Rank, send, recv *gpusim.Buffer) error {
		return r.run(allreduce(gen, pipelined, send, recv))
	}
}

// algoLayouts covers power-of-two and folded (non-power-of-two) world
// sizes, flat and hierarchical shapes.
var algoLayouts = []struct{ nodes, ppn int }{
	{1, 1}, {2, 1}, {3, 1}, {2, 2}, {3, 2}, {4, 2},
}

func checkConstantSum(t *testing.T, name string, coll func(r *Rank, in, out *gpusim.Buffer) error) {
	t.Helper()
	const n = 1 << 16 // 256 KB
	for _, layout := range algoLayouts {
		for _, cfg := range []core.Config{
			{},
			{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 16 << 10, PoolBufBytes: 1 << 20},
		} {
			runColl(t, Options{Cluster: hw.Longhorn(), Nodes: layout.nodes, PPN: layout.ppn, Engine: cfg}, func(r *Rank) error {
				mine := make([]float32, n)
				for i := range mine {
					mine[i] = float32(r.ID() + 1)
				}
				want := float32(r.Size() * (r.Size() + 1) / 2)
				out := emptyDevBuf(r, n)
				if err := coll(r, devBuf(r, mine), out); err != nil {
					return err
				}
				got := core.BytesToFloats(out.Data)
				for i := 0; i < n; i += 509 {
					if got[i] != want {
						t.Errorf("%s rank %d/%d (%dx%d): value %d = %v want %v",
							name, r.ID(), r.Size(), layout.nodes, layout.ppn, i, got[i], want)
						return nil
					}
				}
				return nil
			})
		}
	}
}

func TestRecursiveDoublingAllreduceSum(t *testing.T) {
	checkConstantSum(t, "rd", allreduceBy(sched.RecursiveDoubling, true))
	checkConstantSum(t, "rd-blocking", allreduceBy(sched.RecursiveDoubling, false))
}

func TestRabenseifnerAllreduceSum(t *testing.T) {
	checkConstantSum(t, "rab", allreduceBy(sched.Rabenseifner, true))
	checkConstantSum(t, "rab-blocking", allreduceBy(sched.Rabenseifner, false))
	// Fewer words than ranks: falls back to reduce+broadcast.
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 3, PPN: 2}, func(r *Rank) error {
		tiny := devBuf(r, []float32{1, 2, 3})
		out := emptyDevBuf(r, 3)
		if err := allreduceBy(sched.Rabenseifner, true)(r, tiny, out); err != nil {
			return err
		}
		if got := core.BytesToFloats(out.Data)[2]; got != 18 {
			t.Errorf("rank %d: rab fallback = %v want 18", r.ID(), got)
		}
		return nil
	})
}

func TestTwoLevelAllreduceSum(t *testing.T) {
	checkConstantSum(t, "two-level", allreduceBy(sched.TwoLevel, true))
}

func TestTwoLevelAllgather(t *testing.T) {
	const blkVals = 1 << 15 // 128 KB blocks
	// Includes degenerate shapes that must fall back to the flat ring.
	for _, layout := range []struct{ nodes, ppn int }{{1, 4}, {4, 1}, {2, 2}, {4, 2}} {
		for _, cfg := range []core.Config{
			{},
			{Mode: core.ModeOpt, Algorithm: core.AlgoMPC},
		} {
			runColl(t, Options{Cluster: hw.Longhorn(), Nodes: layout.nodes, PPN: layout.ppn, Engine: cfg}, func(r *Rank) error {
				mine := datasets.Smooth(blkVals, uint64(r.ID()+1), 1e-3)
				send := devBuf(r, mine)
				recv := emptyDevBuf(r, blkVals*r.Size())
				if err := r.AllgatherHierarchical(send, recv); err != nil {
					return err
				}
				all := core.BytesToFloats(recv.Data)
				for rank := 0; rank < r.Size(); rank++ {
					want := datasets.Smooth(blkVals, uint64(rank+1), 1e-3)
					for i := 0; i < blkVals; i += blkVals / 7 {
						if all[rank*blkVals+i] != want[i] {
							t.Errorf("rank %d (%dx%d): two-level allgather block %d value %d wrong",
								r.ID(), layout.nodes, layout.ppn, rank, i)
							return nil
						}
					}
				}
				return nil
			})
		}
	}
}

// TestAllreduceOraclesBitIdentical runs each pipelined schedule and its
// blocking oracle over rounding-sensitive data in one world: float32
// addition is commutative but not associative, so byte equality proves
// the fast path performs the oracle's additions in the oracle's order.
// The smallest reduce message (a 4x2 ring block, Rabenseifner's last
// half) is two chunks, so the chunked tier cuts every reduce step's
// message, and each pipelined run must have grown its rank's chunk count.
func TestAllreduceOraclesBitIdentical(t *testing.T) {
	const n = 1 << 18 // 1 MiB: compressed, cut into 64 KiB chunks
	pairs := []struct {
		name string
		gen  sched.Generator
	}{{"ring", sched.Ring}, {"rd", sched.RecursiveDoubling}, {"rab", sched.Rabenseifner}, {"two-level", sched.TwoLevel}}
	for _, layout := range []struct{ nodes, ppn int }{{4, 2}, {3, 2}} {
		for _, pair := range pairs {
			runColl(t, Options{Cluster: hw.Longhorn(), Nodes: layout.nodes, PPN: layout.ppn,
				Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
					Threshold: 64 << 10, PoolBufBytes: 4 << 20, PipelineChunkBytes: 64 << 10},
			}, func(r *Rank) error {
				vals := datasets.Smooth(n, uint64(r.ID()+7), 1e-2)
				in := devBuf(r, vals)
				fastOut := emptyDevBuf(r, n)
				slowOut := emptyDevBuf(r, n)
				chunks := r.Engine.PipeSnapshot().Chunks
				if err := allreduceBy(pair.gen, true)(r, in, fastOut); err != nil {
					return err
				}
				if r.Engine.PipeSnapshot().Chunks == chunks {
					t.Errorf("%s rank %d (%dx%d): the pipelined run sent no chunked message",
						pair.name, r.ID(), layout.nodes, layout.ppn)
				}
				if err := allreduceBy(pair.gen, false)(r, in, slowOut); err != nil {
					return err
				}
				if !bytes.Equal(fastOut.Data, slowOut.Data) {
					t.Errorf("%s rank %d (%dx%d): pipelined result differs from blocking oracle",
						pair.name, r.ID(), layout.nodes, layout.ppn)
				}
				return nil
			})
		}
	}
}

// TestAllreduceAlgoPin pins each schedule through Options.Allreduce and
// checks AllreduceSum dispatches to it (same bytes as the direct call).
func TestAllreduceAlgoPin(t *testing.T) {
	const n = 1 << 15
	direct := map[sched.AllreduceAlgo]func(r *Rank, in, out *gpusim.Buffer) error{
		sched.AllreduceReduceBcast:       allreduceBy(sched.ReduceBcast, true),
		sched.AllreduceRing:              allreduceBy(sched.Ring, true),
		sched.AllreduceRingBlocking:      allreduceBy(sched.Ring, false),
		sched.AllreduceRecursiveDoubling: allreduceBy(sched.RecursiveDoubling, true),
		sched.AllreduceRabenseifner:      allreduceBy(sched.Rabenseifner, true),
		sched.AllreduceTwoLevel:          allreduceBy(sched.TwoLevel, true),
	}
	for algo, call := range direct {
		runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2, Allreduce: algo}, func(r *Rank) error {
			vals := datasets.Smooth(n, uint64(r.ID()+3), 1e-2)
			in := devBuf(r, vals)
			viaDispatch := emptyDevBuf(r, n)
			viaDirect := emptyDevBuf(r, n)
			if err := r.AllreduceSum(in, viaDispatch); err != nil {
				return err
			}
			if err := call(r, in, viaDirect); err != nil {
				return err
			}
			if !bytes.Equal(viaDispatch.Data, viaDirect.Data) {
				t.Errorf("rank %d: pinned %v dispatch differs from direct call", r.ID(), algo)
			}
			return nil
		})
	}
}

// recordingTuner pins one algorithm and counts the dispatch callbacks —
// enough to verify AllreduceSum's tuner wiring without internal/tune.
type recordingTuner struct {
	algo     sched.AllreduceAlgo
	picks    atomic.Int64
	observes atomic.Int64
	mu       sync.Mutex
	points   map[sched.TunePoint]bool
}

func (rt *recordingTuner) PickAllreduce(p sched.TunePoint) sched.AllreduceAlgo {
	rt.picks.Add(1)
	rt.mu.Lock()
	if rt.points == nil {
		rt.points = make(map[sched.TunePoint]bool)
	}
	rt.points[p] = true
	rt.mu.Unlock()
	return rt.algo
}

func (rt *recordingTuner) ObserveAllreduce(p sched.TunePoint, algo sched.AllreduceAlgo, elapsed simtime.Duration) {
	if algo != rt.algo || elapsed <= 0 {
		return
	}
	rt.observes.Add(1)
}

func TestAllreduceTunerDispatch(t *testing.T) {
	const n = 1 << 15
	tuner := &recordingTuner{algo: sched.AllreduceRecursiveDoubling}
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2, Tuner: tuner}, func(r *Rank) error {
		vals := datasets.Smooth(n, uint64(r.ID()+3), 1e-2)
		in := devBuf(r, vals)
		tuned := emptyDevBuf(r, n)
		pinned := emptyDevBuf(r, n)
		if err := r.AllreduceSum(in, tuned); err != nil {
			return err
		}
		if err := allreduceBy(sched.RecursiveDoubling, true)(r, in, pinned); err != nil {
			return err
		}
		if !bytes.Equal(tuned.Data, pinned.Data) {
			t.Errorf("rank %d: tuner-dispatched result differs from picked algorithm", r.ID())
		}
		return nil
	})
	if got := tuner.picks.Load(); got != 4 {
		t.Errorf("picks = %d, want one per rank (4)", got)
	}
	if got := tuner.observes.Load(); got != 4 {
		t.Errorf("observes = %d, want one per rank (4)", got)
	}
	// All ranks must describe the same collective with the same point.
	if len(tuner.points) != 1 {
		t.Errorf("ranks disagreed on the sched.TunePoint: %v", tuner.points)
	}
}

// TestRingBlocksEdgeCases pins the ragged word partition the ring and
// Rabenseifner reduce-scatter schedules share: counts smaller than the
// rank count (trailing empty blocks), non-divisible counts (first rem
// blocks one word larger), and the single-rank world.
func TestRingBlocksEdgeCases(t *testing.T) {
	cases := []struct {
		n, size int
		want    []int
	}{
		{0, 1, []int{0, 0}},
		{4, 1, []int{0, 4}},
		{20, 1, []int{0, 20}},            // single-rank world: one block, all bytes
		{8, 4, []int{0, 4, 8, 8, 8}},     // fewer words than ranks: empty tail blocks
		{4, 3, []int{0, 4, 4, 4}},        // one word, three ranks
		{20, 3, []int{0, 8, 16, 20}},     // 5 words over 3: 2,2,1
		{28, 3, []int{0, 12, 20, 28}},    // 7 words over 3: 3,2,2
		{24, 4, []int{0, 8, 16, 20, 24}}, // 6 words over 4: 2,2,1,1
		{1 << 20, 8, nil},                // large divisible: checked structurally
	}
	for _, tc := range cases {
		offs := sched.RingBlocks(tc.n, tc.size)
		if len(offs) != tc.size+1 {
			t.Fatalf("sched.RingBlocks(%d,%d): %d offsets, want %d", tc.n, tc.size, len(offs), tc.size+1)
		}
		if offs[0] != 0 || offs[tc.size] != tc.n/4*4 {
			t.Errorf("sched.RingBlocks(%d,%d): range [%d,%d), want [0,%d)", tc.n, tc.size, offs[0], offs[tc.size], tc.n/4*4)
		}
		words, rem := tc.n/4/tc.size, tc.n/4%tc.size
		for i := 0; i < tc.size; i++ {
			blk := offs[i+1] - offs[i]
			if blk < 0 || blk%4 != 0 {
				t.Errorf("sched.RingBlocks(%d,%d): block %d spans %d bytes", tc.n, tc.size, i, blk)
			}
			want := 4 * words
			if i < rem {
				want += 4
			}
			if blk != want {
				t.Errorf("sched.RingBlocks(%d,%d): block %d = %d bytes, want %d", tc.n, tc.size, i, blk, want)
			}
		}
		if tc.want != nil {
			for i := range tc.want {
				if offs[i] != tc.want[i] {
					t.Errorf("sched.RingBlocks(%d,%d) = %v, want %v", tc.n, tc.size, offs, tc.want)
					break
				}
			}
		}
	}
}

// algoSoakWorld runs the given collectives over compressible data on one
// world layout and returns the makespan plus a CRC per rank. It fails the
// test if any rank's engine recorded a pool fallback: the soak layouts
// are chosen so the staging pool never exhausts (a chunked reduce
// message's credit window holds its draw to the receiver's staging
// slots), because which rank a racing fallback lands on is wall-clock
// dependent and would move the makespan between runs.
func algoSoakWorld(t *testing.T, workers, nodes, ppn int, colls ...func(r *Rank, in, out *gpusim.Buffer) error) (simtime.Time, []uint32) {
	t.Helper()
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 64 << 10, Workers: workers,
			PipelineChunkBytes: 128 << 10},
	})
	crcs := make([]uint32, w.Size())
	times, err := w.Run(func(r *Rank) error {
		const n = 1 << 18 // 1 MB
		vals := datasets.Smooth(n, uint64(r.ID()+11), 1e-2)
		in := devBuf(r, vals)
		h := crc32.NewIEEE()
		for _, coll := range colls {
			out := emptyDevBuf(r, n)
			if err := coll(r, in, out); err != nil {
				return err
			}
			h.Write(out.Data)
		}
		crcs[r.ID()] = h.Sum32()
		return nil
	})
	if err != nil {
		t.Fatalf("workers=%d: algo soak failed: %v", workers, err)
	}
	for rk := 0; rk < w.Size(); rk++ {
		if fb := w.Rank(rk).Engine.PoolFallbacks; fb != 0 {
			t.Errorf("workers=%d: rank %d saw %d pool fallbacks; soak must stay under the pool budget", workers, rk, fb)
		}
	}
	return MaxTime(times), crcs
}

// algoSoak replays the new schedules with the given codec worker count
// and returns the combined makespan plus per-rank CRCs. Each schedule
// runs on a layout inside the fabric's timing-determinism envelope
// (DESIGN.md's determinism boundary): recursive doubling and
// Rabenseifner exchange pairwise, so they soak on a flat 6x1 world
// where every rank owns its node's full-duplex egress and ingress
// adapters; the two-level schedule keeps intra-node links single-
// occupancy by construction, so it soaks on the hierarchical 3x2 world
// it exists for. (On layouts where ragged compressed transfers share
// an adapter calendar — e.g. pairwise intra-node exchanges — booking is
// arrival-order sensitive and only payloads, not makespans, are
// guaranteed; the value-exact correctness tests above pin those.)
func algoSoak(t *testing.T, workers int) (simtime.Time, []uint32) {
	t.Helper()
	flatTime, flatCRCs := algoSoakWorld(t, workers, 6, 1,
		allreduceBy(sched.RecursiveDoubling, true), allreduceBy(sched.Rabenseifner, true))
	hierTime, hierCRCs := algoSoakWorld(t, workers, 3, 2, allreduceBy(sched.TwoLevel, true))
	return flatTime.Add(simtime.Duration(hierTime)), append(flatCRCs, hierCRCs...)
}

// TestAlgoWorkerCountDeterminism extends the worker-count guarantee to
// the new schedules: payloads and makespans are identical for codec pool
// sizes 1, 2, and 8.
func TestAlgoWorkerCountDeterminism(t *testing.T) {
	refTime, refCRCs := algoSoak(t, 1)
	for _, workers := range []int{2, 8} {
		tm, crcs := algoSoak(t, workers)
		if tm != refTime {
			t.Errorf("workers=%d: makespan %v differs from workers=1 %v", workers, tm, refTime)
		}
		for i := range crcs {
			if crcs[i] != refCRCs[i] {
				t.Errorf("workers=%d: rank %d payload CRC differs", workers, i)
			}
		}
	}
}
