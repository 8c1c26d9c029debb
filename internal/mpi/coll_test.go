package mpi

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

func runColl(t *testing.T, opt Options, fn func(r *Rank) error) []simtime.Time {
	t.Helper()
	w := mustWorld(t, opt)
	times, err := w.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	return times
}

func TestBarrier(t *testing.T) {
	for _, size := range []struct{ nodes, ppn int }{{1, 1}, {2, 2}, {3, 2}, {4, 4}} {
		runColl(t, Options{Cluster: hw.Longhorn(), Nodes: size.nodes, PPN: size.ppn}, func(r *Rank) error {
			// Skew the clocks, then barrier; afterwards all ranks
			// must have advanced past the maximum skew.
			r.Clock.Advance(simtime.Duration(r.ID()) * simtime.Millisecond)
			if err := r.Barrier(); err != nil {
				return err
			}
			minAfter := simtime.Duration(r.Size()-1) * simtime.Millisecond
			if r.Clock.Now() < simtime.Time(minAfter) {
				t.Errorf("rank %d finished barrier at %v before slowest rank's start", r.ID(), r.Clock.Now())
			}
			return nil
		})
	}
}

func TestBcastCorrectness(t *testing.T) {
	vals := datasets.Smooth(1<<19, 1, 1e-3) // 2 MB
	for _, root := range []int{0, 3} {
		for _, cfg := range []core.Config{
			{},
			{Mode: core.ModeOpt, Algorithm: core.AlgoMPC},
		} {
			runColl(t, Options{Cluster: hw.FronteraLiquid(), Nodes: 4, PPN: 2, Engine: cfg}, func(r *Rank) error {
				buf := emptyDevBuf(r, len(vals))
				if r.ID() == root {
					copy(buf.Data, core.FloatsToBytes(nil, vals))
				}
				if err := r.Bcast(root, buf); err != nil {
					return err
				}
				got := core.BytesToFloats(buf.Data)
				for i := range vals {
					if got[i] != vals[i] {
						t.Errorf("rank %d: bcast(root=%d) value %d wrong", r.ID(), root, i)
						return nil
					}
				}
				return nil
			})
		}
	}
}

func TestAllgatherCorrectness(t *testing.T) {
	const blkVals = 1 << 17 // 512 KB blocks
	for _, cfg := range []core.Config{
		{},
		{Mode: core.ModeOpt, Algorithm: core.AlgoMPC},
	} {
		runColl(t, Options{Cluster: hw.FronteraLiquid(), Nodes: 4, PPN: 2, Engine: cfg}, func(r *Rank) error {
			mine := datasets.Smooth(blkVals, uint64(r.ID()+1), 1e-3)
			send := devBuf(r, mine)
			recv := emptyDevBuf(r, blkVals*r.Size())
			if err := r.Allgather(send, recv); err != nil {
				return err
			}
			all := core.BytesToFloats(recv.Data)
			for rank := 0; rank < r.Size(); rank++ {
				want := datasets.Smooth(blkVals, uint64(rank+1), 1e-3)
				for i := 0; i < blkVals; i += blkVals / 7 {
					if all[rank*blkVals+i] != want[i] {
						t.Errorf("rank %d: allgather block %d value %d wrong", r.ID(), rank, i)
						return nil
					}
				}
			}
			return nil
		})
	}
}

func TestGatherScatter(t *testing.T) {
	const blkVals = 1024
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2}, func(r *Rank) error {
		// Gather: rank i contributes constant vector of value i.
		mine := make([]float32, blkVals)
		for i := range mine {
			mine[i] = float32(r.ID())
		}
		var gathered *gpusim.Buffer
		if r.ID() == 1 {
			gathered = emptyDevBuf(r, blkVals*r.Size())
		} else {
			gathered = emptyDevBuf(r, 0)
		}
		if err := r.Gather(1, devBuf(r, mine), gathered); err != nil {
			return err
		}
		if r.ID() == 1 {
			all := core.BytesToFloats(gathered.Data)
			for rank := 0; rank < r.Size(); rank++ {
				if all[rank*blkVals] != float32(rank) {
					t.Errorf("gather block %d wrong: %v", rank, all[rank*blkVals])
				}
			}
		}
		// Scatter back: rank 1 distributes blocks labeled by target.
		var src *gpusim.Buffer
		if r.ID() == 1 {
			payload := make([]float32, blkVals*r.Size())
			for rank := 0; rank < r.Size(); rank++ {
				for i := 0; i < blkVals; i++ {
					payload[rank*blkVals+i] = float32(10 + rank)
				}
			}
			src = devBuf(r, payload)
		} else {
			src = emptyDevBuf(r, 0)
		}
		dst := emptyDevBuf(r, blkVals)
		if err := r.Scatter(1, src, dst); err != nil {
			return err
		}
		got := core.BytesToFloats(dst.Data)
		if got[0] != float32(10+r.ID()) || got[blkVals-1] != float32(10+r.ID()) {
			t.Errorf("rank %d: scatter payload wrong: %v", r.ID(), got[0])
		}
		return nil
	})
}

func TestReduceAndAllreduceSum(t *testing.T) {
	const n = 4096
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2}, func(r *Rank) error {
		mine := make([]float32, n)
		for i := range mine {
			mine[i] = float32(r.ID() + 1)
		}
		want := float32(1 + 2 + 3 + 4)
		out := emptyDevBuf(r, n)
		if err := r.ReduceSum(0, devBuf(r, mine), out); err != nil {
			return err
		}
		if r.ID() == 0 {
			got := core.BytesToFloats(out.Data)
			if got[0] != want || got[n-1] != want {
				t.Errorf("reduce sum wrong: %v want %v", got[0], want)
			}
		}
		out2 := emptyDevBuf(r, n)
		if err := r.AllreduceSum(devBuf(r, mine), out2); err != nil {
			return err
		}
		got := core.BytesToFloats(out2.Data)
		if got[0] != want || got[n/2] != want {
			t.Errorf("rank %d: allreduce sum wrong: %v want %v", r.ID(), got[0], want)
		}
		return nil
	})
}

func TestAlltoallCorrectness(t *testing.T) {
	const blkVals = 2048
	for _, layout := range []struct{ nodes, ppn int }{{4, 1}, {3, 1}} { // pow2 and non-pow2
		runColl(t, Options{Cluster: hw.Longhorn(), Nodes: layout.nodes, PPN: layout.ppn}, func(r *Rank) error {
			size := r.Size()
			send := make([]float32, blkVals*size)
			for dst := 0; dst < size; dst++ {
				for i := 0; i < blkVals; i++ {
					send[dst*blkVals+i] = float32(100*r.ID() + dst)
				}
			}
			recv := emptyDevBuf(r, blkVals*size)
			if err := r.Alltoall(devBuf(r, send), recv); err != nil {
				return err
			}
			got := core.BytesToFloats(recv.Data)
			for src := 0; src < size; src++ {
				want := float32(100*src + r.ID())
				if got[src*blkVals] != want || got[src*blkVals+blkVals-1] != want {
					t.Errorf("rank %d: alltoall block from %d wrong: %v want %v (size %d)",
						r.ID(), src, got[src*blkVals], want, size)
					return nil
				}
			}
			return nil
		})
	}
}

func TestBcastCompressionSpeedsUpLargeMessages(t *testing.T) {
	vals := datasets.Smooth(2<<20, 9, 1e-4) // 8 MB, smooth -> compressible
	measure := func(cfg core.Config) simtime.Duration {
		w := mustWorld(t, Options{Cluster: hw.FronteraLiquid(), Nodes: 4, PPN: 2, Engine: cfg})
		times, err := w.Run(func(r *Rank) error {
			buf := devBuf(r, vals)
			return r.Bcast(0, buf)
		})
		if err != nil {
			t.Fatal(err)
		}
		return simtime.Duration(MaxTime(times))
	}
	base := measure(core.Config{Mode: core.ModeOff})
	comp := measure(core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8})
	if comp >= base {
		t.Fatalf("compressed bcast (%v) should beat baseline (%v)", comp, base)
	}
}

func TestWorldAccessors(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 3, PPN: 2})
	if w.Nodes() != 3 || w.PPN() != 2 || w.Cluster().Name != "Longhorn" {
		t.Fatalf("accessors wrong: %d %d %s", w.Nodes(), w.PPN(), w.Cluster().Name)
	}
	if w.Fabric() == nil {
		t.Fatal("fabric missing")
	}
	_, err := w.Run(func(r *Rank) error {
		if r.World() != w {
			t.Error("rank.World mismatch")
		}
		r.Clock.Advance(100)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	w.ResetClocks()
	for i := 0; i < w.Size(); i++ {
		if w.Rank(i).Clock.Now() != 0 {
			t.Fatal("ResetClocks failed")
		}
	}
}

func TestCollectiveValidation(t *testing.T) {
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 2}, func(r *Rank) error {
		if err := r.Bcast(9, emptyDevBuf(r, 4)); err == nil {
			t.Error("bcast bad root should fail")
		}
		if err := r.Allgather(emptyDevBuf(r, 4), emptyDevBuf(r, 4)); err == nil {
			t.Error("allgather size mismatch should fail")
		}
		odd := &gpusim.Buffer{Data: make([]byte, 5), Loc: gpusim.Device, Dev: r.Dev}
		if err := r.Alltoall(odd, odd); err == nil {
			t.Error("alltoall indivisible buffer should fail")
		}
		if err := r.Gather(-2, emptyDevBuf(r, 4), emptyDevBuf(r, 8)); err == nil {
			t.Error("gather bad root should fail")
		}
		if err := r.Scatter(99, emptyDevBuf(r, 8), emptyDevBuf(r, 4)); err == nil {
			t.Error("scatter bad root should fail")
		}
		if err := r.ReduceSum(42, emptyDevBuf(r, 4), emptyDevBuf(r, 4)); err == nil {
			t.Error("reduce bad root should fail")
		}
		return nil
	})
	// Size-mismatch at the root rank only.
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 2}, func(r *Rank) error {
		if r.ID() == 0 {
			if err := r.Gather(0, emptyDevBuf(r, 4), emptyDevBuf(r, 4)); err == nil {
				t.Error("gather recv size mismatch should fail at root")
			}
			// Unblock peer's send (internal tag namespace, so the
			// unexported variant).
			buf := emptyDevBuf(r, 4)
			return r.recv(1, internalTagBase-3 /* tagGather */, buf)
		}
		return r.Gather(0, emptyDevBuf(r, 4), nil)
	})
}

func TestAllreduceSingleRank(t *testing.T) {
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 1}, func(r *Rank) error {
		in := devBuf(r, []float32{3, 4})
		out := emptyDevBuf(r, 2)
		if err := r.AllreduceSum(in, out); err != nil {
			return err
		}
		got := core.BytesToFloats(out.Data)
		if got[0] != 3 || got[1] != 4 {
			t.Errorf("single-rank allreduce wrong: %v", got)
		}
		return nil
	})
}

func TestBcastScatterAllgather(t *testing.T) {
	vals := datasets.Smooth(1<<20, 41, 1e-3) // 4 MB
	for _, cfg := range []core.Config{
		{},
		{Mode: core.ModeOpt, Algorithm: core.AlgoMPC},
	} {
		runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Engine: cfg}, func(r *Rank) error {
			buf := emptyDevBuf(r, len(vals))
			if r.ID() == 2 {
				copy(buf.Data, core.FloatsToBytes(nil, vals))
			}
			if err := r.BcastScatterAllgather(2, buf); err != nil {
				return err
			}
			got := core.BytesToFloats(buf.Data)
			for i := 0; i < len(vals); i += 997 {
				if got[i] != vals[i] {
					t.Errorf("rank %d: value %d wrong", r.ID(), i)
					return nil
				}
			}
			return nil
		})
	}
	// Non-divisible sizes fall back to the binomial tree.
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 3, PPN: 1}, func(r *Rank) error {
		odd := &gpusim.Buffer{Data: make([]byte, 100), Loc: gpusim.Device, Dev: r.Dev}
		if r.ID() == 0 {
			for i := range odd.Data {
				odd.Data[i] = 7
			}
		}
		if err := r.BcastScatterAllgather(0, odd); err != nil {
			return err
		}
		if odd.Data[50] != 7 {
			t.Errorf("rank %d: fallback bcast wrong", r.ID())
		}
		return nil
	})
}

func TestScatterAllgatherBeatsBinomialUncompressed(t *testing.T) {
	// Without compression, the bandwidth-optimal algorithm must beat the
	// binomial tree for large messages at 8 ranks (2S/B vs 3S/B).
	vals := datasets.Smooth(4<<20, 43, 1e-3) // 16 MB
	measure := func(f func(r *Rank, buf *gpusim.Buffer) error) simtime.Duration {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 8, PPN: 1})
		times, err := w.Run(func(r *Rank) error {
			buf := devBuf(r, vals)
			return f(r, buf)
		})
		if err != nil {
			t.Fatal(err)
		}
		return simtime.Duration(MaxTime(times))
	}
	binomial := measure(func(r *Rank, buf *gpusim.Buffer) error { return r.Bcast(0, buf) })
	sag := measure(func(r *Rank, buf *gpusim.Buffer) error { return r.BcastScatterAllgather(0, buf) })
	if sag >= binomial {
		t.Fatalf("scatter-allgather (%v) should beat binomial (%v) at 16MB x 8 ranks", sag, binomial)
	}
}

func TestBcastHierarchical(t *testing.T) {
	vals := datasets.Smooth(1<<19, 53, 1e-3) // 2 MB
	for _, root := range []int{0, 5} {
		for _, cfg := range []core.Config{
			{},
			{Mode: core.ModeOpt, Algorithm: core.AlgoMPC},
		} {
			runColl(t, Options{Cluster: hw.Lassen(), Nodes: 3, PPN: 4, Engine: cfg}, func(r *Rank) error {
				buf := emptyDevBuf(r, len(vals))
				if r.ID() == root {
					copy(buf.Data, core.FloatsToBytes(nil, vals))
				}
				if err := r.BcastHierarchical(root, buf); err != nil {
					return err
				}
				got := core.BytesToFloats(buf.Data)
				for i := 0; i < len(vals); i += 1013 {
					if got[i] != vals[i] {
						t.Errorf("rank %d root %d: value %d wrong", r.ID(), root, i)
						return nil
					}
				}
				return nil
			})
		}
	}
	// Degenerate layouts fall back to the flat tree.
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 1}, func(r *Rank) error {
		buf := devBuf(r, []float32{float32(7)})
		return r.BcastHierarchical(0, buf)
	})
}

func TestRunPropagatesErrors(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 2})
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			return fmt.Errorf("rank 1 exploded")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("rank error should propagate: %v", err)
	}
	// Panics are recovered into errors.
	w2 := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 2})
	_, err = w2.Run(func(r *Rank) error {
		if r.ID() == 0 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic should become an error: %v", err)
	}
}

func TestRingAllreduceSum(t *testing.T) {
	const n = 1 << 16 // 256 KB, divisible by every size below
	for _, layout := range []struct{ nodes, ppn int }{{1, 1}, {2, 2}, {3, 1}, {4, 2}} {
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
				if err := allreduceBy(sched.Ring, true)(r, devBuf(r, mine), out); err != nil {
					return err
				}
				got := core.BytesToFloats(out.Data)
				for i := 0; i < n; i += 509 {
					if got[i] != want {
						t.Errorf("rank %d/%d: value %d = %v want %v", r.ID(), r.Size(), i, got[i], want)
						return nil
					}
				}
				return nil
			})
		}
	}
	// Indivisible sizes fall back to reduce+bcast.
	runColl(t, Options{Cluster: hw.Longhorn(), Nodes: 3, PPN: 1}, func(r *Rank) error {
		odd := devBuf(r, []float32{1, 2, 3, 4, 5})
		out := emptyDevBuf(r, 5)
		if err := allreduceBy(sched.Ring, true)(r, odd, out); err != nil {
			return err
		}
		if core.BytesToFloats(out.Data)[4] != 15 {
			t.Errorf("rank %d: fallback allreduce wrong", r.ID())
		}
		return nil
	})
}

func TestRingAllreduceBeatsTreeAtLargeSizes(t *testing.T) {
	const n = 4 << 20 // 16 MB
	measure := func(f func(r *Rank, in, out *gpusim.Buffer) error) simtime.Duration {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 8, PPN: 1})
		times, err := w.Run(func(r *Rank) error {
			in := emptyDevBuf(r, n)
			out := emptyDevBuf(r, n)
			return f(r, in, out)
		})
		if err != nil {
			t.Fatal(err)
		}
		return simtime.Duration(MaxTime(times))
	}
	tree := measure(func(r *Rank, in, out *gpusim.Buffer) error { return r.AllreduceSum(in, out) })
	ring := measure(func(r *Rank, in, out *gpusim.Buffer) error { return allreduceBy(sched.Ring, true)(r, in, out) })
	if ring >= tree {
		t.Fatalf("ring allreduce (%v) should beat reduce+bcast (%v) at 16MB x 8 ranks", ring, tree)
	}
}

// TestAllreduceChecksLengthsFirst: a recvBuf of the wrong length is an
// argument error every rank reports, under every schedule — auto without a
// tuner included — before anything moves, instead of a reduction that
// runs to the end and fails at the root alone while the other ranks see
// ErrPeerFailed.
func TestAllreduceChecksLengthsFirst(t *testing.T) {
	for _, algo := range sched.AllreduceAlgos() {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2, Allreduce: algo,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}})
		_, errs := w.RunAll(func(r *Rank) error {
			return r.AllreduceSum(emptyDevBuf(r, 64<<10), emptyDevBuf(r, 32<<10))
		})
		for id, err := range errs {
			if err == nil || errors.Is(err, ErrPeerFailed) || err.Error() != errs[0].Error() {
				t.Errorf("%v: rank %d returned %v; want rank 0's argument error %v on every rank", algo, id, err, errs[0])
			}
		}
		for node, ns := range w.Fabric().Stats() {
			if ns.Egress.Messages+ns.Ingress.Messages+ns.Intra.Messages+ns.ControlSent != 0 {
				t.Errorf("%v: node %d moved traffic before the length check: %+v", algo, node, ns)
			}
		}
	}
}

// refusingTuner fails the test whenever a collective consults it.
type refusingTuner struct{ t *testing.T }

func (rt refusingTuner) PickAllreduce(sched.TunePoint) sched.AllreduceAlgo {
	rt.t.Error("the tuner was asked to pick")
	return sched.AllreduceReduceBcast
}
func (rt refusingTuner) ObserveAllreduce(sched.TunePoint, sched.AllreduceAlgo, simtime.Duration) {
	rt.t.Error("the tuner was told of a latency")
}

// TestReductionsRefusePartialWords: an allreduce (every schedule, and auto
// with a tuner, which must not hear of it) or a reduce of a vector that is
// not whole float32 words fails on every rank with the same argument error,
// moves nothing and leaves recvBuf alone, with and without compression. The
// sum used to cover the whole word only and hand back the root's trailing
// bytes: [1.0f, 10, 20] and [1.0f, 11, 21] gave [2.0f, 10, 20] on both ranks.
func TestReductionsRefusePartialWords(t *testing.T) {
	type call struct {
		name string
		opt  Options
		run  func(r *Rank, send, recv *gpusim.Buffer) error
	}
	var calls []call
	for _, mode := range []core.Mode{core.ModeOff, core.ModeOpt} {
		opt := Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: core.Config{Mode: mode, Algorithm: core.AlgoMPC}}
		for _, algo := range sched.AllreduceAlgos() {
			o := opt
			if o.Allreduce = algo; algo == sched.AllreduceAuto {
				o.Tuner = refusingTuner{t}
			}
			calls = append(calls, call{fmt.Sprintf("%v allreduce %v", mode, algo), o, (*Rank).AllreduceSum})
		}
		calls = append(calls, call{fmt.Sprintf("%v reduce", mode), opt,
			func(r *Rank, send, recv *gpusim.Buffer) error { return r.ReduceSum(0, send, recv) }})
	}
	for _, c := range calls {
		w := mustWorld(t, c.opt)
		recvs := make([][]byte, w.Size())
		_, errs := w.RunAll(func(r *Rank) error {
			send := devBuf(r, []float32{1})
			send.Data = append(send.Data, byte(10+r.ID()), byte(20+r.ID()))
			recv := &gpusim.Buffer{Data: make([]byte, 6), Loc: gpusim.Device, Dev: r.Dev}
			recvs[r.ID()] = recv.Data
			return c.run(r, send, recv)
		})
		for id, err := range errs {
			if err == nil || errors.Is(err, ErrPeerFailed) || err.Error() != errs[0].Error() {
				t.Errorf("%s: rank %d returned %v; want rank 0's argument error %v on every rank", c.name, id, err, errs[0])
			}
			if !slices.Equal(recvs[id], make([]byte, 6)) {
				t.Errorf("%s: rank %d's recvBuf was written: %v", c.name, id, recvs[id])
			}
		}
		for node, ns := range w.Fabric().Stats() {
			if ns.Egress.Messages+ns.Ingress.Messages+ns.Intra.Messages+ns.ControlSent != 0 {
				t.Errorf("%s: node %d moved traffic: %+v", c.name, node, ns)
			}
		}
	}
}

// TestRootedCollectivesEveryRoot runs every rooted collective from every
// root of a 3x2 world with MPC on, and checks the data each rank ends with.
// The values are small integers, so the reduction's sums are exact in any
// order.
func TestRootedCollectivesEveryRoot(t *testing.T) {
	const blk = 1 << 10 // words per rank block; a broadcast moves six blocks
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 3, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 2 << 10}})
	vals := func(rank, n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(rank*1000 + i%97)
		}
		return v
	}
	check := func(r *Rank, what string, root int, got []byte, want []float32) {
		if g := core.BytesToFloats(got); !slices.Equal(g, want) {
			t.Errorf("%s from root %d: rank %d holds wrong data", what, root, r.ID())
		}
	}
	bcasts := []struct {
		name string
		call func(r *Rank, root int, buf *gpusim.Buffer) error
	}{{"bcast", (*Rank).Bcast}, {"bcast-hier", (*Rank).BcastHierarchical}, {"bcast-sag", (*Rank).BcastScatterAllgather}}
	_, err := w.Run(func(r *Rank) error {
		P := r.Size()
		for root := 0; root < P; root++ {
			for _, b := range bcasts {
				buf := emptyDevBuf(r, P*blk)
				if r.ID() == root {
					buf = devBuf(r, vals(root, P*blk))
				}
				if err := b.call(r, root, buf); err != nil {
					return err
				}
				check(r, b.name, root, buf.Data, vals(root, P*blk))
			}

			sum := emptyDevBuf(r, blk)
			if err := r.ReduceSum(root, devBuf(r, vals(r.ID(), blk)), sum); err != nil {
				return err
			}
			if r.ID() == root {
				want := make([]float32, blk)
				for p := 0; p < P; p++ {
					for i, v := range vals(p, blk) {
						want[i] += v
					}
				}
				check(r, "reduce", root, sum.Data, want)
			}

			all := emptyDevBuf(r, P*blk)
			if err := r.Gather(root, devBuf(r, vals(r.ID(), blk)), all); err != nil {
				return err
			}
			if r.ID() == root {
				for p := 0; p < P; p++ {
					check(r, "gather", root, all.Data[4*p*blk:4*(p+1)*blk], vals(p, blk))
				}
			}

			mine := emptyDevBuf(r, blk)
			if err := r.Scatter(root, devBuf(r, vals(root, P*blk)), mine); err != nil {
				return err
			}
			check(r, "scatter", root, mine.Data, vals(root, P*blk)[r.ID()*blk:(r.ID()+1)*blk])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
