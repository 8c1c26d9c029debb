package mpi

import (
	"errors"
	"math"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpc"
	"mpicomp/internal/simtime"
	"mpicomp/internal/zfp"
)

func mustWorld(t testing.TB, opt Options) *World {
	t.Helper()
	w, err := NewWorld(opt)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestNewWorldRejectsCodecParams: a control parameter the selected codec
// rejects fails NewWorld, not a rank at its first eligible message. Zero
// keeps the codec's default, and the codec not selected is not asked.
func TestNewWorldRejectsCodecParams(t *testing.T) {
	for _, c := range []struct {
		cfg  core.Config
		want error
	}{
		{core.Config{Algorithm: core.AlgoZFP, ZFPRate: 40}, zfp.ErrBadRate},
		{core.Config{Algorithm: core.AlgoZFP, ZFPRate: 2}, zfp.ErrBadRate},
		{core.Config{Algorithm: core.AlgoMPC, MPCDim: -2}, mpc.ErrBadDim},
		{core.Config{Algorithm: core.AlgoMPC, MPCDim: 33}, mpc.ErrBadDim},
		{core.Config{Algorithm: core.AlgoZFP}, nil},
		{core.Config{Algorithm: core.AlgoMPC, MPCDim: 32}, nil},
		{core.Config{Algorithm: core.AlgoMPC, ZFPRate: 40}, nil},
		{core.Config{Algorithm: core.AlgoNone, MPCDim: 33}, nil},
	} {
		c.cfg.Mode = core.ModeOpt
		_, err := NewWorld(Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 1, Engine: c.cfg})
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) {
			t.Errorf("%v rate=%d dim=%d: NewWorld error %v, want %v", c.cfg.Algorithm, c.cfg.ZFPRate, c.cfg.MPCDim, err, c.want)
		}
	}
}

func devBuf(r *Rank, vals []float32) *gpusim.Buffer {
	return &gpusim.Buffer{Data: core.FloatsToBytes(nil, vals), Loc: gpusim.Device, Dev: r.Dev}
}

func emptyDevBuf(r *Rank, n int) *gpusim.Buffer {
	return &gpusim.Buffer{Data: make([]byte, 4*n), Loc: gpusim.Device, Dev: r.Dev}
}

func TestWorldLayout(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2})
	if w.Size() != 8 {
		t.Fatalf("size: %d", w.Size())
	}
	if w.nodeOf(0) != 0 || w.nodeOf(1) != 0 || w.nodeOf(2) != 1 || w.nodeOf(7) != 3 {
		t.Fatal("block rank->node mapping wrong")
	}
}

func TestWorldValidation(t *testing.T) {
	if _, err := NewWorld(Options{Nodes: 0, PPN: 1}); err == nil {
		t.Fatal("0 nodes should fail")
	}
	if _, err := NewWorld(Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 99}); err == nil {
		t.Fatal("ppn over GPUs/node should fail")
	}
}

func TestEagerSendRecv(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	vals := datasets.Smooth(128, 1, 1e-3) // 512 B — below eager limit
	_, err := w.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			return r.Send(1, 7, devBuf(r, vals))
		case 1:
			buf := emptyDevBuf(r, len(vals))
			if err := r.Recv(0, 7, buf); err != nil {
				return err
			}
			got := core.BytesToFloats(buf.Data)
			for i := range vals {
				if got[i] != vals[i] {
					t.Errorf("eager value %d mismatch", i)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousBaselineIntegrity(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	vals := datasets.Smooth(1<<20, 2, 1e-3) // 4 MB
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, vals))
		}
		buf := emptyDevBuf(r, len(vals))
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		got := core.BytesToFloats(buf.Data)
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("value %d mismatch", i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousMPCLossless(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1},
	})
	vals := datasets.Smooth(2<<20, 3, 1e-3) // 8 MB
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, vals))
		}
		buf := emptyDevBuf(r, len(vals))
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		got := core.BytesToFloats(buf.Data)
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("MPC transfer must be lossless: value %d differs", i)
				break
			}
		}
		if r.Engine.Decompressions != 1 {
			t.Errorf("expected 1 decompression, got %d", r.Engine.Decompressions)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Rank(0).Engine.Compressions != 1 {
		t.Fatalf("sender should have compressed once, got %d", w.Rank(0).Engine.Compressions)
	}
}

func TestRendezvousZFPWithinTolerance(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16},
	})
	vals := datasets.Smooth(1<<20, 4, 1e-3)
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, vals))
		}
		buf := emptyDevBuf(r, len(vals))
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		got := core.BytesToFloats(buf.Data)
		for i := range vals {
			rel := math.Abs(float64(got[i]-vals[i])) / math.Abs(float64(vals[i]))
			if rel > 2e-3 {
				t.Errorf("ZFP rate 16 error too large at %d: %g", i, rel)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompressionReducesLatencyOnEDR(t *testing.T) {
	// 16 MB over IB EDR, reproducing Figure 9(a)'s conditions: OMB sends
	// dummy (constant) buffers, on which MPC achieves a very high
	// compression ratio; ZFP's ratio is fixed by the rate regardless of
	// content. Both OPT schemes, in the paper's form (whole messages,
	// every eligible one compressed), must beat the no-compression
	// baseline.
	latency := func(cfg core.Config, vals []float32) simtime.Duration {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg})
		times, err := w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				return r.Send(1, 0, devBuf(r, vals))
			}
			return r.Recv(0, 0, emptyDevBuf(r, len(vals)))
		})
		if err != nil {
			t.Fatal(err)
		}
		return simtime.Duration(MaxTime(times))
	}
	dummy := datasets.Dummy(4 << 20)
	smooth := datasets.Smooth(4<<20, 5, 1e-4)
	base := latency(core.Config{Mode: core.ModeOff}, dummy)
	mpcOpt := latency(core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1}, dummy)
	zfpOpt := latency(core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8, PipelineChunkBytes: -1}, smooth)
	if mpcOpt >= base {
		t.Fatalf("MPC-OPT (%v) should beat baseline (%v) on EDR", mpcOpt, base)
	}
	if zfpOpt >= base {
		t.Fatalf("ZFP-OPT (%v) should beat baseline (%v) on EDR", zfpOpt, base)
	}
	// MPC-OPT on low-compressibility data must NOT beat the baseline at
	// this size — the tradeoff the paper's analytical model captures.
	noisy := datasets.Random(4<<20, 3)
	mpcNoisy := latency(core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1}, noisy)
	if mpcNoisy < base {
		t.Fatalf("MPC-OPT on incompressible data (%v) should not beat baseline (%v)", mpcNoisy, base)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2})
	_, err := w.Run(func(r *Rank) error {
		if r.ID() != 0 {
			v := []float32{float32(r.ID())}
			return r.Send(0, 100+r.ID(), devBuf(r, v))
		}
		seen := map[float32]bool{}
		for i := 0; i < 3; i++ {
			buf := emptyDevBuf(r, 1)
			if err := r.Recv(AnySource, AnyTag, buf); err != nil {
				return err
			}
			seen[core.BytesToFloats(buf.Data)[0]] = true
		}
		if len(seen) != 3 {
			t.Errorf("expected 3 distinct senders, got %v", seen)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatching(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 2})
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			a, _ := r.Isend(1, 1, devBuf(r, []float32{1}))
			b, _ := r.Isend(1, 2, devBuf(r, []float32{2}))
			return r.Waitall(a, b)
		}
		// Receive in reverse tag order: matching must be by tag.
		buf2 := emptyDevBuf(r, 1)
		if err := r.Recv(0, 2, buf2); err != nil {
			return err
		}
		buf1 := emptyDevBuf(r, 1)
		if err := r.Recv(0, 1, buf1); err != nil {
			return err
		}
		if core.BytesToFloats(buf2.Data)[0] != 2 || core.BytesToFloats(buf1.Data)[0] != 1 {
			t.Error("tag matching delivered wrong payloads")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBidirectionalExchangeNoDeadlock(t *testing.T) {
	// The classic halo-exchange pattern: both ranks Isend+Irecv then
	// Waitall. Must complete despite rendezvous handshakes.
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC},
	})
	vals := datasets.Smooth(1<<20, 6, 1e-3) // 4 MB each way
	_, err := w.Run(func(r *Rank) error {
		peer := 1 - r.ID()
		recvBuf := emptyDevBuf(r, len(vals))
		rreq, err := r.Irecv(peer, 5, recvBuf)
		if err != nil {
			return err
		}
		sreq, err := r.Isend(peer, 5, devBuf(r, vals))
		if err != nil {
			return err
		}
		if err := r.Waitall(sreq, rreq); err != nil {
			return err
		}
		got := core.BytesToFloats(recvBuf.Data)
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("rank %d: exchange corrupted value %d", r.ID(), i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnexpectedMessageQueue(t *testing.T) {
	// Sender sends before receiver posts: the message must wait in the
	// unexpected queue and match later.
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 3, devBuf(r, []float32{42}))
		}
		// Delay posting the receive (simulated compute).
		r.Clock.Advance(simtime.FromSeconds(0.001))
		buf := emptyDevBuf(r, 1)
		if err := r.Recv(0, 3, buf); err != nil {
			return err
		}
		if core.BytesToFloats(buf.Data)[0] != 42 {
			t.Error("unexpected-queue payload corrupted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvTruncationError(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, make([]float32, 100)))
		}
		err := r.Recv(0, 0, emptyDevBuf(r, 10))
		if err == nil {
			t.Error("truncated receive should error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidArgs(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 1, PPN: 1})
	_, err := w.Run(func(r *Rank) error {
		if _, err := r.Isend(5, 0, devBuf(r, []float32{1})); err == nil {
			t.Error("out-of-range dst should fail")
		}
		if _, err := r.Isend(0, -5, devBuf(r, []float32{1})); err == nil {
			t.Error("negative user tag should fail")
		}
		if err := r.Wait(nil); err == nil {
			t.Error("nil request should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestClockMonotonic(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC},
	})
	vals := datasets.Smooth(1<<19, 7, 1e-3)
	_, err := w.Run(func(r *Rank) error {
		last := r.Clock.Now()
		check := func() {
			if r.Clock.Now() < last {
				t.Errorf("rank %d clock went backwards", r.ID())
			}
			last = r.Clock.Now()
		}
		peer := r.ID() ^ 1
		for i := 0; i < 3; i++ {
			rb := emptyDevBuf(r, len(vals))
			rreq, err := r.Irecv(peer, 9, rb)
			if err != nil {
				return err
			}
			check()
			sreq, err := r.Isend(peer, 9, devBuf(r, vals))
			if err != nil {
				return err
			}
			check()
			if err := r.Waitall(sreq, rreq); err != nil {
				return err
			}
			check()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPingPongLatencySanity(t *testing.T) {
	// 4 MB ping-pong on EDR: one-way latency should be in the low
	// milliseconds (4MB / 12.5 GB/s = 336us serialization + overheads),
	// definitely under 10 ms and over 300 us.
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	n := 1 << 20
	var oneWay simtime.Duration
	_, err := w.Run(func(r *Rank) error {
		buf := emptyDevBuf(r, n)
		if r.ID() == 0 {
			start := r.Clock.Now()
			if err := r.Send(1, 0, buf); err != nil {
				return err
			}
			if err := r.Recv(1, 0, buf); err != nil {
				return err
			}
			oneWay = r.Clock.Now().Sub(start) / 2
			return nil
		}
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		return r.Send(0, 0, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if oneWay < simtime.FromMicroseconds(300) || oneWay > simtime.FromMicroseconds(10000) {
		t.Fatalf("4MB EDR one-way latency out of range: %v", oneWay)
	}
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	n := 4 << 20 // 16 MB message
	measure := func(nodes, ppn int) simtime.Duration {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn})
		times, err := w.Run(func(r *Rank) error {
			buf := emptyDevBuf(r, n/4)
			if r.ID() == 0 {
				return r.Send(1, 0, buf)
			}
			return r.Recv(0, 0, buf)
		})
		if err != nil {
			t.Fatal(err)
		}
		return simtime.Duration(MaxTime(times))
	}
	intra := measure(1, 2) // NVLink
	inter := measure(2, 1) // EDR
	if intra >= inter {
		t.Fatalf("NVLink (%v) should beat EDR (%v)", intra, inter)
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	// Two sends with the same (src, tag) must match receives in order.
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			a, _ := r.Isend(1, 5, devBuf(r, []float32{1}))
			b, _ := r.Isend(1, 5, devBuf(r, []float32{2}))
			return r.Waitall(a, b)
		}
		first := emptyDevBuf(r, 1)
		second := emptyDevBuf(r, 1)
		if err := r.Recv(0, 5, first); err != nil {
			return err
		}
		if err := r.Recv(0, 5, second); err != nil {
			return err
		}
		if core.BytesToFloats(first.Data)[0] != 1 || core.BytesToFloats(second.Data)[0] != 2 {
			t.Errorf("FIFO violated: %v %v",
				core.BytesToFloats(first.Data)[0], core.BytesToFloats(second.Data)[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDynamicEngineEndToEnd(t *testing.T) {
	// An 8 MB dummy-data message with the model picking its form (ModeOpt,
	// default PipelineChunkBytes): compressed on the inter-node path,
	// bypassed on NVLink, and there close to the uncompressed baseline.
	vals := datasets.Dummy(2 << 20)
	run := func(nodes, ppn int, cfg core.Config) (simtime.Duration, int, int) {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn, Engine: cfg})
		times, err := w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				return r.Send(1, 0, devBuf(r, vals))
			}
			return r.Recv(0, 0, emptyDevBuf(r, len(vals)))
		})
		if err != nil {
			t.Fatal(err)
		}
		e := w.Rank(0).Engine
		return simtime.Duration(MaxTime(times)), e.Compressions, e.Bypasses
	}
	dyn := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}

	_, comps, _ := run(2, 1, dyn) // EDR
	if comps < 1 {
		t.Fatalf("dynamic engine should compress on EDR, compressions=%d", comps)
	}
	latIntra, comps, bypasses := run(1, 2, dyn) // NVLink
	if comps != 0 || bypasses != 1 {
		t.Fatalf("dynamic engine should bypass on NVLink: comps=%d bypasses=%d", comps, bypasses)
	}
	latBase, _, _ := run(1, 2, core.Config{})
	// The probe costs a few microseconds; within 10% of baseline.
	if float64(latIntra) > float64(latBase)*1.35 {
		t.Fatalf("dynamic NVLink latency %v too far above baseline %v", latIntra, latBase)
	}
}

func TestManyRanksSmoke(t *testing.T) {
	// 64 ranks ring-exchange with compression: no deadlock, no data loss.
	w := mustWorld(t, Options{
		Cluster: hw.Lassen(), Nodes: 16, PPN: 4,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 64 << 10, PoolBufBytes: 1 << 20},
	})
	const n = 64 << 10 // 256 KB messages
	_, err := w.Run(func(r *Rank) error {
		right := (r.ID() + 1) % r.Size()
		left := (r.ID() - 1 + r.Size()) % r.Size()
		vals := make([]float32, n)
		for i := range vals {
			vals[i] = float32(r.ID())
		}
		recv := emptyDevBuf(r, n)
		rq, err := r.Irecv(left, 0, recv)
		if err != nil {
			return err
		}
		sq, err := r.Isend(right, 0, devBuf(r, vals))
		if err != nil {
			return err
		}
		if err := r.Waitall(sq, rq); err != nil {
			return err
		}
		got := core.BytesToFloats(recv.Data)
		if got[0] != float32(left) || got[n-1] != float32(left) {
			t.Errorf("rank %d: ring payload wrong: %v", r.ID(), got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompressionReducesWireBytes(t *testing.T) {
	// End-to-end INAM-style verification: the same logical message moves
	// ~8x fewer bytes over the network with ZFP-OPT rate 4.
	vals := datasets.Smooth(4<<20, 11, 1e-4) // 16 MB
	traffic := func(cfg core.Config) int64 {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg})
		_, err := w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				return r.Send(1, 0, devBuf(r, vals))
			}
			return r.Recv(0, 0, emptyDevBuf(r, len(vals)))
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Fabric().TotalInterNodeBytes()
	}
	raw := traffic(core.Config{})
	comp := traffic(core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 4})
	if raw < 16<<20 {
		t.Fatalf("baseline should move the full message: %d", raw)
	}
	want := raw / 8
	if comp < want-4096 || comp > want+4096 {
		t.Fatalf("ZFP rate 4 should move ~1/8 the bytes: %d vs raw %d", comp, raw)
	}
}
