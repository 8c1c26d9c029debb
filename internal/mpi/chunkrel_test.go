package mpi

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// Chunk-granular transport reliability (DESIGN.md §12): every chunk of a
// pipelined transfer carries its own CRC and retry budget, failed chunks
// are selectively retransmitted while the rest of the stream keeps
// flowing, a credit window bounds chunks in flight by staging capacity,
// and repeated loss walks the degrade ladder (retransmit -> shrink window
// -> per-peer whole-message fallback). These tests pin that contract.

// pipeTotals sums every rank's chunk-reliability counters.
func pipeTotals(w *World) core.PipelineStats {
	var ps core.PipelineStats
	for r := 0; r < w.Size(); r++ {
		ps.Add(w.Rank(r).Engine.PipeSnapshot())
	}
	return ps
}

// chunkExchange sends one pipelined message rank 0 -> rank 1 and verifies
// byte-identical delivery; returns the world for counter assertions.
func chunkExchange(t *testing.T, opt Options, words int) *World {
	t.Helper()
	w := mustWorld(t, opt)
	vals := make([]float32, words)
	for i := range vals {
		vals[i] = float32(i%8191) * 0.25
	}
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, vals))
		}
		if r.ID() != 1 {
			return nil
		}
		buf := emptyDevBuf(r, words)
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		got := core.BytesToFloats(buf.Data)
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("word %d = %v want %v (chunked delivery must be byte-identical)", i, got[i], vals[i])
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("chunk exchange failed: %v", err)
	}
	return w
}

// TestChunkFaultMatrixP2P: each per-chunk fate — drop, corrupt, duplicate,
// reorder, and all four at once — against the pipelined point-to-point
// path. Delivery must stay byte-identical and each adversary must actually
// show up in the fault counters.
func TestChunkFaultMatrixP2P(t *testing.T) {
	cells := []struct {
		name  string
		fcfg  faults.Config
		fired func(faults.Stats, core.PipelineStats) bool
	}{
		{"drop", faults.Config{Seed: 5, ChunkDropRate: 0.08},
			func(st faults.Stats, ps core.PipelineStats) bool { return st.Drops > 0 && ps.Retransmits > 0 }},
		{"corrupt", faults.Config{Seed: 6, ChunkCorruptRate: 0.08},
			func(st faults.Stats, ps core.PipelineStats) bool { return st.Corruptions > 0 && ps.Retransmits > 0 }},
		{"duplicate", faults.Config{Seed: 7, ChunkDuplicateRate: 0.15},
			func(st faults.Stats, ps core.PipelineStats) bool { return st.Duplicates > 0 }},
		{"reorder", faults.Config{Seed: 8, ChunkReorderRate: 0.15},
			func(st faults.Stats, ps core.PipelineStats) bool { return st.Reorders > 0 }},
		{"all", faults.Config{Seed: 9, ChunkDropRate: 0.05, ChunkCorruptRate: 0.05,
			ChunkDuplicateRate: 0.1, ChunkReorderRate: 0.1},
			func(st faults.Stats, ps core.PipelineStats) bool {
				return st.Drops > 0 && st.Corruptions > 0 && st.Duplicates > 0 && st.Reorders > 0
			}},
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			fcfg := cell.fcfg
			w := chunkExchange(t, Options{
				Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
				Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
					PipelineChunkBytes: 256 << 10},
				Faults: &fcfg,
			}, 2<<20) // 8 MB = 32 chunks
			st, ps := w.FaultStats(), pipeTotals(w)
			if ps.Chunks == 0 {
				t.Fatal("the message did not take the chunked path")
			}
			if !cell.fired(st, ps) {
				t.Fatalf("adversary never showed up: faults=%+v pipe=%+v", st, ps)
			}
		})
	}
}

// TestChunkFaultMatrixRelayRing: the same per-chunk adversaries against
// the chunked-relay path (binomial-tree bcast forwarding whole wire
// payloads) and the relay ring allreduce. Content must survive bit-exactly
// and the relayed segments must ride the chunk path.
func TestChunkFaultMatrixRelayRing(t *testing.T) {
	for _, cell := range []struct {
		name string
		fcfg faults.Config
	}{
		{"drop", faults.Config{Seed: 15, ChunkDropRate: 0.04}},
		{"corrupt", faults.Config{Seed: 16, ChunkCorruptRate: 0.04}},
		{"duplicate", faults.Config{Seed: 17, ChunkDuplicateRate: 0.1}},
		{"reorder", faults.Config{Seed: 18, ChunkReorderRate: 0.1}},
	} {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			fcfg := cell.fcfg
			// Mode off keeps the relayed wire payload at full size, so the
			// bcast relay hops move it as chunk segments.
			w := mustWorld(t, Options{
				Cluster: hw.Lassen(), Nodes: 2, PPN: 2,
				Engine: core.Config{Mode: core.ModeOff, PipelineChunkBytes: 256 << 10},
				Faults: &fcfg,
			})
			const words = 1 << 18 // 1 MB payload, 4 segments per hop
			want := make([]float32, words)
			for i := range want {
				want[i] = float32(i%4093) + 0.5
			}
			_, err := w.Run(func(r *Rank) error {
				buf := emptyDevBuf(r, words)
				if r.ID() == 0 {
					core.FloatsToBytes(buf.Data[:0], want)
				}
				if err := r.Bcast(0, buf); err != nil {
					return err
				}
				got := core.BytesToFloats(buf.Data)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("rank %d: bcast word %d = %v want %v", r.ID(), i, got[i], want[i])
						break
					}
				}
				// The ring allreduce's relay phase rides the same path.
				out := emptyDevBuf(r, words)
				if err := allreduceBy(sched.Ring, true)(r, buf, out); err != nil {
					return err
				}
				sum := core.BytesToFloats(out.Data)
				scale := float32(r.Size())
				for i := 0; i < words; i += 101 {
					if sum[i] != scale*want[i] {
						t.Errorf("rank %d: allreduce word %d = %v want %v", r.ID(), i, sum[i], scale*want[i])
						break
					}
				}
				return r.Barrier()
			})
			if err != nil {
				t.Fatalf("relay ring under %s failed: %v", cell.name, err)
			}
			if ps := pipeTotals(w); ps.RelayChunks == 0 {
				t.Fatalf("relay payloads skipped the chunked path: %+v", ps)
			}
		})
	}
}

// TestChunkRetransmitBytesBounded pins the selective-retransmission win:
// at 1% per-chunk loss (plus 0.5% corruption) the bytes that cross the
// wire twice must stay under 15% of the payload — the whole-message
// alternative would resend 100% per lost attempt.
func TestChunkRetransmitBytesBounded(t *testing.T) {
	const (
		words    = 4 << 20 // 16 MB per message
		messages = 4
	)
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOff, PipelineChunkBytes: 512 << 10},
		Faults: &faults.Config{Seed: 12, ChunkDropRate: 0.01, ChunkCorruptRate: 0.005},
	})
	vals := make([]float32, words)
	for i := range vals {
		vals[i] = float32(i % 65537)
	}
	_, err := w.Run(func(r *Rank) error {
		for m := 0; m < messages; m++ {
			if r.ID() == 0 {
				if err := r.Send(1, m, devBuf(r, vals)); err != nil {
					return err
				}
			} else {
				buf := emptyDevBuf(r, words)
				if err := r.Recv(0, m, buf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := pipeTotals(w)
	if ps.Retransmits == 0 {
		t.Fatalf("1%% chunk loss never retransmitted: %+v", ps)
	}
	total := int64(messages) * int64(words) * 4
	if ps.RetransmitBytes >= total*15/100 {
		t.Fatalf("retransmitted %d of %d payload bytes (%.1f%%), want < 15%%",
			ps.RetransmitBytes, total, 100*float64(ps.RetransmitBytes)/float64(total))
	}
}

// TestCreditBackpressure: a one-credit window over a three-buffer pool
// lets the sender compress ahead while the receiver admits one chunk at a
// time, so the stream stalls on credits — never by overrunning the
// staging pool or flipping to the uncompressed whole-message path
// (PoolFallbacks stays zero while CreditStalls counts the backpressure).
// The window also clamps to pool capacity when left at its default.
func TestCreditBackpressure(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			PipelineChunkBytes: 1 << 20, PipelineCredits: 1,
			PoolBuffers: 3, PoolBufBytes: 4 << 20},
	})
	const words = 4 << 20 // 16 MB = 16 chunks through a 1-slot window
	vals := make([]float32, words)
	for i := range vals {
		vals[i] = float32(i%8191) * 0.25
	}
	_, err := w.Run(func(r *Rank) error {
		// The same tracked buffer twice: the second message's chunks come
		// out of the compress-once cache, ready the instant CTS lands, so
		// only the credit window paces them onto the wire.
		if r.ID() == 0 {
			src := devBuf(r, vals).Track()
			for m := 0; m < 2; m++ {
				if err := r.Send(1, m, src); err != nil {
					return err
				}
			}
			return nil
		}
		if r.ID() != 1 {
			return nil
		}
		for m := 0; m < 2; m++ {
			buf := emptyDevBuf(r, words)
			if err := r.Recv(0, m, buf); err != nil {
				return err
			}
			got := core.BytesToFloats(buf.Data)
			for i := range vals {
				if got[i] != vals[i] {
					t.Errorf("msg %d word %d = %v want %v", m, i, got[i], vals[i])
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := pipeTotals(w)
	if ps.CreditStalls == 0 {
		t.Fatalf("a cache-fed 16-chunk stream through a 1-slot window never stalled: %+v", ps)
	}
	for r := 0; r < w.Size(); r++ {
		if fb := w.Rank(r).Engine.PoolFallbacks; fb != 0 {
			t.Fatalf("rank %d fell back to the uncompressed path %d times; credits should backpressure instead", r, fb)
		}
	}
	// Default credits clamp to the staging pool's capacity.
	clamped := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			PipelineChunkBytes: 512 << 10, PoolBuffers: 2, PoolBufBytes: 2 << 20},
	})
	if got := clamped.Rank(1).Engine.Config().PipelineCredits; got != 2 {
		t.Fatalf("credit window = %d, want 2 (clamped to PoolBuffers)", got)
	}
}

// TestCreditsDisabledAndWindowShrink: negative credits disable gating
// entirely (no stalls even with a tiny pool), and under heavy per-chunk
// corruption the window halves (degrade ladder step 2).
func TestCreditsDisabledAndWindowShrink(t *testing.T) {
	w := chunkExchange(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			PipelineChunkBytes: 512 << 10, PipelineCredits: -1},
	}, 4<<20)
	if ps := pipeTotals(w); ps.CreditStalls != 0 {
		t.Fatalf("disabled credits still stalled: %+v", ps)
	}

	w = chunkExchange(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			PipelineChunkBytes: 256 << 10},
		Faults: &faults.Config{Seed: 23, ChunkCorruptRate: 0.2},
		Retry:  RetryPolicy{ChunkLimit: 24},
	}, 4<<20)
	if ps := pipeTotals(w); ps.WindowShrinks == 0 {
		t.Fatalf("heavy loss never shrank the credit window: %+v", ps)
	}
}

// TestDegradeLadderDemotesAndRecovers: consecutive lossy chunk streams
// demote the peer to the blocking whole-message path (step 3); after the
// cooldown the chunked path is retried.
func TestDegradeLadderDemotesAndRecovers(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			PipelineChunkBytes: 256 << 10},
		Faults: &faults.Config{Seed: 31, ChunkDropRate: 0.5},
		Retry:  RetryPolicy{ChunkLimit: 40},
	})
	const words = 1 << 20 // 4 MB = 16 chunks; rate-0.5 loss forces >= 3 retransmits
	vals := make([]float32, words)
	for i := range vals {
		vals[i] = float32(i % 1021)
	}
	_, err := w.Run(func(r *Rank) error {
		recvOne := func(tag int) error {
			buf := emptyDevBuf(r, words)
			return r.Recv(0, tag, buf)
		}
		if r.ID() == 1 {
			for tag := 0; tag < 4; tag++ {
				if err := recvOne(tag); err != nil {
					return err
				}
			}
			return nil
		}
		if r.ID() != 0 {
			return nil
		}
		// Two lossy chunk streams trip the ladder...
		for tag := 0; tag < 2; tag++ {
			if err := r.Send(1, tag, devBuf(r, vals)); err != nil {
				return err
			}
		}
		if !r.pipeDegraded(1) {
			t.Error("two lossy streams did not demote the peer")
		}
		// ...the next send bypasses chunking (whole-message path sees no
		// chunk faults, so it flows clean)...
		before := r.Engine.PipeSnapshot()
		if err := r.Send(1, 2, devBuf(r, vals)); err != nil {
			return err
		}
		after := r.Engine.PipeSnapshot()
		if after.BypassDegraded != before.BypassDegraded+1 {
			t.Errorf("degraded peer bypass not counted: %+v -> %+v", before, after)
		}
		if after.Chunks != before.Chunks {
			t.Error("demoted peer still received a chunk stream")
		}
		// ...and after the cooldown the chunked path is retried.
		r.Clock.Advance(pipeDegradeCooldown)
		if r.pipeDegraded(1) {
			t.Error("peer still degraded after the cooldown")
		}
		if err := r.Send(1, 3, devBuf(r, vals)); err != nil {
			return err
		}
		if got := r.Engine.PipeSnapshot(); got.Chunks == after.Chunks {
			t.Error("chunked path not retried after cooldown")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("degrade ladder run failed: %v", err)
	}
	if ps := pipeTotals(w); ps.DegradeEvents == 0 {
		t.Fatalf("no degrade event counted: %+v", ps)
	}
}

// TestChunkStreamFailsBounded: a chunk whose retry budget runs out fails
// the message at a bounded simulated instant — both endpoints observe the
// wrapped ErrDeliveryFailed from Wait, nobody hangs, and chunks already
// delivered are not re-sent afterward.
func TestChunkStreamFailsBounded(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			PipelineChunkBytes: 256 << 10},
		Faults: &faults.Config{Seed: 41, ChunkDropRate: 1},
		Retry:  RetryPolicy{ChunkLimit: 2},
	})
	const words = 1 << 20
	times, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			err := r.Send(1, 0, devBuf(r, make([]float32, words)))
			if !errors.Is(err, ErrDeliveryFailed) {
				t.Errorf("sender got %v, want ErrDeliveryFailed", err)
			}
		} else if r.ID() == 1 {
			err := r.Recv(0, 0, emptyDevBuf(r, words))
			if !errors.Is(err, ErrDeliveryFailed) {
				t.Errorf("receiver got %v, want ErrDeliveryFailed", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	// Bounded: 3 attempts of one chunk with capped backoff lands well
	// under a simulated second.
	if mt := MaxTime(times); mt > simtime.Time(simtime.Second) {
		t.Fatalf("failure surfaced at %v; the give-up instant must stay bounded", mt)
	}
}

// TestRaggedTailTakesChunkedPath: a message whose length is not a multiple
// of four still pipelines — the final chunk is short (and engine-bypassed
// when unaligned) — and arrives byte-identical.
func TestRaggedTailTakesChunkedPath(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			PipelineChunkBytes: 256 << 10},
	})
	const n = 2*(256<<10) + 999 // two full chunks + unaligned ragged tail
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i * 31)
	}
	rawDevBuf := func(r *Rank) *gpusim.Buffer {
		return &gpusim.Buffer{Data: make([]byte, n), Loc: gpusim.Device, Dev: r.Dev}
	}
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			buf := rawDevBuf(r)
			copy(buf.Data, src)
			return r.Send(1, 0, buf)
		}
		if r.ID() != 1 {
			return nil
		}
		buf := rawDevBuf(r)
		if err := r.Recv(0, 0, buf); err != nil {
			return err
		}
		if !bytes.Equal(buf.Data, src) {
			t.Error("ragged-tail message corrupted in transit")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := pipeTotals(w)
	if ps.Chunks != 3 {
		t.Fatalf("ragged message moved as %d chunks, want 3 (two full + short tail)", ps.Chunks)
	}
	if ps.BypassSmall != 0 {
		t.Fatalf("ragged message was bypassed as small: %+v", ps)
	}
}

// TestPipelineBypassesCounted: messages that skip the chunked path are
// counted by reason.
func TestPipelineBypassesCounted(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			PipelineChunkBytes: 1 << 20},
	})
	const words = 1 << 17 // 512 KB: rendezvous, under 2x chunk
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, make([]float32, words)))
		}
		if r.ID() == 1 {
			return r.Recv(0, 0, emptyDevBuf(r, words))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := pipeTotals(w)
	if ps.BypassSmall != 1 || ps.Chunks != 0 {
		t.Fatalf("under-2x-chunk message: %+v, want exactly one small bypass and no chunks", ps)
	}
}

// chunkWorkerSoak is workerSoak with the chunk-granular adversary: a
// pipelined exchange, a chunked-relay bcast, and a ring allreduce under
// per-chunk drop/corrupt/duplicate/reorder, returning everything that must
// be identical across codec worker-pool sizes.
func chunkWorkerSoak(t *testing.T, workers int) (simtime.Time, faults.Stats, core.PipelineStats, []uint32) {
	t.Helper()
	const ranks = 4
	w := mustWorld(t, Options{
		Cluster: hw.Lassen(), Nodes: 2, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 64 << 10, PoolBufBytes: 8 << 20, Workers: workers,
			PipelineChunkBytes: 128 << 10},
		Faults: &faults.Config{Seed: 57, ChunkDropRate: 0.05, ChunkCorruptRate: 0.05,
			ChunkDuplicateRate: 0.08, ChunkReorderRate: 0.08},
	})
	crcs := make([]uint32, ranks)
	times, err := w.Run(func(r *Rank) error {
		const words = 1 << 18        // 1 MB: 8 chunks
		peer := (r.ID() + 2) % ranks // cross-node pairing (PPN 2): the fabric adversary sees every chunk
		vals := make([]float32, words)
		for i := range vals {
			vals[i] = float32(r.ID()*7919) + float32(i%4093)*0.5
		}
		recvBuf := emptyDevBuf(r, words)
		rreq, err := r.Irecv(peer, 1, recvBuf)
		if err != nil {
			return err
		}
		sreq, err := r.Isend(peer, 1, devBuf(r, vals))
		if err != nil {
			return err
		}
		if err := r.Waitall(rreq, sreq); err != nil {
			return err
		}
		bcastBuf := emptyDevBuf(r, words)
		if r.ID() == 0 {
			core.FloatsToBytes(bcastBuf.Data[:0], vals)
		}
		if err := r.Bcast(0, bcastBuf); err != nil {
			return err
		}
		sumBuf := emptyDevBuf(r, words)
		if err := allreduceBy(sched.Ring, true)(r, bcastBuf, sumBuf); err != nil {
			return err
		}
		h := crc32.NewIEEE()
		h.Write(recvBuf.Data)
		h.Write(bcastBuf.Data)
		h.Write(sumBuf.Data)
		crcs[r.ID()] = h.Sum32()
		return r.Barrier()
	})
	if err != nil {
		t.Fatalf("workers=%d: chunk soak failed: %v", workers, err)
	}
	return MaxTime(times), w.FaultStats(), pipeTotals(w), crcs
}

// TestChunkWorkerCountDeterminism: the chunk-reliability counters, fault
// counters, makespan, and delivered bytes are identical for codec pool
// sizes 1, 2, and 8 — per-chunk retries, credit stalls, and reassembly
// order all derive from the virtual clock, never from host scheduling.
func TestChunkWorkerCountDeterminism(t *testing.T) {
	refTime, refStats, refPipe, refCRCs := chunkWorkerSoak(t, 1)
	if refStats.Drops == 0 || refStats.Corruptions == 0 || refStats.Duplicates == 0 || refStats.Reorders == 0 {
		t.Fatalf("adversary incomplete: %+v", refStats)
	}
	if refPipe.Retransmits == 0 {
		t.Fatalf("no chunk retransmissions: %+v", refPipe)
	}
	for _, workers := range []int{2, 8} {
		gotTime, gotStats, gotPipe, gotCRCs := chunkWorkerSoak(t, workers)
		if gotTime != refTime {
			t.Errorf("workers=%d: makespan %v != %v", workers, gotTime, refTime)
		}
		if gotStats != refStats {
			t.Errorf("workers=%d: fault stats %+v != %+v", workers, gotStats, refStats)
		}
		if gotPipe != refPipe {
			t.Errorf("workers=%d: pipeline stats %+v != %+v", workers, gotPipe, refPipe)
		}
		for r, crc := range gotCRCs {
			if crc != refCRCs[r] {
				t.Errorf("workers=%d: rank %d delivered different bytes", workers, r)
			}
		}
	}
}

// TestChunkHighLossSoakGolden is the CI high-loss soak: ~1.5% per-chunk
// drop plus 1% corruption over repeated pipelined transfers. The run must
// deliver bit-exactly, and the pinned stats below are golden — any drift
// means the seeded fault schedule, the retry arithmetic, or the counter
// accounting changed and must be understood before re-pinning.
func TestChunkHighLossSoakGolden(t *testing.T) {
	run := func() (simtime.Time, faults.Stats, core.PipelineStats) {
		w := mustWorld(t, Options{
			Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
				PipelineChunkBytes: 256 << 10},
			Faults: &faults.Config{Seed: 77, ChunkDropRate: 0.015, ChunkCorruptRate: 0.01},
		})
		vals := make([]float32, 1<<20) // 4 MB = 16 chunks per message
		for i := range vals {
			vals[i] = float32(i%2039) * 1.5
		}
		times, err := w.Run(func(r *Rank) error {
			for m := 0; m < 8; m++ {
				if r.ID() == 0 {
					if err := r.Send(1, m, devBuf(r, vals)); err != nil {
						return err
					}
				} else {
					buf := emptyDevBuf(r, len(vals))
					if err := r.Recv(0, m, buf); err != nil {
						return err
					}
					got := core.BytesToFloats(buf.Data)
					for i := 0; i < len(vals); i += 997 {
						if got[i] != vals[i] {
							t.Errorf("msg %d word %d differs under high loss", m, i)
							break
						}
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("high-loss soak failed: %v", err)
		}
		return MaxTime(times), w.FaultStats(), pipeTotals(w)
	}
	mt, st, ps := run()
	mt2, st2, ps2 := run()
	if mt != mt2 || st != st2 || ps != ps2 {
		t.Fatalf("high-loss soak not reproducible:\n%v %+v %+v\n%v %+v %+v", mt, st, ps, mt2, st2, ps2)
	}
	if st.Drops == 0 || st.Corruptions == 0 {
		t.Fatalf("adversary never showed up: %+v", st)
	}
	if ps.Retransmits == 0 || ps.Chunks != 128 {
		t.Fatalf("unexpected pipeline activity: %+v", ps)
	}
	// Selective retransmission bound at this loss rate.
	total := int64(8) * int64(4<<20)
	if ps.RetransmitBytes >= total*15/100 {
		t.Fatalf("retransmitted %d of %d bytes, want < 15%%", ps.RetransmitBytes, total)
	}
}
