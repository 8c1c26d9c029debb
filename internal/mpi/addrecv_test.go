package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
)

// The add landing (irecvAdd): a reduction's receive decodes each arriving
// part straight into the accumulator. These tests pin what that must not
// change — every chunk of a pipelined message adds exactly once whatever
// the wire does to it — and what a decode failure leaves behind.

// TestAddReceiveAddsEachChunkOnce: an add receive of a pipelined MPC message
// under each per-chunk fate (drop, corrupt, duplicate, reorder, all four)
// ends with the accumulator's old value plus the message, every word once
// (a chunk added twice or skipped shows in the sum); and the pipelined ring
// and recursive-doubling allreduces, whose reduce steps receive that way,
// match their blocking oracles, run without faults, bit for bit.
func TestAddReceiveAddsEachChunkOnce(t *testing.T) {
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
			func(st faults.Stats, _ core.PipelineStats) bool { return st.Duplicates > 0 }},
		{"reorder", faults.Config{Seed: 8, ChunkReorderRate: 0.15},
			func(st faults.Stats, _ core.PipelineStats) bool { return st.Reorders > 0 }},
		{"all", faults.Config{Seed: 9, ChunkDropRate: 0.05, ChunkCorruptRate: 0.05,
			ChunkDuplicateRate: 0.1, ChunkReorderRate: 0.1},
			func(st faults.Stats, _ core.PipelineStats) bool {
				return st.Drops > 0 && st.Corruptions > 0 && st.Duplicates > 0 && st.Reorders > 0
			}},
	}
	const words = 2 << 20 // 8 MB = 32 chunks
	vals, acc0 := make([]float32, words), make([]float32, words)
	for i := range vals {
		vals[i], acc0[i] = float32(i%8191)*0.25, float32(i%127-63)
	}
	want := core.FloatsToBytes(nil, acc0)
	core.AddFloat32s(want, core.FloatsToBytes(nil, vals))
	eng := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: 256 << 10}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			fcfg := cell.fcfg
			w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: eng, Faults: &fcfg})
			if _, err := w.Run(func(r *Rank) error {
				if r.ID() == 0 {
					return r.send(1, 0, devBuf(r, vals))
				}
				acc := devBuf(r, acc0)
				if err := r.await(r.irecvAdd(0, 0, acc)); err != nil {
					return err
				}
				if !bytes.Equal(acc.Data, want) {
					t.Error("the accumulator is not its old value plus the message")
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if st, ps := w.FaultStats(), pipeTotals(w); ps.Chunks == 0 || !cell.fired(st, ps) {
				t.Fatalf("the chunked path or the adversary never showed up: faults=%+v pipe=%+v", st, ps)
			}

			for _, pair := range []struct {
				name       string
				fast, slow func(r *Rank, in, out *gpusim.Buffer) error
			}{
				{"ring", (*Rank).RingAllreduceSum, (*Rank).RingAllreduceSumBlocking},
				{"rd", (*Rank).RecursiveDoublingAllreduceSum, (*Rank).RecursiveDoublingAllreduceSumBlocking},
			} {
				const n = 1 << 18 // 1 MiB per rank, 64 KiB chunks
				small := eng
				small.PipelineChunkBytes = 64 << 10
				sums := func(faulty bool, run func(r *Rank, in, out *gpusim.Buffer) error) [][]byte {
					opt := Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2, Engine: small}
					if faulty {
						opt.Faults = &fcfg
					}
					w := mustWorld(t, opt)
					out := make([][]byte, w.Size())
					if _, err := w.Run(func(r *Rank) error {
						buf := emptyDevBuf(r, n)
						out[r.ID()] = buf.Data
						return run(r, devBuf(r, datasets.Smooth(n, uint64(r.ID()+11), 1e-2)), buf)
					}); err != nil {
						t.Fatalf("%s (faults %v): %v", pair.name, faulty, err)
					}
					return out
				}
				fast, slow := sums(true, pair.fast), sums(false, pair.slow)
				for id := range fast {
					if !bytes.Equal(fast[id], slow[id]) {
						t.Errorf("%s rank %d: the pipelined sum under chunk faults differs from the blocking oracle", pair.name, id)
					}
				}
			}
		})
	}
}

// TestAddReceiveDecodeErrorFailsOnce: a reduce step whose message verifies
// but does not decode — its second MPC partition one byte short, the
// checksum restamped over the short payload — fails after one decode
// attempt, which added the first partition into the accumulator once and
// left the second partition's words as they were.
func TestAddReceiveDecodeErrorFailsOnce(t *testing.T) {
	const words = 1 << 19 // 2 MiB: two MPC partitions of words/2
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}})
	vals, acc0 := datasets.Smooth(words, 3, 1e-2), datasets.Smooth(words, 4, 1e-2)
	want := core.FloatsToBytes(nil, acc0)
	core.AddFloat32s(want[:2*words], core.FloatsToBytes(nil, vals[:words/2]))
	var stepErr error
	if _, err := w.Run(func(r *Rank) error {
		tag := r.collTag(baseReduce)
		if r.ID() == 0 {
			payload, hdr := r.Engine.Compress(r.Clock, devBuf(r, vals))
			if len(hdr.PartBytes) != 2 {
				return fmt.Errorf("%d partitions, want 2", len(hdr.PartBytes))
			}
			payload = payload[:len(payload)-1]
			hdr.PartBytes[1]--
			hdr.CompBytes--
			hdr.Checksum = core.Checksum(payload)
			return r.await(r.isendPayload(1, tag, payload, hdr, nil))
		}
		acc := devBuf(r, acc0)
		stepErr = r.ringReduceStep(-1, 0, tag, acc, acc, span{}, span{n: acc.Len()}, 0, false)
		if !bytes.Equal(acc.Data, want) {
			t.Error("the accumulator is not the first partition added once and the second left alone")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if stepErr == nil {
		t.Fatal("a message that does not decode completed the reduce step")
	}
	if e := w.Rank(1).Engine; e.Decompressions != 1 || e.HostSnapshot().DecodeJobs != 1 {
		t.Fatalf("%d decompressions and %d decode jobs, want one attempt (%v)", e.Decompressions, e.HostSnapshot().DecodeJobs, stepErr)
	}
}
