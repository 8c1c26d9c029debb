package mpi

import (
	"hash/crc32"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// workerSoak replays a fixed traffic mix — compressed point-to-point
// ping-pong plus a bcast and a ring allreduce, over a faulty fabric — with
// the given codec worker-pool size, and returns the makespan, the fault
// counters, and a CRC of every rank's final receive buffers. Everything
// returned must be independent of the worker count.
func workerSoak(t *testing.T, workers int) (simtime.Time, faults.Stats, []uint32) {
	t.Helper()
	const ranks = 4
	w := mustWorld(t, Options{
		Cluster: hw.Lassen(), Nodes: 2, PPN: 2,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
			Threshold: 64 << 10, PoolBufBytes: 8 << 20, Workers: workers},
		Faults: &faults.Config{Seed: 33, DropRate: 0.05, CorruptRate: 0.05},
	})
	crcs := make([]uint32, ranks)
	times, err := w.Run(func(r *Rank) error {
		const words = 1 << 18 // 1 MB: compressed, 2 MPC partitions
		peer := r.ID() ^ 1
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
		t.Fatalf("workers=%d: soak failed: %v", workers, err)
	}
	return MaxTime(times), w.FaultStats(), crcs
}

// TestWorkerCountSoakDeterminism is the transport-level half of the
// determinism guarantee: the same seeded faulty run produces identical
// makespans, fault counters, and received bytes for codec pool sizes 1,
// 2, and 8 — host parallelism is invisible above the virtual clock.
func TestWorkerCountSoakDeterminism(t *testing.T) {
	refTime, refStats, refCRCs := workerSoak(t, 1)
	if refStats.Drops == 0 && refStats.Corruptions == 0 {
		t.Fatalf("the adversary never showed up: %+v", refStats)
	}
	for _, workers := range []int{2, 8} {
		mt, st, crcs := workerSoak(t, workers)
		if mt != refTime {
			t.Errorf("workers=%d: makespan %v, serial %v", workers, mt, refTime)
		}
		if st != refStats {
			t.Errorf("workers=%d: fault stats %+v, serial %+v", workers, st, refStats)
		}
		for rank, c := range crcs {
			if c != refCRCs[rank] {
				t.Errorf("workers=%d: rank %d data CRC %08x, serial %08x", workers, rank, c, refCRCs[rank])
			}
		}
	}
}
