package mpi

import (
	"bytes"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
	"mpicomp/internal/trace"
)

func pipelineCfg(chunk int) core.Config {
	return core.Config{
		Mode: core.ModeOpt, Algorithm: core.AlgoMPC,
		PipelineChunkBytes: chunk,
	}
}

func TestPipelinedTransferLossless(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: pipelineCfg(1 << 20),
	})
	vals := datasets.Smooth(4<<20, 13, 1e-3) // 16 MB = 16 chunks
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
				t.Errorf("pipelined MPC must be lossless: value %d differs", i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every chunk was compressed independently.
	if c := w.Rank(0).Engine.Compressions; c != 16 {
		t.Fatalf("expected 16 chunk compressions, got %d", c)
	}
}

func TestPipelinedZFPWithinTolerance(t *testing.T) {
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 16, PipelineChunkBytes: 1 << 20},
	})
	vals := datasets.Smooth(2<<20, 17, 1e-3)
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
			d := float64(got[i] - vals[i])
			if d < 0 {
				d = -d
			}
			if d > 1e-3*float64(vals[i]) {
				t.Errorf("pipelined ZFP error too large at %d", i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPipelineOverlapsStages(t *testing.T) {
	// The pipeline must beat whole-message compression for a large
	// message whose compress/transfer/decompress stages are comparable.
	vals := datasets.Smooth(8<<20, 19, 1e-4) // 32 MB
	latency := func(cfg core.Config) simtime.Duration {
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
	whole := latency(core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1})
	piped := latency(pipelineCfg(2 << 20))
	if piped >= whole {
		t.Fatalf("pipelined (%v) should beat whole-message (%v)", piped, whole)
	}
}

func TestPipelineSmallMessagesFallBack(t *testing.T) {
	// Messages below 2x the chunk size take the ordinary path.
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: pipelineCfg(4 << 20),
	})
	vals := datasets.Smooth(1<<20, 23, 1e-3) // 4 MB < 2*4MB
	_, err := w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, vals))
		}
		return r.Recv(0, 0, emptyDevBuf(r, len(vals)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := w.Rank(0).Engine.Compressions; c != 1 {
		t.Fatalf("small message should compress whole: %d compressions", c)
	}
}

func TestPipelinedBidirectionalExchange(t *testing.T) {
	// The halo pattern with pipelining enabled must stay deadlock-free.
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: pipelineCfg(512 << 10),
	})
	vals := datasets.Smooth(1<<20, 29, 1e-3)
	_, err := w.Run(func(r *Rank) error {
		peer := 1 - r.ID()
		recv := emptyDevBuf(r, len(vals))
		rq, err := r.Irecv(peer, 0, recv)
		if err != nil {
			return err
		}
		sq, err := r.Isend(peer, 0, devBuf(r, vals))
		if err != nil {
			return err
		}
		if err := r.Waitall(sq, rq); err != nil {
			return err
		}
		got := core.BytesToFloats(recv.Data)
		for i := range vals {
			if got[i] != vals[i] {
				t.Errorf("rank %d: pipelined exchange corrupted %d", r.ID(), i)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTracerRecordsTimeline(t *testing.T) {
	tr := trace.New()
	w, err := NewWorld(Options{
		Cluster: hw.Longhorn(), Nodes: 2, PPN: 1,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1},
		Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := datasets.Smooth(1<<20, 31, 1e-3)
	_, err = w.Run(func(r *Rank) error {
		if r.ID() == 0 {
			return r.Send(1, 0, devBuf(r, vals))
		}
		return r.Recv(0, 0, emptyDevBuf(r, len(vals)))
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer should have recorded events")
	}
	tracks := map[string]bool{}
	names := map[string]bool{}
	for _, e := range tr.Events() {
		tracks[e.Track] = true
		names[e.Name] = true
		if e.End < e.Start {
			t.Fatal("negative interval")
		}
	}
	for _, want := range []string{"rank 0", "rank 1", "net 0->1"} {
		if !tracks[want] {
			t.Fatalf("missing track %q (have %v)", want, tracks)
		}
	}
	if !names["Compression Kernel"] || !names["transfer"] {
		t.Fatalf("missing expected event names: %v", names)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty trace output")
	}
}
