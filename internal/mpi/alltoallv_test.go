package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
	"mpicomp/internal/trace"
)

// TestAlltoallvDecodesOnArrival: each rank decodes its Alltoallv arrivals
// in the order they landed, each as soon as the payload is there, the
// rank has prepared its own segments and the previous decode is done —
// not after the barrier waves that order the fabric bookings. On the
// ragged 2x2 MPC exchange, with every segment compressed, the trace must
// show per rank: one decode kernel per arrival; the k-th decode starting
// no earlier than the k-th arrival (by landing instant, then source) and
// no later than the latest of that arrival, the end of the rank's
// preparation and the previous decode's end, plus the fixed charges ahead
// of a decode kernel; the arrival's verification pass inside that gap,
// chained behind the previous decode, not run from the landing alongside
// the rank's other work; and decode kernel lengths ordered like the sizes
// of the arrivals they are paired with. Decoding each arrival after its
// step's waves starts the decodes well over a hundred microseconds late.
func TestAlltoallvDecodesOnArrival(t *testing.T) {
	const seg = 1 << 20
	tr := trace.New()
	spec := hw.Longhorn()
	w := mustWorld(t, Options{Cluster: spec, Nodes: 2, PPN: 2, Tracer: tr,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, PipelineChunkBytes: -1}})
	runRagged(t, w, seg, 1, nil)
	// Ahead of its kernel a decode pays the payload's verification pass,
	// a staging-pool hit and the d_off kernel's launch (6.2 us on
	// Longhorn); the slack leaves room for them.
	slack := 2 * spec.GPU.KernelLaunch
	// longer compares two kernels' lengths, within a microsecond alike.
	longer := func(a, b trace.Event) int {
		switch d := a.End.Sub(a.Start) - b.End.Sub(b.Start); {
		case d > simtime.Microsecond:
			return 1
		case d < -simtime.Microsecond:
			return -1
		}
		return 0
	}
	type arrival struct {
		src, bytes int
		at         simtime.Time
	}
	events := tr.Events()
	for me := 0; me < w.Size(); me++ {
		var arrivals []arrival
		var decodes, compressions, checksums []trace.Event
		for _, e := range events {
			var src, dst int
			switch {
			case e.Name == "transfer":
				if _, err := fmt.Sscanf(e.Track, "net %d->%d", &src, &dst); err != nil {
					t.Fatalf("transfer track %q: %v", e.Track, err)
				}
				if dst == me {
					arrivals = append(arrivals, arrival{src, seg * (1 + (src+me)%3), e.End})
				}
			case e.Track != fmt.Sprintf("rank %d", me):
			case e.Name == core.PhaseDecompressKernel.String():
				decodes = append(decodes, e)
			case e.Name == core.PhaseCompressKernel.String():
				compressions = append(compressions, e)
			case e.Name == core.PhaseChecksum.String():
				checksums = append(checksums, e)
			}
		}
		if len(arrivals) != w.Size()-1 || len(decodes) != len(arrivals) || len(compressions) != len(arrivals) {
			t.Fatalf("rank %d: %d arrivals, %d decode kernels, %d compression kernels; want %d of each",
				me, len(arrivals), len(decodes), len(compressions), w.Size()-1)
		}
		slices.SortFunc(arrivals, func(a, b arrival) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src)) })
		byStart := func(a, b trace.Event) int { return cmp.Compare(a.Start, b.Start) }
		slices.SortFunc(decodes, byStart)
		slices.SortFunc(compressions, byStart)
		// The rank has prepared once its last compressed payload is
		// checksummed: the first checksum pass after the last compression
		// kernel.
		lastComp := compressions[len(compressions)-1].End
		prepared := simtime.Time(-1)
		for _, c := range checksums {
			if c.Start >= lastComp && (prepared < 0 || c.Start < prepared) {
				prepared = c.End
			}
		}
		if prepared < 0 {
			t.Fatalf("rank %d: no checksum of its last compressed segment in the trace", me)
		}
		var prevEnd simtime.Time
		for k, d := range decodes {
			a := arrivals[k]
			if d.Start < a.at {
				t.Errorf("rank %d: decode %d starts at %v, before arrival %d (from rank %d) landed at %v", me, k, d.Start, k, a.src, a.at)
			}
			from := max(a.at, prepared, prevEnd)
			if bound := from.Add(slack); d.Start > bound {
				t.Errorf("rank %d: decode %d starts at %v, later than %v = max(arrival %v from rank %d, prepared %v, previous decode's end %v) + %v",
					me, k, d.Start, bound, a.at, a.src, prepared, prevEnd, slack)
			}
			if !slices.ContainsFunc(checksums, func(c trace.Event) bool { return c.Start >= from && c.End <= d.Start }) {
				t.Errorf("rank %d: no verification pass between %v and decode %d's start at %v: arrival %d (from rank %d) was not verified on the decode's clock",
					me, from, k, d.Start, k, a.src)
			}
			prevEnd = d.End
			for j := range k {
				if got, want := longer(decodes[j], d), cmp.Compare(arrivals[j].bytes, a.bytes); got != want {
					t.Errorf("rank %d: decodes %d and %d take %v and %v, but their arrivals (from ranks %d, %d) hold %d and %d bytes: not decoded in arrival order",
						me, j, k, decodes[j].End.Sub(decodes[j].Start), d.End.Sub(d.Start), arrivals[j].src, a.src, arrivals[j].bytes, a.bytes)
				}
			}
		}
	}
}

// TestAlltoallvStagingStaysPooled: an Alltoallv rank holds every landed
// compressed segment's staging slot until its decode, so a rank of P holds
// up to P-1 at once — or, past the pool's eight slots, as many as the pool
// has before it decodes the ones in so far. On the ragged MPC exchange at
// omb's 1 MiB on 2x2, 4x2, 2x4 and 8x1, at its 8 MiB on 2x2 and at 512 KiB
// on 4x4 (15 arrivals a rank) — every segment compressed — no send may
// fall back to uncompressed for want of a slot, every slot must be back
// in the pool after each call (a slot the pool grew by leaves it
// unbalanced), and a second call may add no device allocation to the
// first's.
func TestAlltoallvStagingStaysPooled(t *testing.T) {
	cells := []struct{ nodes, ppn, seg int }{
		{2, 2, 512 << 10}, {4, 2, 512 << 10}, {2, 4, 512 << 10}, {8, 1, 512 << 10},
		{2, 2, 4 << 20}, {4, 4, 256 << 10},
	}
	for _, c := range cells {
		name := fmt.Sprintf("%dx%d/seg=%d", c.nodes, c.ppn, c.seg)
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: c.nodes, PPN: c.ppn,
			Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, PipelineChunkBytes: -1}})
		mallocs := make([]int, w.Size())
		runRagged(t, w, c.seg, 2, func(r *Rank, call int) error {
			var bad []string
			if n := r.Engine.PoolFallbacks; n != 0 {
				bad = append(bad, fmt.Sprintf("%d pool fallbacks", n))
			}
			if free, total := r.Engine.PoolBalance(); free != total {
				bad = append(bad, fmt.Sprintf("staging pool %d/%d free", free, total))
			}
			if call == 0 {
				mallocs[r.ID()] = r.Dev.MallocCount
			} else if n := r.Dev.MallocCount - mallocs[r.ID()]; n != 0 {
				bad = append(bad, fmt.Sprintf("%d device allocations in the second call", n))
			}
			if bad != nil {
				return fmt.Errorf("%s rank %d after call %d: %s", name, r.ID(), call, strings.Join(bad, ", "))
			}
			return nil
		})
	}
}
