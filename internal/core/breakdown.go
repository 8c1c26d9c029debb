package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mpicomp/internal/simtime"
)

// Phase identifies one component of the end-to-end latency, matching the
// stacked-bar categories of the paper's Figures 6, 8 and 10.
type Phase int

const (
	// PhaseMemAlloc is temporary device buffer allocation/free
	// (cudaMalloc/cudaFree, and d_off handling for MPC).
	PhaseMemAlloc Phase = iota
	// PhaseCompressKernel is compression kernel execution including
	// launch and synchronization.
	PhaseCompressKernel
	// PhaseDecompressKernel is decompression kernel execution.
	PhaseDecompressKernel
	// PhaseDataCopy is the compressed-size readback
	// (cudaMemcpy or GDRCopy D2H).
	PhaseDataCopy
	// PhaseCombine is MPC-OPT's partition-combine D2D copies.
	PhaseCombine
	// PhaseStreamField is ZFP's zfp_stream/zfp_field creation on the CPU.
	PhaseStreamField
	// PhaseGridQuery is ZFP's get_max_grid_dims
	// (cudaGetDeviceProperties before ZFP-OPT, cached attribute after).
	PhaseGridQuery
	// PhaseChecksum is the end-to-end payload integrity pass: the
	// CRC32-C kernel over the wire payload on the send side and the
	// verification pass on the receive side.
	PhaseChecksum
	// PhaseComm is network transfer plus everything else
	// ("Comm & Other" in the figures). Filled in by the MPI layer.
	PhaseComm
	numPhases
)

// String implements fmt.Stringer with the figure legend names.
func (p Phase) String() string {
	switch p {
	case PhaseMemAlloc:
		return "Memory Allocation"
	case PhaseCompressKernel:
		return "Compression Kernel"
	case PhaseDecompressKernel:
		return "Decompression Kernel"
	case PhaseDataCopy:
		return "Data Copies (compressed)"
	case PhaseCombine:
		return "Combine data partitions"
	case PhaseStreamField:
		return "zfp_stream/field creation"
	case PhaseGridQuery:
		return "get_max_grid_dims"
	case PhaseChecksum:
		return "Payload checksum"
	case PhaseComm:
		return "Comm & Other"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases lists all phases in display order.
func Phases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// Breakdown accumulates time per phase. The zero value is ready to use.
type Breakdown struct {
	d [numPhases]simtime.Duration
}

// Add accrues dur to phase p.
func (b *Breakdown) Add(p Phase, dur simtime.Duration) {
	if dur > 0 {
		b.d[p] += dur
	}
}

// Get returns the accumulated time of phase p.
func (b *Breakdown) Get(p Phase) simtime.Duration { return b.d[p] }

// Total returns the sum over all phases.
func (b *Breakdown) Total() simtime.Duration {
	var t simtime.Duration
	for _, v := range b.d {
		t += v
	}
	return t
}

// AddAll merges other into b.
func (b *Breakdown) AddAll(other *Breakdown) {
	for i, v := range other.d {
		b.d[i] += v
	}
}

// Scale divides every phase by n (for per-iteration averages).
func (b *Breakdown) Scale(n int) Breakdown {
	if n <= 0 {
		return *b
	}
	var out Breakdown
	for i, v := range b.d {
		out.d[i] = v / simtime.Duration(n)
	}
	return out
}

// Reset zeroes the breakdown.
func (b *Breakdown) Reset() { b.d = [numPhases]simtime.Duration{} }

// String renders the nonzero phases sorted by descending share.
func (b *Breakdown) String() string {
	type kv struct {
		p Phase
		d simtime.Duration
	}
	var items []kv
	for i, v := range b.d {
		if v > 0 {
			items = append(items, kv{Phase(i), v})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].d > items[j].d })
	total := b.Total()
	var sb strings.Builder
	for i, it := range items {
		if i > 0 {
			sb.WriteString(", ")
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(it.d) / float64(total)
		}
		fmt.Fprintf(&sb, "%s=%s (%.1f%%)", it.p, it.d, pct)
	}
	return sb.String()
}

// HostStats records real wall-clock spent executing host-side codec
// work, as opposed to the simulated durations in Breakdown. The two
// never mix: Breakdown drives the figures, HostStats drives performance
// tracking of the reproduction itself (ombrun's wall-clock line).
type HostStats struct {
	// CodecWall is the total wall-clock spent inside codec worker-pool
	// batches (compress + decompress, both algorithms).
	CodecWall time.Duration
	// CodecRuns counts the batches submitted.
	CodecRuns int
	// DecodeJobs counts the decompression batches among them: codec jobs
	// actually run, against the Decompressions the simulation charged —
	// the two differ by the relayed payloads a rank copied out of another
	// rank's decode (Decoded).
	DecodeJobs int
}

// Add merges other into h.
func (h *HostStats) Add(other HostStats) {
	h.CodecWall += other.CodecWall
	h.CodecRuns += other.CodecRuns
	h.DecodeJobs += other.DecodeJobs
}

// timer is a tiny helper that charges elapsed clock time to a phase.
type timer struct {
	clk   *simtime.Clock
	start simtime.Time
}

func startTimer(clk *simtime.Clock) timer { return timer{clk: clk, start: clk.Now()} }

func (t timer) stop(b *Breakdown, p Phase) {
	b.Add(p, t.clk.Now().Sub(t.start))
}
