package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"mpicomp/internal/codecpool"
	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/mpc"
	"mpicomp/internal/simtime"
	"mpicomp/internal/trace"
	"mpicomp/internal/zfp"
)

// ErrChecksum reports an end-to-end integrity failure: the payload's
// CRC32-C does not match the checksum its sender stamped into the header.
var ErrChecksum = errors.New("core: payload checksum mismatch")

// crcTable is the Castagnoli (CRC32-C) polynomial table — the checksum
// InfiniBand and iSCSI use for payload integrity, hardware-accelerated on
// modern CPUs and GPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32-C of a wire payload. It is the pure
// computation; engine paths charge its kernel cost to the virtual clock
// via checksumPayload / VerifyPayload.
func Checksum(payload []byte) uint32 { return crc32.Checksum(payload, crcTable) }

// Engine is one process's on-the-fly compression engine. It owns the
// pre-allocated buffer pools (ModeOpt), the cached device attributes, and
// the per-phase latency accounting the figures are built from.
//
// Engine methods are safe for concurrent use: the MPI runtime's progress
// path may stage a receive (on behalf of a matching sender) while the
// owning rank is compressing an outgoing message, so the engine serializes
// its operations with an internal mutex — mirroring how MVAPICH2's
// progress engine serializes access to its registration caches.
type Engine struct {
	mu  sync.Mutex
	cfg Config
	dev *gpusim.GPUDevice

	// schedTag namespaces compress-once cache keys per collective
	// algorithm schedule (SetScheduleTag). Atomic because the transport's
	// progress path may compress on this engine while the owning rank
	// switches schedules between collectives.
	schedTag atomic.Uint32

	// pool stages compressed payloads; offPool provides MPC's d_off
	// synchronization arrays (Section IV-B optimizations 1 and 2).
	pool    *gpusim.BufferPool
	offPool *gpusim.BufferPool

	// codec runs the real host-side codec work of both directions across
	// worker goroutines (wall-clock only; simulated time stays on the
	// caller — see internal/codecpool and hostpar.go). ar and the four
	// persistent job structs are the per-message scratch that makes
	// steady-state operation allocation-free.
	codec *codecpool.Pool
	ar    arena
	mpcC  mpcCompressJob
	mpcD  mpcDecompressJob
	zfpC  zfpCompressJob
	zfpD  zfpDecompressJob

	// Host accumulates the real wall-clock spent executing host codec
	// work, independent of the virtual clock; ombrun surfaces it so perf
	// regressions are visible from the CLI.
	Host HostStats

	// Stats accumulates the per-phase latency of all operations since
	// the last Reset; the microbenchmarks turn it into Figures 6/8/10.
	Stats Breakdown

	// Compressions / Decompressions / Bypasses count engine activity.
	Compressions   int
	Decompressions int
	Bypasses       int
	// PoolFallbacks counts messages that bypassed compression because
	// the staging pool was exhausted: rather than blocking on (or
	// growing) the pool mid-message, the engine degrades to the
	// uncompressed path and the runtime stays live.
	PoolFallbacks int
	// ChecksumFailures counts end-to-end integrity verification failures
	// observed by VerifyPayload.
	ChecksumFailures int
	// BytesIn / BytesOut accumulate original and compressed bytes over
	// all compressions, giving the achieved compression ratio.
	BytesIn  int64
	BytesOut int64

	// cache holds the compress-once cache (cache.go): recently produced
	// wire payloads keyed by (allocation, range, epoch, link) so fan-out
	// collectives and warm benchmark iterations reuse one kernel's
	// output. cacheBytes is the retained payload total against
	// DefaultCacheBudgetBytes.
	cache      []cacheEntry
	cacheBytes int
	// CacheHits / CacheMisses / CacheInvalidations / CacheEvictions
	// count compress-once cache activity; misses are counted only for
	// cacheable (tracked) buffers.
	CacheHits          int
	CacheMisses        int
	CacheInvalidations int
	CacheEvictions     int
	// RelayedBytes counts wire bytes forwarded verbatim by relay
	// collectives (Bcast, Allgather, the ring allgather phase) without
	// recompression; BytesOut counts freshly compressed wire bytes, so
	// the pair shows how much codec work relaying avoided.
	RelayedBytes int64
	// PipelinedChunks counts the chunks of chunked rendezvous sends.
	PipelinedChunks int
	// pipe accumulates the chunk-granular transport reliability counters
	// (retransmits, credit stalls, window shrinks, degrades, bypasses);
	// PipeSnapshot exposes them (pipestats.go).
	pipe PipelineStats
	// picks is the form chooser's histogram (ChunkPicks).
	picks []int
	// Tracer, when non-nil, receives every phase interval for timeline
	// inspection; Track labels this engine's timeline row.
	Tracer *trace.Collector
	Track  string
	// crEstimate is the EWMA compression-ratio estimate the model prices
	// sends with; probes counts the sends it would leave uncompressed, for
	// the periodic compressibility probe.
	crEstimate float64
	probes     int
	// queued holds the decodes launched and not yet synced (SyncDecodes);
	// held the staging slots handed to them (HoldRecv), released after them.
	queued []queuedDecode
	held   []*gpusim.Buffer
}

// queuedDecode is one decode on the streams: its stream count, its d_off
// slot (nil for ZFP) and its launches' interval, charged at the sync (end
// zero: a failed decode, charged nothing).
type queuedDecode struct {
	streams    int
	dOff       *gpusim.Buffer
	start, end simtime.Time
}

// RatioAchieved reports the cumulative compression ratio since the last
// ResetCounters (1 when nothing was compressed).
func (e *Engine) RatioAchieved() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.BytesOut == 0 {
		return 1
	}
	return float64(e.BytesIn) / float64(e.BytesOut)
}

// ResetCounters clears the per-phase accounting and activity counters.
func (e *Engine) ResetCounters() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Stats.Reset()
	e.Compressions, e.Decompressions, e.Bypasses = 0, 0, 0
	e.PoolFallbacks, e.ChecksumFailures = 0, 0
	e.BytesIn, e.BytesOut = 0, 0
	e.CacheHits, e.CacheMisses, e.CacheInvalidations, e.CacheEvictions = 0, 0, 0, 0
	e.RelayedBytes, e.PipelinedChunks = 0, 0
	e.pipe = PipelineStats{}
	e.picks = nil
	e.Host = HostStats{}
	// Cache entries deliberately survive: a warmed cache is the steady
	// state a measurement window should observe, exactly like the warmed
	// buffer pools.
}

// HostSnapshot returns the accumulated host codec wall-clock stats.
func (e *Engine) HostSnapshot() HostStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Host
}

// CodecWorkers reports the size of the worker pool this engine's real
// codec work runs on.
func (e *Engine) CodecWorkers() int { return e.codec.Workers() }

// runCodec executes a job's parts on the worker pool, accounting the
// real elapsed wall-clock to Host, which never feeds simulated time.
// Called with e.mu held.
func (e *Engine) runCodec(n int, job codecpool.Job) {
	e.Host.CodecWall += e.codec.Run(n, job)
	e.Host.CodecRuns++
}

// runDecode is runCodec for a decompression job writing dst — unless
// decoded holds the output the same job already produced on another rank
// of this process (Decoded), in which case one copy stands in for it. The
// one place a decode is skipped; Host.DecodeJobs counts the ones that ran.
func (e *Engine) runDecode(n int, job codecpool.Job, dst, decoded []byte) {
	if decoded != nil {
		copy(dst, decoded)
		return
	}
	e.runCodec(n, job)
	e.Host.DecodeJobs++
}

// NewEngine builds an engine at initialization time (MPI_Init): ModeOpt
// allocates its buffer pools now, off the critical communication path.
func NewEngine(clk *simtime.Clock, dev *gpusim.GPUDevice, cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults(), dev: dev}
	e.codec = codecpool.Sized(e.cfg.Workers)
	if e.cfg.Mode == ModeOpt && e.cfg.Algorithm != AlgoNone {
		e.pool = gpusim.NewBufferPool(clk, dev, e.cfg.PoolBuffers, e.cfg.PoolBufBytes)
		e.offPool = gpusim.NewBufferPool(clk, dev, e.cfg.PoolBuffers, 4*dev.Spec.SMs)
	}
	return e
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetScheduleTag namespaces subsequent compress-once cache keys under an
// algorithm-schedule tag. Collective dispatch brackets each algorithm
// with a distinct tag (0 outside any bracket) so comparing schedules over
// the same unchanged buffer measures each one's own cache behavior
// rather than reusing a rival schedule's warm entries.
func (e *Engine) SetScheduleTag(tag uint32) {
	if e == nil {
		return
	}
	e.schedTag.Store(tag)
}

// Device returns the engine's GPU.
func (e *Engine) Device() *gpusim.GPUDevice { return e.dev }

// message is what the framework compresses or restores: packed bytes
// [off, off+n) of the words layout t selects from buf. A nil layout is a
// contiguous message, whose packed stream is buf.Data itself; a layout is
// an optional argument of the one path, not a second path. Layouts are
// validated at the API boundary (mpi.IsendTyped / IrecvTyped / Alltoallv):
// the send side assumes t.Validate(buf.Len()) passed and
// 0 <= off <= off+n <= t.Size(). add, on a contiguous receive, lands the
// restored words by adding them into buf's (DecompressAdd).
type message struct {
	buf    *gpusim.Buffer
	t      dtype.Type
	off, n int
	add    bool
}

// whole is the message covering all of buf (nil layout) or all of t.
func whole(buf *gpusim.Buffer, t dtype.Type) message {
	if t == nil {
		return message{buf: buf, n: buf.Len()}
	}
	return message{buf: buf, t: t, n: t.Size()}
}

// ShouldCompressPacked implements the framework's eligibility test (step 1
// of Figure 4) over a packed wire size n — a message's length, a layout's
// t.Size(), or one pipeline chunk: device-resident data, size at or above
// the threshold, a 4-byte-aligned length, and compression enabled.
func (e *Engine) ShouldCompressPacked(buf *gpusim.Buffer, n int) bool {
	if e == nil || e.cfg.Mode == ModeOff || e.cfg.Algorithm == AlgoNone {
		return false
	}
	if buf.Loc != gpusim.Device {
		return false
	}
	if n < e.cfg.Threshold || n%4 != 0 {
		return false
	}
	return true
}

// eligible is the eligibility test for m. The codecs read a contiguous
// message's bytes wherever they start, but gather a layout word by word,
// so only a layout needs its packed offset word-aligned.
func (e *Engine) eligible(m message) bool {
	if m.t != nil && m.off%4 != 0 {
		return false
	}
	return e.ShouldCompressPacked(m.buf, m.n)
}

// Compress runs the send-side framework (Algorithms 1 and 3): it launches
// the compression kernel(s), performs the size readback, and returns the
// payload to put on the wire plus the header to piggyback on the RTS.
// If the message is not eligible the raw bytes are returned with an
// uncompressed header (the baseline path). Every returned header carries
// the CRC32-C of the wire payload, computed here and charged to the
// virtual clock like any other kernel, so receivers can verify integrity
// end-to-end regardless of whether the payload was compressed.
func (e *Engine) Compress(clk *simtime.Clock, buf *gpusim.Buffer) ([]byte, Header) {
	return e.CompressTyped(clk, buf, nil)
}

// CompressTyped is Compress over the words t selects from buf (all of buf
// when t is nil). The layout feeds the codec pipelines directly — each
// codec part gathers its own packed range into worker scratch (typed.go
// typedView) — so a strided message costs no pack pass and no staging
// allocation. Partitioning, kernel charges and headers are all
// computed over the packed size, so the wire payload is bit-identical to
// Pack-then-Compress by construction; the differential oracle in
// typed_test.go and the awpodc halo test pin that equivalence.
func (e *Engine) CompressTyped(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type) ([]byte, Header) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return snapshot(e.compressLocked(clk, whole(buf, t)))
}

// snapshot copies a payload view and its partition table for transport
// ownership: the view aliases the engine arena (or the user buffer, on a
// contiguous bypass), both of which outlive the call and get reused,
// while the wire payload and the header may sit in flight indefinitely
// (envelopes, collective relays and the cache retain them), and a sender
// reusing its buffer after local completion must not corrupt them.
func snapshot(view []byte, hdr Header) ([]byte, Header) {
	if hdr.PartBytes != nil {
		hdr.PartBytes = append([]int(nil), hdr.PartBytes...)
	}
	return append([]byte(nil), view...), hdr
}

// CompressAppend is the scratch-reuse variant of Compress: the wire
// payload is appended to dst (zero heap allocations once dst has
// capacity), and the returned header's PartBytes table aliases engine
// scratch that is valid only until the engine's next compression.
// Callers that retain the payload or header beyond that — anything that
// hands them to the transport — must use Compress.
func (e *Engine) CompressAppend(clk *simtime.Clock, buf *gpusim.Buffer, dst []byte) ([]byte, Header) {
	e.mu.Lock()
	defer e.mu.Unlock()
	view, hdr := e.compressLocked(clk, whole(buf, nil))
	return append(dst, view...), hdr
}

// compressLocked runs the send-side framework on m and returns a payload
// view that aliases engine-owned scratch (or buf.Data on a contiguous
// bypass); callers materialize it according to their ownership contract.
func (e *Engine) compressLocked(clk *simtime.Clock, m message) ([]byte, Header) {
	if !e.eligible(m) {
		e.Bypasses++
		return e.bypassViewLocked(clk, m)
	}
	// Graceful degradation: if the ModeOpt staging pool has no free
	// buffer, send uncompressed instead of blocking on the pool (or
	// paying a mid-message cudaMalloc). A transient burst of in-flight
	// receives can drain the shared pool; the uncompressed path keeps
	// the runtime live and the pool recovers as receives complete.
	if e.poolExhaustedLocked() {
		e.PoolFallbacks++
		return e.bypassViewLocked(clk, m)
	}
	c := codecFor(e.cfg.Algorithm)
	if c == nil {
		panic("core: unreachable algorithm")
	}
	e.Compressions++
	src, view := span(m)
	payload, hdr := c.compress(e, clk, src, m.n, view)
	hdr.Checksum = e.checksumLocked(clk, payload)
	e.BytesIn += int64(hdr.OrigBytes)
	e.BytesOut += int64(hdr.CompBytes)
	e.observeRatio(hdr.Ratio())
	return payload, hdr
}

// span resolves m for the codec kernels: a contiguous message is its own
// byte range; a layout hands the kernels the whole buffer plus the plan
// they gather through (or scatter through), starting at packed offset off.
func span(m message) ([]byte, typedView) {
	if m.t == nil {
		return m.buf.Data[m.off : m.off+m.n], typedView{add: m.add}
	}
	return m.buf.Data, typedView{plan: m.t.Plan(), base: m.off}
}

// bypassViewLocked returns m's packed bytes as an uncompressed wire
// payload view with a checksummed AlgoNone header; callers snapshot as
// needed. A contiguous message points at the user's bytes for free; a
// strided one must actually be packed to travel uncompressed, so it is
// gathered into the arena and one pack pass is charged.
func (e *Engine) bypassViewLocked(clk *simtime.Clock, m message) ([]byte, Header) {
	view := m.buf.Data[m.off : m.off+m.n]
	if m.t != nil {
		view = e.ar.packedFor(m.n)
		m.t.Plan().Gather(view, m.buf.Data, m.off)
		e.packChargeLocked(clk, m.n)
	}
	hdr := Header{Algo: AlgoNone, OrigBytes: m.n, CompBytes: m.n}
	hdr.Checksum = e.checksumLocked(clk, view)
	return view, hdr
}

// BypassChunk produces the uncompressed wire form of packed bytes
// [off, off+n) of the words t selects from buf (of buf itself when t is
// nil) — a checksummed AlgoNone header over a snapshot of the bytes —
// regardless of the message's compression eligibility. The runtime uses it
// when the codec circuit breaker has opened for the destination: the
// message must still travel, just not through the codec. Counted as a
// Bypass.
func (e *Engine) BypassChunk(clk *simtime.Clock, buf *gpusim.Buffer, t dtype.Type, off, n int) ([]byte, Header) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Bypasses++
	return snapshot(e.bypassViewLocked(clk, message{buf: buf, t: t, off: off, n: n}))
}

// PoolBalance reports the staging pool's free and total buffer counts
// (both zero without a pool). A quiesced runtime must show free == total:
// the health tests assert this after every aborted collective to catch
// staged buffers leaked by an abandoned request.
func (e *Engine) PoolBalance() (free, total int) {
	if e == nil || e.pool == nil {
		return 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pool.FreeCount(), e.cfg.PoolBuffers
}

// OffPoolBalance is PoolBalance for MPC's d_off pool, whose slots the
// decodes queued on the streams hold until SyncDecodes.
func (e *Engine) OffPoolBalance() (free, total int) {
	if e == nil || e.offPool == nil {
		return 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offPool.FreeCount(), e.cfg.PoolBuffers
}

// poolExhaustedLocked reports whether the ModeOpt staging pool cannot
// serve a compression without growing.
func (e *Engine) poolExhaustedLocked() bool {
	if e.pool == nil {
		return false
	}
	if e.pool.FreeCount() == 0 {
		return true
	}
	c := codecFor(e.cfg.Algorithm)
	return c != nil && c.needsOffPool && e.offPool.FreeCount() == 0
}

// checksumLocked computes the payload's CRC32-C, charging the cost of one
// memory-bound GPU pass over the payload (the checksum kernel reads each
// byte once; HBM bandwidth bounds it).
func (e *Engine) checksumLocked(clk *simtime.Clock, payload []byte) uint32 {
	t := startTimer(clk)
	clk.Advance(simtime.ThroughputTime(len(payload), e.dev.Spec.MemBWGBps*8))
	e.charge(t, PhaseChecksum)
	return Checksum(payload)
}

// ChecksumWire computes and charges the checksum of a wire payload that
// does not flow through Compress (the eager protocol sends the user bytes
// directly, with no compression header builder of its own).
func (e *Engine) ChecksumWire(clk *simtime.Clock, payload []byte) uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checksumLocked(clk, payload)
}

// VerifyPayload checks a received payload against the checksum in its
// header, charging the verification pass to the receiver's clock. It
// returns ErrChecksum (wrapped) on mismatch.
func (e *Engine) VerifyPayload(clk *simtime.Clock, hdr Header, payload []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if got := e.checksumLocked(clk, payload); got != hdr.Checksum {
		e.ChecksumFailures++
		return fmt.Errorf("%w: got %08x, header says %08x (%d payload bytes)",
			ErrChecksum, got, hdr.Checksum, len(payload))
	}
	return nil
}

// compressMPC implements both the naive MPC path and MPC-OPT. The
// returned payload aliases the engine arena. src holds the message bytes
// (contiguous when view is zero; otherwise the full source buffer whose
// strided runs the workers gather during their read pass), and n is the
// packed message size — every kernel charge and partition decision is
// over packed bytes, so a typed message costs exactly what the same
// bytes would cost pre-packed.
func (e *Engine) compressMPC(clk *simtime.Clock, src []byte, n int, view typedView) ([]byte, Header) {
	nWords := n / 4
	opt := e.cfg.Mode == ModeOpt

	// --- temporary device buffers (compressed output + d_off) ---
	t := startTimer(clk)
	bound := mpc.Bound(nWords)
	tmp := e.take(clk, e.pool, bound)
	dOff := e.take(clk, e.offPool, 4*e.dev.Spec.SMs)
	// d_off must be initialized to -1 before each kernel (a small
	// memset launch).
	e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{Blocks: 1, Bytes: 4 * e.dev.Spec.SMs, ThroughputGbps: e.dev.Spec.MemBWGBps * 8})
	e.charge(t, PhaseMemAlloc)

	// --- compression kernel(s) ---
	parts := 1
	if opt {
		parts = DefaultPartitions(n, e.cfg.MaxPartitions)
	}
	ranges := e.ar.rangesFor(nWords, parts)

	// MPC by design launches one block per SM and busy-waits for
	// inter-block synchronization; MPC-OPT decomposes it into `parts`
	// kernels on independent streams, each using SMs/parts blocks
	// (Figure 7).
	t = startTimer(clk)
	blocks := max(e.dev.Spec.SMs/parts, 1)
	for i, rg := range ranges {
		e.dev.LaunchKernel(clk, e.dev.Stream(i), gpusim.KernelSpec{
			Blocks:         blocks,
			Bytes:          4 * (rg[1] - rg[0]),
			ThroughputGbps: e.dev.Spec.MPCCompressGbps,
			BusyWaitSync:   true,
		})
	}
	for i := range ranges {
		e.dev.StreamSync(clk, e.dev.Stream(i))
	}
	// The real compression work (data content is exact): partitions are
	// independent streams, so they encode concurrently, each into a
	// bound-sized region of the arena. Partition boundaries are 32-word
	// aligned, so the per-partition bounds tile mpc.Bound(nWords) exactly.
	comp := e.ar.compFor(bound)
	outs := e.ar.outsFor(parts)
	off := 0
	for i, rg := range ranges {
		b := mpc.Bound(rg[1] - rg[0])
		outs[i] = comp[off : off : off+b]
		off += b
	}
	e.mpcC = mpcCompressJob{
		src: src, ranges: ranges, dim: e.cfg.MPCDim, view: view,
		outs: outs, errs: e.ar.errsFor(parts),
	}
	e.runCodec(parts, &e.mpcC)
	if i, err := firstErr(e.mpcC.errs); err != nil {
		panic(fmt.Sprintf("core: mpc compress partition %d: %v", i, err))
	}
	e.charge(t, PhaseCompressKernel)

	// --- size readback (the "B" header field, Figure 4 step 3) ---
	t = startTimer(clk)
	sizeWord := e.ar.sizeWord[:]
	for range ranges {
		if opt {
			e.dev.GDRCopyD2HSmall(clk, sizeWord, sizeWord)
		} else {
			e.dev.MemcpyD2HSmall(clk, sizeWord, sizeWord)
		}
	}
	e.charge(t, PhaseDataCopy)

	// --- combine partitions into one contiguous buffer (Figure 7) ---
	hdr := Header{
		Algo: AlgoMPC, Compressed: true,
		OrigBytes: n, Dim: e.cfg.MPCDim,
	}
	hdr.PartBytes = e.ar.partBytesFor(parts)
	var payload []byte
	if parts == 1 {
		payload = outs[0]
		hdr.PartBytes[0] = len(payload)
	} else {
		t = startTimer(clk)
		total := 0
		for _, p := range outs {
			total += len(p)
		}
		if cap(e.ar.payload) < total {
			e.ar.payload = make([]byte, 0, total)
		}
		payload = e.ar.payload[:0]
		for i, p := range outs {
			// Combine copies follow a fixed order; partition 0 is
			// already in place, later ones are moved D2D (into tmp, a
			// reservation: the host-side combine is the append below).
			if i > 0 {
				e.dev.CopyD2D(clk, e.dev.Stream(0), len(p))
			}
			payload = append(payload, p...)
			hdr.PartBytes[i] = len(p)
		}
		e.ar.payload = payload
		e.dev.StreamSync(clk, e.dev.Stream(0))
		e.charge(t, PhaseCombine)
	}
	hdr.CompBytes = len(payload)

	// --- release temporaries ---
	t = startTimer(clk)
	e.give(clk, e.pool, tmp)
	e.give(clk, e.offPool, dOff)
	e.charge(t, PhaseMemAlloc)

	return payload, hdr
}

// compressZFP implements the naive ZFP path and ZFP-OPT. The returned
// payload aliases the engine arena; src, n, and view follow the
// compressMPC contract.
func (e *Engine) compressZFP(clk *simtime.Clock, src []byte, n int, view typedView) ([]byte, Header) {
	nVals := n / 4
	opt := e.cfg.Mode == ModeOpt

	// --- zfp_stream / zfp_field construction (CPU-side) ---
	t := startTimer(clk)
	clk.Advance(zfpStreamSetup)
	e.charge(t, PhaseStreamField)

	// --- get_max_grid_dims: the dominant naive overhead (Fig. 8a) ---
	t = startTimer(clk)
	e.dev.MaxGridDims(clk, opt)
	e.charge(t, PhaseGridQuery)

	// --- temporary device buffer for the compressed stream ---
	t = startTimer(clk)
	compSize, err := zfp.CompressedSize(nVals, e.cfg.ZFPRate)
	if err != nil {
		panic(fmt.Sprintf("core: zfp size: %v", err))
	}
	tmp := e.take(clk, e.pool, compSize)
	e.charge(t, PhaseMemAlloc)

	// --- compression kernel ---
	t = startTimer(clk)
	e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{
		Blocks:         e.dev.Spec.SMs,
		Bytes:          n,
		ThroughputGbps: zfpKernelGbps(e.dev.Spec.ZFPCompressGbps, e.cfg.ZFPRate),
	})
	e.dev.StreamSync(clk, e.dev.Stream(0))
	// The real compression work: independent byte-aligned chunk rows
	// encode concurrently, each directly into its exact region of the
	// output (blocks are position-fixed, so chunking cannot change the
	// bytes; see hostpar.go).
	nChunks := (nVals + zfpChunkValues - 1) / zfpChunkValues
	payload := e.ar.compFor(compSize)
	e.zfpC = zfpCompressJob{
		src: src, out: payload, rate: e.cfg.ZFPRate,
		nVals: nVals, view: view, errs: e.ar.errsFor(nChunks),
	}
	e.runCodec(nChunks, &e.zfpC)
	if i, err := firstErr(e.zfpC.errs); err != nil {
		panic(fmt.Sprintf("core: zfp compress chunk %d: %v", i, err))
	}
	e.charge(t, PhaseCompressKernel)

	// ZFP's compressed size is predictable, so no readback is needed
	// (Section III-A).
	hdr := Header{
		Algo: AlgoZFP, Compressed: true,
		OrigBytes: n, CompBytes: len(payload), Rate: e.cfg.ZFPRate,
	}

	t = startTimer(clk)
	e.give(clk, e.pool, tmp)
	e.charge(t, PhaseMemAlloc)

	return payload, hdr
}

// StageRecv prepares the receive-side temporary device buffer for an
// incoming compressed payload (done between RTS match and CTS so the
// sender can RDMA into it). Returns nil for uncompressed messages.
func (e *Engine) StageRecv(clk *simtime.Clock, hdr Header) *gpusim.Buffer {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !hdr.Compressed {
		return nil
	}
	t := startTimer(clk)
	defer e.charge(t, PhaseMemAlloc)
	return e.take(clk, e.pool, hdr.CompBytes)
}

// ReleaseRecv returns/frees the staging buffer after decompression.
func (e *Engine) ReleaseRecv(clk *simtime.Clock, staged *gpusim.Buffer) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if staged == nil {
		return
	}
	t := startTimer(clk)
	defer e.charge(t, PhaseMemAlloc)
	e.give(clk, e.pool, staged)
}

// take is Section III's allocation decision, made in one place: a
// temporary device buffer of n bytes from p (the staging pool or the d_off
// pool) under the optimized design, a cudaMalloc otherwise.
func (e *Engine) take(clk *simtime.Clock, p *gpusim.BufferPool, n int) *gpusim.Buffer {
	if e.cfg.Mode == ModeOpt {
		return p.Get(clk, n)
	}
	return e.dev.Reserve(clk, n)
}

// give returns a buffer take handed out: back to p, or cudaFree.
func (e *Engine) give(clk *simtime.Clock, p *gpusim.BufferPool, b *gpusim.Buffer) {
	if e.cfg.Mode == ModeOpt {
		p.Put(b)
		return
	}
	e.dev.Free(clk, b)
}

// Decompress runs the receive-side framework (Algorithm 2): given the RTS
// header and the received payload, it launches the decompression kernel(s),
// syncs them (SyncDecodes) and writes the restored data into dst.
//
// A truncated, padded, or otherwise malformed (header, payload) pair —
// whatever a faulty fabric or a corrupted RTS could produce — yields an
// error, never a panic and never silently short output. The codecs decode
// straight into dst, so after an error the first hdr.OrigBytes bytes of
// dst are unspecified (a corrupt MPC partition leaves its range partly
// written and the other partitions decoded); the transport re-requests or
// fails the message and never hands such a buffer to the application.
func (e *Engine) Decompress(clk *simtime.Clock, hdr Header, payload []byte, dst *gpusim.Buffer) error {
	return e.DecompressChunk(clk, hdr, payload, dst, nil, 0)
}

// DecompressTyped restores a typed message: each codec part decodes into
// worker scratch and scatters into the strided positions t selects in dst
// (no message-sized staging copy, no unpack pass). A part scatters only
// if it decoded, but parts are independent, so as with Decompress the
// selected positions of dst are unspecified after an error; bytes t does
// not select are never written.
func (e *Engine) DecompressTyped(clk *simtime.Clock, hdr Header, payload []byte, dst *gpusim.Buffer, t dtype.Type) error {
	return e.DecompressChunk(clk, hdr, payload, dst, t, 0)
}

// DecompressChunk restores one chunk of a message into the packed
// positions starting at packed byte offset off: of the words t selects in
// dst, or of dst itself when t is nil.
func (e *Engine) DecompressChunk(clk *simtime.Clock, hdr Header, payload []byte, dst *gpusim.Buffer, t dtype.Type, off int) error {
	defer e.SyncDecodes(clk)
	return e.decompress(clk, hdr, payload, message{buf: dst, t: t, off: off, n: hdr.OrigBytes}, nil)
}

// DecompressAdd is the receive of a reduction step: DecompressChunk into
// the contiguous bytes of dst at offset off, except that each restored
// float32 word is added into the word there (AddFloat32s) instead of
// stored. Each codec part decodes into worker scratch and adds its range
// once it decoded; an uncompressed payload adds straight from the wire. The
// simulated side is DecompressChunk's to the last charge — the add's own
// kernel is the caller's to charge — and the message must be whole words.
// After an error, the parts that decoded have added and the others have
// not, so the caller fails the step rather than adding the message again.
func (e *Engine) DecompressAdd(clk *simtime.Clock, hdr Header, payload []byte, dst *gpusim.Buffer, off int) error {
	if hdr.OrigBytes%4 != 0 {
		return fmt.Errorf("core: an added message must be whole float32 words, got %d bytes", hdr.OrigBytes)
	}
	defer e.SyncDecodes(clk)
	return e.decompress(clk, hdr, payload, message{buf: dst, off: off, n: hdr.OrigBytes, add: true}, nil)
}

// SyncDecodes is the one host sync of decoding: it waits for the queued
// decodes stream by stream in index order, then hands back their d_off
// slots and, after them, the staging slots held for them (HoldRecv). It
// goes where the bytes are first needed: right after the decode in the
// entry points above, at the end of a relay's collective step
// (DecompressRelayed leaves its decode queued).
func (e *Engine) SyncDecodes(clk *simtime.Clock) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncDecodesLocked(clk)
	for _, b := range e.held {
		t := startTimer(clk)
		e.give(clk, e.pool, b)
		e.charge(t, PhaseMemAlloc)
	}
	e.held = nil
}

// HoldRecv hands a receive's staging slot (nil: none) to the decode queue:
// the next SyncDecodes releases it as ReleaseRecv would, after the queued
// decodes, even when its own decode failed or never queued.
func (e *Engine) HoldRecv(staged *gpusim.Buffer) {
	if staged == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.held = append(e.held, staged)
}

// HeldRecvs reports how many staging slots the decode queue holds.
func (e *Engine) HeldRecvs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.held)
}

func (e *Engine) syncDecodesLocked(clk *simtime.Clock) {
	if len(e.queued) == 0 {
		return
	}
	// A decode whose launches ended just now (a point-to-point receive's)
	// is charged as one interval with the sync, as it always was.
	t := startTimer(clk)
	for _, q := range e.queued {
		switch {
		case q.end == t.start:
			t.start = q.start
		case q.end > 0:
			e.chargeSpan(PhaseDecompressKernel, q.start, q.end)
		}
	}
	for i := range e.queued[0].streams {
		e.dev.StreamSync(clk, e.dev.Stream(i))
	}
	e.charge(t, PhaseDecompressKernel)
	for _, q := range e.queued {
		if q.dOff != nil {
			t = startTimer(clk)
			e.give(clk, e.offPool, q.dOff)
			e.charge(t, PhaseMemAlloc)
		}
	}
	e.queued = e.queued[:0]
}

// decompress runs the receive-side framework into m (whose n is the
// header's OrigBytes). Everything is validated before the first byte of
// m.buf is written. decoded, when non-nil, is the output another rank's
// codec job already produced from these bytes (DecompressRelayed); it
// reaches runDecode and nothing else.
func (e *Engine) decompress(clk *simtime.Clock, hdr Header, payload []byte, m message, decoded []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if hdr.OrigBytes < 0 || hdr.CompBytes < 0 {
		return fmt.Errorf("core: corrupt header (orig=%d comp=%d)", hdr.OrigBytes, hdr.CompBytes)
	}
	if len(payload) != hdr.CompBytes {
		return fmt.Errorf("core: payload is %d bytes, header says %d", len(payload), hdr.CompBytes)
	}
	capacity := m.buf.Len()
	if m.t != nil {
		if err := m.t.Validate(m.buf.Len()); err != nil {
			return fmt.Errorf("core: typed decompress: %w", err)
		}
		capacity = m.t.Size()
	}
	if m.off < 0 || m.n > capacity-m.off {
		return fmt.Errorf("core: chunk [%d, %d) exceeds the destination's %d packed bytes", m.off, m.off+m.n, capacity)
	}
	if !hdr.Compressed {
		if len(payload) != m.n {
			return fmt.Errorf("core: uncompressed payload %d bytes, header says %d original", len(payload), m.n)
		}
		switch {
		case m.add:
			AddFloat32s(m.buf.Data[m.off:m.off+m.n], payload)
		case m.t == nil:
			copy(m.buf.Data[m.off:], payload)
		default:
			// The uncompressed form arrives packed; scattering it back out is
			// a real unpack pass, charged like the sender's pack.
			m.t.Plan().Scatter(m.buf.Data, m.off, payload)
			e.packChargeLocked(clk, m.n)
		}
		m.buf.MarkDirty()
		return nil
	}
	if m.n%4 != 0 || (m.t != nil && m.off%4 != 0) {
		return fmt.Errorf("core: compressed chunk [%d, %d) is not word-aligned", m.off, m.off+m.n)
	}
	e.Decompressions++
	c := codecFor(hdr.Algo)
	if c == nil {
		return fmt.Errorf("core: unknown algorithm %d in header", uint8(hdr.Algo))
	}
	// Kernels over another stream count than the last queued decode's
	// could hold more than Spec.SMs blocks beside it: it ends first.
	if n := len(e.queued); n > 0 && e.queued[n-1].streams != max(len(hdr.PartBytes), 1) {
		e.syncDecodesLocked(clk)
	}
	out, view := span(m)
	err := c.decompress(e, clk, hdr, payload, out, view, decoded)
	if err == nil {
		// The destination's contents changed: invalidate any cached
		// compressed form of this allocation (no-op for untracked buffers).
		m.buf.MarkDirty()
	}
	return err
}

// decompressMPC restores hdr.OrigBytes packed bytes into dst: decoded in
// place when view is zero, otherwise decoded into worker scratch and
// scattered into strided runs (starting at packed offset view.base) or
// added into dst, partition by partition and only for partitions that
// decoded. Its kernels are left queued (SyncDecodes).
func (e *Engine) decompressMPC(clk *simtime.Clock, hdr Header, payload []byte, dst []byte, view typedView, decoded []byte) error {
	nWords := hdr.OrigBytes / 4
	parts := len(hdr.PartBytes)
	if parts == 0 {
		return fmt.Errorf("core: MPC header missing partition sizes")
	}
	if parts > 1024 {
		return fmt.Errorf("core: MPC header has absurd partition count %d", parts)
	}
	offs := e.ar.offsFor(parts + 1)
	sum := 0
	for i, pb := range hdr.PartBytes {
		if pb < 0 {
			return fmt.Errorf("core: MPC partition %d has negative size %d", i, pb)
		}
		offs[i] = sum
		sum += pb
	}
	offs[parts] = sum
	if sum != len(payload) {
		return fmt.Errorf("core: MPC partitions sum to %d bytes, payload is %d", sum, len(payload))
	}
	ranges := e.ar.rangesFor(nWords, parts)

	// d_off buffer for the decompression kernel.
	t := startTimer(clk)
	dOff := e.take(clk, e.offPool, 4*e.dev.Spec.SMs)
	e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{Blocks: 1, Bytes: 4 * e.dev.Spec.SMs, ThroughputGbps: e.dev.Spec.MemBWGBps * 8})
	e.charge(t, PhaseMemAlloc)

	// Decompression kernel(s): same multi-stream decomposition as the
	// sender, guided by the partition sizes from the header.
	t = startTimer(clk)
	blocks := max(e.dev.Spec.SMs/parts, 1)
	for i, rg := range ranges {
		e.dev.LaunchKernel(clk, e.dev.Stream(i), gpusim.KernelSpec{
			Blocks:         blocks,
			Bytes:          4 * (rg[1] - rg[0]),
			ThroughputGbps: e.dev.Spec.MPCDecompressGbps,
			BusyWaitSync:   true,
		})
	}
	e.queued = append(e.queued, queuedDecode{streams: parts, dOff: dOff, start: t.start})
	// Real decompression into dst: partitions decode concurrently into
	// disjoint word ranges (the predictor is partition-relative, so each
	// partition is an independent stream). Every part always runs, so
	// the first-by-index error is deterministic for any worker count.
	e.mpcD = mpcDecompressJob{
		payload: payload, offs: offs, ranges: ranges, dim: hdr.Dim,
		view: view, dst: dst, errs: e.ar.errsFor(parts),
	}
	e.runDecode(parts, &e.mpcD, dst, decoded)
	if i, err := firstErr(e.mpcD.errs); err != nil {
		// The d_off slot still comes back at the sync (a retried receive
		// must not shrink the pool).
		return fmt.Errorf("core: mpc decompress partition %d: %w", i, err)
	}
	e.queued[len(e.queued)-1].end = clk.Now()
	return nil
}

// decompressZFP follows the decompressMPC dst/view and queueing contract.
func (e *Engine) decompressZFP(clk *simtime.Clock, hdr Header, payload []byte, dst []byte, view typedView, decoded []byte) error {
	opt := e.cfg.Mode == ModeOpt
	n := hdr.OrigBytes / 4
	// Validate rate and total size up front so the parallel chunks can
	// slice the payload without bounds surprises.
	want, err := zfp.CompressedSize(n, hdr.Rate)
	if err != nil {
		return fmt.Errorf("core: zfp decompress: %w", err)
	}
	// The size is exact at a fixed rate, so a longer payload is as
	// malformed as a shorter one.
	if len(payload) != want {
		return fmt.Errorf("core: zfp decompress: payload is %d bytes, the header's size and rate give %d", len(payload), want)
	}

	t := startTimer(clk)
	clk.Advance(zfpStreamSetup)
	e.charge(t, PhaseStreamField)

	t = startTimer(clk)
	e.dev.MaxGridDims(clk, opt)
	e.charge(t, PhaseGridQuery)

	t = startTimer(clk)
	e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{
		Blocks:         e.dev.Spec.SMs,
		Bytes:          hdr.OrigBytes,
		ThroughputGbps: zfpKernelGbps(e.dev.Spec.ZFPDecompressGbps, hdr.Rate),
	})
	e.queued = append(e.queued, queuedDecode{streams: 1, start: t.start})
	// The real decompression work: the same byte-aligned chunk rows the
	// sender used decode concurrently into disjoint ranges of dst.
	nChunks := (n + zfpChunkValues - 1) / zfpChunkValues
	e.zfpD = zfpDecompressJob{
		comp: payload, dst: dst, rate: hdr.Rate,
		nVals: n, view: view, errs: e.ar.errsFor(nChunks),
	}
	e.runDecode(nChunks, &e.zfpD, dst, decoded)
	if i, err := firstErr(e.zfpD.errs); err != nil {
		return fmt.Errorf("core: zfp decompress chunk %d: %w", i, err)
	}
	e.queued[len(e.queued)-1].end = clk.Now()
	return nil
}

// splitWordsInto divides n words into parts contiguous ranges aligned to
// MPC's 32-word chunk size (identical on sender and receiver so partition
// boundaries agree), appending the [start, end) pairs to dst so the engine
// can reuse its arena.
func splitWordsInto(dst [][2]int, n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	per := (n/parts + mpc.ChunkWords - 1) / mpc.ChunkWords * mpc.ChunkWords
	if per == 0 {
		per = mpc.ChunkWords
	}
	start := 0
	for i := 0; i < parts; i++ {
		end := start + per
		if i == parts-1 || end > n {
			end = n
		}
		dst = append(dst, [2]int{start, end})
		start = end
	}
	return dst
}

// zfpStreamSetup is the CPU-side zfp_stream / zfp_field construction each
// ZFP kernel call pays.
const zfpStreamSetup = 4500 * simtime.Nanosecond

// zfpKernelGbps adjusts the Table III throughput calibration (measured at
// rate 16) for other rates. ZFP's kernel cost is dominated by the
// embedded bit-plane coding, which scales with the rate; the transform
// and casts contribute a small fixed floor. The paper's rate-4 results
// (78-83% end-to-end reductions, NVLink wins at 32 MB) calibrate the
// floor at ~10% of the rate-16 cost.
func zfpKernelGbps(base float64, rate int) float64 {
	if rate <= 0 {
		rate = 16
	}
	return base / (0.10 + 0.90*float64(rate)/16.0)
}

// charge accrues the timer's elapsed interval to phase p and forwards it
// to the tracer when one is attached.
func (e *Engine) charge(t timer, p Phase) { e.chargeSpan(p, t.start, t.clk.Now()) }

// chargeSpan accrues [start, end) to phase p and forwards it to the tracer.
func (e *Engine) chargeSpan(p Phase, start, end simtime.Time) {
	e.Stats.Add(p, end.Sub(start))
	e.Tracer.Add(e.Track, p.String(), start, end)
}
