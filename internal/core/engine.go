package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"mpicomp/internal/codecpool"
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
	// FallbackRecvs counts received messages whose header carried the
	// breaker's Fallback bit — the peer told us it degraded to the
	// uncompressed path for this pair.
	FallbackRecvs int
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
	// Config.CacheBudgetBytes.
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
	// PipelinedChunks counts chunk-granularity pipeline steps: chunked
	// rendezvous sends plus pipelined ring-allreduce chunks.
	PipelinedChunks int
	// pipe accumulates the chunk-granular transport reliability counters
	// (retransmits, credit stalls, window shrinks, degrades, bypasses);
	// PipeSnapshot exposes them (pipestats.go).
	pipe PipelineStats
	// Tracer, when non-nil, receives every phase interval for timeline
	// inspection; Track labels this engine's timeline row.
	Tracer *trace.Collector
	Track  string
	// crEstimate is the EWMA compression-ratio estimate used by the
	// dynamic-selection extension; probes counts gated messages for the
	// periodic compressibility probe.
	crEstimate float64
	probes     int

	// brk is the per-peer codec circuit breaker (nil when disabled). It
	// carries its own mutex, independent of e.mu: transports record
	// failures from other ranks' goroutines and must not contend with an
	// in-flight compression.
	brk *Breaker
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
	e.PoolFallbacks, e.ChecksumFailures, e.FallbackRecvs = 0, 0, 0
	e.BytesIn, e.BytesOut = 0, 0
	e.CacheHits, e.CacheMisses, e.CacheInvalidations, e.CacheEvictions = 0, 0, 0, 0
	e.RelayedBytes, e.PipelinedChunks = 0, 0
	e.pipe = PipelineStats{}
	e.Host = HostStats{}
	// Cache entries deliberately survive: a warmed cache is the steady
	// state a measurement window should observe, exactly like the warmed
	// buffer pools.
	// Breaker state deliberately survives: an open breaker reflects the
	// peer's codec health, not this measurement window's accounting.
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
// real elapsed wall-clock to Host. Called with e.mu held.
//
//simlint:wallclock HostStats measures real host codec throughput; it never feeds simulated time
func (e *Engine) runCodec(n int, job codecpool.Job) {
	start := time.Now()
	e.codec.Run(n, job)
	e.Host.CodecWall += time.Since(start)
	e.Host.CodecRuns++
}

// NewEngine builds an engine at initialization time (MPI_Init): ModeOpt
// allocates its buffer pools now, off the critical communication path.
func NewEngine(clk *simtime.Clock, dev *gpusim.GPUDevice, cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults(), dev: dev}
	e.codec = codecpool.Sized(e.cfg.Workers)
	e.brk = NewBreaker(e.cfg.Breaker)
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

// ScheduleTag returns the current algorithm-schedule cache namespace.
func (e *Engine) ScheduleTag() uint32 {
	if e == nil {
		return 0
	}
	return e.schedTag.Load()
}

// Device returns the engine's GPU.
func (e *Engine) Device() *gpusim.GPUDevice { return e.dev }

// ShouldCompress implements the framework's eligibility test (step 1 of
// Figure 4): device-resident data, size at or above the threshold, a
// 4-byte-aligned element count, and compression enabled.
func (e *Engine) ShouldCompress(buf *gpusim.Buffer) bool {
	if e == nil || e.cfg.Mode == ModeOff || e.cfg.Algorithm == AlgoNone {
		return false
	}
	if buf.Loc != gpusim.Device {
		return false
	}
	if buf.Len() < e.cfg.Threshold || buf.Len()%4 != 0 {
		return false
	}
	return true
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
	e.mu.Lock()
	defer e.mu.Unlock()
	view, hdr := e.compressLocked(clk, buf)
	// Snapshot for transport ownership: the view aliases the engine arena
	// (or the user buffer, on bypass), both of which outlive this call
	// and get reused, while the wire payload and the header's partition
	// table may sit in flight indefinitely (envelopes and collective
	// relays retain them).
	payload := append([]byte(nil), view...)
	if hdr.PartBytes != nil {
		hdr.PartBytes = append([]int(nil), hdr.PartBytes...)
	}
	return payload, hdr
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
	view, hdr := e.compressLocked(clk, buf)
	return append(dst, view...), hdr
}

// compressLocked runs the send-side framework and returns a payload view
// that aliases engine-owned scratch (or buf.Data on bypass); callers
// materialize it according to their ownership contract.
func (e *Engine) compressLocked(clk *simtime.Clock, buf *gpusim.Buffer) ([]byte, Header) {
	if !e.ShouldCompress(buf) {
		e.Bypasses++
		return e.bypassViewLocked(clk, buf)
	}
	// Graceful degradation: if the ModeOpt staging pool has no free
	// buffer, send uncompressed instead of blocking on the pool (or
	// paying a mid-message cudaMalloc). A transient burst of in-flight
	// receives can drain the shared pool; the uncompressed path keeps
	// the runtime live and the pool recovers as receives complete.
	if e.poolExhaustedLocked() {
		e.PoolFallbacks++
		return e.bypassViewLocked(clk, buf)
	}
	e.Compressions++
	var payload []byte
	var hdr Header
	switch e.cfg.Algorithm {
	case AlgoMPC:
		payload, hdr = e.compressMPC(clk, buf.Data, buf.Len(), typedView{})
	case AlgoZFP:
		payload, hdr = e.compressZFP(clk, buf.Data, buf.Len(), typedView{})
	default:
		panic("core: unreachable algorithm")
	}
	hdr.Checksum = e.checksumLocked(clk, payload)
	e.BytesIn += int64(hdr.OrigBytes)
	e.BytesOut += int64(hdr.CompBytes)
	e.observeRatio(hdr.Ratio())
	return payload, hdr
}

// bypassViewLocked returns buf's bytes as an uncompressed wire payload
// view with a checksummed AlgoNone header; callers snapshot as needed.
func (e *Engine) bypassViewLocked(clk *simtime.Clock, buf *gpusim.Buffer) ([]byte, Header) {
	hdr := Header{Algo: AlgoNone, OrigBytes: buf.Len(), CompBytes: buf.Len()}
	hdr.Checksum = e.checksumLocked(clk, buf.Data)
	return buf.Data, hdr
}

// bypassLocked snapshots buf as an uncompressed wire payload with a
// checksummed AlgoNone header. The snapshot matters: the transport owns
// the payload from here on, so a sender reusing its buffer after local
// completion cannot corrupt an in-flight message.
func (e *Engine) bypassLocked(clk *simtime.Clock, buf *gpusim.Buffer) ([]byte, Header) {
	view, hdr := e.bypassViewLocked(clk, buf)
	return append([]byte(nil), view...), hdr
}

// Bypass produces the uncompressed wire form of buf — a checksummed
// AlgoNone header over a snapshot of the bytes — regardless of the
// message's compression eligibility. The runtime uses it when the codec
// circuit breaker has opened for the destination: the message must still
// travel, just not through the codec. Counted as a Bypass.
func (e *Engine) Bypass(clk *simtime.Clock, buf *gpusim.Buffer) ([]byte, Header) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.Bypasses++
	return e.bypassLocked(clk, buf)
}

// NoteFallbackRecv counts an arrived message whose header carried the
// breaker's Fallback bit.
func (e *Engine) NoteFallbackRecv() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.FallbackRecvs++
}

// --- codec circuit breaker wrappers (all no-ops when the breaker is
// disabled; see breaker.go for the state machine) ---

// BreakerAllow reports whether a message to dst may take the compressed
// path now, possibly starting a half-open probe.
func (e *Engine) BreakerAllow(dst int, now simtime.Time) bool {
	if e == nil {
		return true
	}
	return e.brk.Allow(dst, now)
}

// BreakerOpen reports whether dst's compressed path is currently rejected,
// without driving any state transition.
func (e *Engine) BreakerOpen(dst int, now simtime.Time) bool {
	if e == nil {
		return false
	}
	return e.brk.IsOpen(dst, now)
}

// BreakerEnabled reports whether this engine runs a codec breaker.
func (e *Engine) BreakerEnabled() bool { return e != nil && e.brk != nil }

// BreakerProbeAborted rearms a consumed half-open probe that could not
// exercise the codec (the message was bypassed for unrelated reasons).
func (e *Engine) BreakerProbeAborted(dst int) {
	if e != nil {
		e.brk.ProbeAborted(dst)
	}
}

// BreakerFailure records a codec-path delivery failure toward dst.
func (e *Engine) BreakerFailure(dst int, now simtime.Time) {
	if e != nil {
		e.brk.RecordFailure(dst, now)
	}
}

// BreakerSuccess records a codec-path delivery success toward dst.
func (e *Engine) BreakerSuccess(dst int) {
	if e != nil {
		e.brk.RecordSuccess(dst)
	}
}

// BreakerSnapshot returns the breaker's counters (zero when disabled).
func (e *Engine) BreakerSnapshot() BreakerStats { return e.brk.Stats() }

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

// poolExhaustedLocked reports whether the ModeOpt staging pool cannot
// serve a compression without growing.
func (e *Engine) poolExhaustedLocked() bool {
	if e.pool == nil {
		return false
	}
	if e.pool.FreeCount() == 0 {
		return true
	}
	return e.cfg.Algorithm == AlgoMPC && e.offPool.FreeCount() == 0
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
	var tmp, dOff *gpusim.Buffer
	bound := mpc.Bound(nWords)
	if opt {
		tmp = e.pool.Get(clk, bound)
		dOff = e.offPool.Get(clk, 4*e.dev.Spec.SMs)
	} else {
		tmp = e.dev.Malloc(clk, bound)
		dOff = e.dev.Malloc(clk, 4*e.dev.Spec.SMs)
	}
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

	t = startTimer(clk)
	if parts == 1 {
		// MPC by design launches one block per SM and busy-waits for
		// inter-block synchronization.
		e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{
			Blocks:         e.dev.Spec.SMs,
			Bytes:          n,
			ThroughputGbps: e.dev.Spec.MPCCompressGbps,
			BusyWaitSync:   true,
		})
		e.dev.StreamSync(clk, e.dev.Stream(0))
	} else {
		// MPC-OPT: decompose into `parts` kernels on independent
		// streams, each using SMs/parts blocks (Figure 7).
		blocks := e.dev.Spec.SMs / parts
		if blocks < 1 {
			blocks = 1
		}
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
			// already in place, later ones are moved D2D.
			if i > 0 {
				e.dev.MemcpyD2D(clk, e.dev.Stream(0), tmp.Data[:len(p)], p)
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
	if opt {
		e.pool.Put(tmp)
		e.offPool.Put(dOff)
	} else {
		e.dev.Free(clk, tmp)
		e.dev.Free(clk, dOff)
	}
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
	clk.Advance(simtime.FromMicroseconds(4.5))
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
	var tmp *gpusim.Buffer
	if opt {
		tmp = e.pool.Get(clk, compSize)
	} else {
		tmp = e.dev.Malloc(clk, compSize)
	}
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
	if opt {
		e.pool.Put(tmp)
	} else {
		e.dev.Free(clk, tmp)
	}
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
	if e.cfg.Mode == ModeOpt {
		return e.pool.Get(clk, hdr.CompBytes)
	}
	return e.dev.Malloc(clk, hdr.CompBytes)
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
	if e.cfg.Mode == ModeOpt {
		e.pool.Put(staged)
	} else {
		e.dev.Free(clk, staged)
	}
}

// Decompress runs the receive-side framework (Algorithm 2): given the RTS
// header and the received payload, it launches the decompression kernel(s)
// and writes the restored data into dst.
//
// A truncated, padded, or otherwise malformed (header, payload) pair —
// whatever a faulty fabric or a corrupted RTS could produce — yields an
// error, never a panic and never silently short output. The codecs decode
// straight into dst, so after an error the first hdr.OrigBytes bytes of
// dst are unspecified (a corrupt MPC partition leaves its range partly
// written and the other partitions decoded); the transport re-requests or
// fails the message and never hands such a buffer to the application.
func (e *Engine) Decompress(clk *simtime.Clock, hdr Header, payload []byte, dst *gpusim.Buffer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if hdr.OrigBytes < 0 || hdr.CompBytes < 0 {
		return fmt.Errorf("core: corrupt header (orig=%d comp=%d)", hdr.OrigBytes, hdr.CompBytes)
	}
	if len(payload) != hdr.CompBytes {
		return fmt.Errorf("core: payload is %d bytes, header says %d", len(payload), hdr.CompBytes)
	}
	if !hdr.Compressed {
		n := copy(dst.Data, payload)
		if n != hdr.OrigBytes {
			return fmt.Errorf("core: uncompressed payload %d bytes, dst %d", len(payload), dst.Len())
		}
		dst.MarkDirty()
		return nil
	}
	if dst.Len() < hdr.OrigBytes {
		return fmt.Errorf("core: dst %d bytes < original %d", dst.Len(), hdr.OrigBytes)
	}
	if hdr.OrigBytes%4 != 0 {
		return fmt.Errorf("core: compressed message of %d bytes is not word-aligned", hdr.OrigBytes)
	}
	e.Decompressions++
	var err error
	switch hdr.Algo {
	case AlgoMPC:
		err = e.decompressMPC(clk, hdr, payload, dst.Data[:hdr.OrigBytes], typedView{})
	case AlgoZFP:
		err = e.decompressZFP(clk, hdr, payload, dst.Data[:hdr.OrigBytes], typedView{})
	default:
		return fmt.Errorf("core: unknown algorithm %v in header", hdr.Algo)
	}
	if err == nil {
		// dst's contents changed: invalidate any cached compressed form
		// of this allocation (no-op for untracked buffers).
		dst.MarkDirty()
	}
	return err
}

// decompressMPC restores hdr.OrigBytes packed bytes into dst: decoded in
// place when view is zero, otherwise decoded into worker scratch and
// scattered into strided runs (starting at packed offset view.base),
// partition by partition and only for partitions that decoded.
func (e *Engine) decompressMPC(clk *simtime.Clock, hdr Header, payload []byte, dst []byte, view typedView) error {
	opt := e.cfg.Mode == ModeOpt
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
	var dOff *gpusim.Buffer
	if opt {
		dOff = e.offPool.Get(clk, 4*e.dev.Spec.SMs)
	} else {
		dOff = e.dev.Malloc(clk, 4*e.dev.Spec.SMs)
	}
	e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{Blocks: 1, Bytes: 4 * e.dev.Spec.SMs, ThroughputGbps: e.dev.Spec.MemBWGBps * 8})
	e.charge(t, PhaseMemAlloc)

	// Decompression kernel(s): same multi-stream decomposition as the
	// sender, guided by the partition sizes from the header.
	t = startTimer(clk)
	if parts == 1 {
		e.dev.LaunchKernel(clk, e.dev.Stream(0), gpusim.KernelSpec{
			Blocks:         e.dev.Spec.SMs,
			Bytes:          hdr.OrigBytes,
			ThroughputGbps: e.dev.Spec.MPCDecompressGbps,
			BusyWaitSync:   true,
		})
		e.dev.StreamSync(clk, e.dev.Stream(0))
	} else {
		blocks := e.dev.Spec.SMs / parts
		if blocks < 1 {
			blocks = 1
		}
		for i, rg := range ranges {
			e.dev.LaunchKernel(clk, e.dev.Stream(i), gpusim.KernelSpec{
				Blocks:         blocks,
				Bytes:          4 * (rg[1] - rg[0]),
				ThroughputGbps: e.dev.Spec.MPCDecompressGbps,
				BusyWaitSync:   true,
			})
		}
		for i := range ranges {
			e.dev.StreamSync(clk, e.dev.Stream(i))
		}
	}
	// Real decompression into dst: partitions decode concurrently into
	// disjoint word ranges (the predictor is partition-relative, so each
	// partition is an independent stream). Every part always runs, so
	// the first-by-index error is deterministic for any worker count.
	e.mpcD = mpcDecompressJob{
		payload: payload, offs: offs, ranges: ranges, dim: hdr.Dim,
		view: view, dst: dst, errs: e.ar.errsFor(parts),
	}
	e.runCodec(parts, &e.mpcD)
	if i, err := firstErr(e.mpcD.errs); err != nil {
		// A corrupt partition must not bleed the d_off buffer: the
		// receive path retries after NACKs, and every retry would
		// shrink the pool until staging degrades to cudaMalloc.
		if opt {
			e.offPool.Put(dOff)
		} else {
			e.dev.Free(clk, dOff)
		}
		return fmt.Errorf("core: mpc decompress partition %d: %w", i, err)
	}
	e.charge(t, PhaseDecompressKernel)

	t = startTimer(clk)
	if opt {
		e.offPool.Put(dOff)
	} else {
		e.dev.Free(clk, dOff)
	}
	e.charge(t, PhaseMemAlloc)
	return nil
}

// decompressZFP follows the decompressMPC dst/view contract.
func (e *Engine) decompressZFP(clk *simtime.Clock, hdr Header, payload []byte, dst []byte, view typedView) error {
	opt := e.cfg.Mode == ModeOpt
	n := hdr.OrigBytes / 4
	// Validate rate and total size up front so the parallel chunks can
	// slice the payload without bounds surprises.
	want, err := zfp.CompressedSize(n, hdr.Rate)
	if err != nil {
		return fmt.Errorf("core: zfp decompress: %w", err)
	}
	if len(payload) < want {
		return fmt.Errorf("core: zfp decompress: %w: have %d bytes, want %d", zfp.ErrShortBuffer, len(payload), want)
	}

	t := startTimer(clk)
	clk.Advance(simtime.FromMicroseconds(4.5))
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
	e.dev.StreamSync(clk, e.dev.Stream(0))
	// The real decompression work: the same byte-aligned chunk rows the
	// sender used decode concurrently into disjoint ranges of dst.
	nChunks := (n + zfpChunkValues - 1) / zfpChunkValues
	e.zfpD = zfpDecompressJob{
		comp: payload, dst: dst, rate: hdr.Rate,
		nVals: n, view: view, errs: e.ar.errsFor(nChunks),
	}
	e.runCodec(nChunks, &e.zfpD)
	if i, err := firstErr(e.zfpD.errs); err != nil {
		return fmt.Errorf("core: zfp decompress chunk %d: %w", i, err)
	}
	e.charge(t, PhaseDecompressKernel)
	return nil
}

// splitWords divides n words into parts contiguous ranges aligned to MPC's
// 32-word chunk size (identical on sender and receiver so partition
// boundaries agree). Returned ranges are [start, end) pairs.
func splitWords(n, parts int) [][2]int {
	return splitWordsInto(nil, n, parts)
}

// splitWordsInto is splitWords appending into a caller-provided slice so
// the engine can reuse its arena.
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
func (e *Engine) charge(t timer, p Phase) {
	end := t.clk.Now()
	e.Stats.Add(p, end.Sub(t.start))
	e.Tracer.Add(e.Track, p.String(), t.start, end)
}
