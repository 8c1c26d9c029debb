// Package gpusim simulates a CUDA GPU at the granularity the paper's
// analysis needs: device memory with allocation costs, streams with
// asynchronous kernel execution, driver-call overheads (cudaMalloc,
// cudaMemcpy, cudaGetDeviceProperties, cudaDeviceGetAttribute), GDRCopy,
// and pre-allocated buffer pools.
//
// Data is real — a device Buffer wraps actual bytes that flow through the
// compressors and the network — while time is virtual: every operation
// advances the calling rank's logical clock according to the cost model in
// package hw.
package gpusim

import (
	"fmt"
	"sync/atomic"

	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// Location tells where a buffer's memory lives.
type Location int

const (
	// Host memory (CPU DRAM).
	Host Location = iota
	// Device memory (GPU HBM).
	Device
)

// String implements fmt.Stringer.
func (l Location) String() string {
	if l == Device {
		return "device"
	}
	return "host"
}

// Buffer is a region of simulated host or device memory holding real bytes.
type Buffer struct {
	// Data is the live content of the buffer.
	Data []byte
	// Loc is where the buffer resides.
	Loc Location
	// Dev is the owning device for Loc == Device buffers.
	Dev *GPUDevice

	pooled bool // came from a BufferPool; returned via pool.Put

	// reserved is the size of a device reservation that owns no host
	// bytes (Reserve, BufferPool.Get): the engine's staging temporaries
	// exist to be charged, counted and handed back — the payload they
	// stand for stays in the transport's own slice — so Data is nil and
	// Len reports this instead.
	reserved int

	// trk is the content-version tracker of the root allocation this
	// buffer belongs to (nil for untracked buffers), and trkOff the
	// buffer's byte offset within that allocation. Views made with Slice
	// share the parent's tracker, so a write marked through any view
	// invalidates cached derivations over the whole allocation.
	trk    *tracker
	trkOff int
}

// tracker carries a process-unique identity plus a monotonically
// increasing content epoch for one tracked allocation. The epoch is
// atomic only for memory-safety under -race when collectives on
// different rank goroutines read versions concurrently; cache behavior
// depends on equality of (id, epoch), never on the numeric values, so
// scheduling cannot leak into results.
type tracker struct {
	id    uint64
	epoch atomic.Uint64
}

// trackerIDs hands out process-unique tracker identities.
var trackerIDs atomic.Uint64

// Len returns the buffer's size in bytes.
func (b *Buffer) Len() int {
	if b.Data == nil {
		return b.reserved
	}
	return len(b.Data)
}

// Track opts the buffer into content-version tracking, enabling the
// engine's compress-once cache to key compressed blocks by
// (allocation, range, epoch). Idempotent; a no-op on views of an
// already-tracked allocation. Callers that Track a buffer take on the
// obligation to MarkDirty after every write that bypasses the tracked
// APIs (the MPI runtime does this at each receive/reduce site).
func (b *Buffer) Track() *Buffer {
	if b.trk == nil {
		b.trk = &tracker{id: trackerIDs.Add(1)}
	}
	return b
}

// MarkDirty bumps the allocation's content epoch, invalidating any
// cached compressed form of any range of it. No-op for untracked
// buffers.
func (b *Buffer) MarkDirty() {
	if b.trk != nil {
		b.trk.epoch.Add(1)
	}
}

// Version reports the buffer's cache identity: the root allocation's id,
// the buffer's byte offset within it, and the current content epoch.
// ok is false for untracked buffers, which cache layers must treat as
// always-changing.
func (b *Buffer) Version() (id uint64, off int, epoch uint64, ok bool) {
	if b.trk == nil {
		return 0, 0, 0, false
	}
	return b.trk.id, b.trkOff, b.trk.epoch.Load(), true
}

// Slice returns a view of n bytes starting at off, sharing the underlying
// memory (used by collectives to address blocks of a larger buffer).
// Views inherit the parent's content-version tracker.
func (b *Buffer) Slice(off, n int) *Buffer {
	return &Buffer{Data: b.Data[off : off+n], Loc: b.Loc, Dev: b.Dev, trk: b.trk, trkOff: b.trkOff + off}
}

// Float32Len returns the number of float32 values the buffer holds.
func (b *Buffer) Float32Len() int { return len(b.Data) / 4 }

// Stream is a CUDA stream: an in-order queue of device work. Work on
// different streams may overlap.
type Stream struct {
	tl  *simtime.Timeline
	dev *GPUDevice
	id  int
}

// ID returns the stream's index on its device.
func (s *Stream) ID() int { return s.id }

// GPUDevice is one simulated GPU.
type GPUDevice struct {
	Spec hw.GPU

	streams []*Stream
	// attrsCached reflects ZFP-OPT's fix: once the maximum grid
	// dimensions have been queried via cudaDeviceGetAttribute, they are
	// cached as static values.
	attrsCached bool

	memUsed int64
	// MallocCount / FreeCount track allocator traffic so tests can
	// assert that OPT paths stay off the allocator.
	MallocCount int
	FreeCount   int
}

// NewDevice creates a device with nStreams streams (minimum 1).
func NewDevice(spec hw.GPU, nStreams int) *GPUDevice {
	if nStreams < 1 {
		nStreams = 1
	}
	d := &GPUDevice{Spec: spec}
	for i := 0; i < nStreams; i++ {
		d.streams = append(d.streams, &Stream{tl: simtime.NewTimeline(), dev: d, id: i})
	}
	return d
}

// Stream returns stream i, creating streams up to i if needed.
func (d *GPUDevice) Stream(i int) *Stream {
	for len(d.streams) <= i {
		d.streams = append(d.streams, &Stream{tl: simtime.NewTimeline(), dev: d, id: len(d.streams)})
	}
	return d.streams[i]
}

// NumStreams reports how many streams exist.
func (d *GPUDevice) NumStreams() int { return len(d.streams) }

// MemUsed reports current simulated device-memory usage in bytes.
func (d *GPUDevice) MemUsed() int64 { return d.memUsed }

// Malloc allocates n bytes of device memory, charging the caller the
// cudaMalloc cost (base + per-MB component). This is the expensive
// operation the paper's buffer pool removes from the critical path.
func (d *GPUDevice) Malloc(clk *simtime.Clock, n int) *Buffer {
	b := d.Reserve(clk, n)
	b.Data = make([]byte, n)
	return b
}

// Reserve is Malloc without the host bytes: the same cudaMalloc charge
// and the same accounting (MemUsed, MallocCount, Free), for a device
// temporary whose contents nothing on the host ever reads.
func (d *GPUDevice) Reserve(clk *simtime.Clock, n int) *Buffer {
	cost := d.Spec.CudaMallocBase + simtime.Duration(float64(d.Spec.CudaMallocPerMB)*float64(n)/(1<<20))
	clk.Advance(cost)
	d.memUsed += int64(n)
	d.MallocCount++
	return &Buffer{Loc: Device, Dev: d, reserved: n}
}

// Free releases a device buffer, charging the cudaFree cost.
func (d *GPUDevice) Free(clk *simtime.Clock, b *Buffer) {
	if b == nil || b.Loc != Device {
		return
	}
	clk.Advance(d.Spec.CudaFree)
	d.memUsed -= int64(b.Len())
	d.FreeCount++
	b.Data, b.reserved = nil, 0
}

// NewHostBuffer wraps n bytes of host memory (no device cost).
func NewHostBuffer(n int) *Buffer {
	return &Buffer{Data: make([]byte, n), Loc: Host}
}

// HostBufferFrom wraps existing host bytes without copying.
func HostBufferFrom(data []byte) *Buffer {
	return &Buffer{Data: data, Loc: Host}
}

// MemcpyD2HSmall copies a few bytes (e.g. the compressed-size word) from
// device to host using cudaMemcpy, paying the ~20us driver/synchronization
// cost the paper profiles in Section IV-A.
func (d *GPUDevice) MemcpyD2HSmall(clk *simtime.Clock, dst, src []byte) {
	clk.Advance(d.Spec.MemcpyD2HSmall)
	copy(dst, src)
}

// GDRCopyD2HSmall is the low-latency GDRCopy alternative (1-5us) MPC-OPT
// switches to (Section IV-B, optimization 3).
func (d *GPUDevice) GDRCopyD2HSmall(clk *simtime.Clock, dst, src []byte) {
	clk.Advance(d.Spec.GDRCopySmall)
	copy(dst, src)
}

// MemcpyD2D copies device memory on a stream at device memory bandwidth
// (used by MPC-OPT's partition-combine step).
func (d *GPUDevice) MemcpyD2D(clk *simtime.Clock, s *Stream, dst, src []byte) {
	n := len(src)
	if len(dst) < n {
		n = len(dst)
	}
	d.CopyD2D(clk, s, n)
	copy(dst, src[:n])
}

// CopyD2D enqueues a device-to-device copy of n bytes on s whose
// destination is a reservation (Reserve, BufferPool.Get): MemcpyD2D's
// charge with no host bytes to move.
func (d *GPUDevice) CopyD2D(clk *simtime.Clock, s *Stream, n int) {
	// A D2D copy reads and writes HBM: effective bandwidth is half peak.
	d.launch(clk, s, simtime.TransferTime(n, d.Spec.MemBWGBps/2))
}

// KernelSpec describes one kernel launch for the cost model.
type KernelSpec struct {
	// Blocks is the number of thread blocks the kernel uses. MPC always
	// uses one block per SM; MPC-OPT's partitioning reduces this.
	Blocks int
	// Bytes of input the kernel processes.
	Bytes int
	// ThroughputGbps is the kernel's data throughput when enough blocks
	// are resident (Gb/s, as in Table III).
	ThroughputGbps float64
	// BusyWaitSync enables MPC's inter-block busy-wait synchronization
	// penalty, proportional to Blocks.
	BusyWaitSync bool
}

// KernelTime returns the modeled execution duration of spec on this GPU.
//
// Compression kernels are memory-bound: the paper observes that half the
// SMs already saturate throughput, so effective throughput scales linearly
// only below SMs/2 resident blocks. MPC's busy-wait inter-block
// synchronization adds a per-block cost, which is why decomposing one
// full-GPU kernel into several smaller concurrent kernels wins.
func (d *GPUDevice) KernelTime(spec KernelSpec) simtime.Duration {
	blocks := spec.Blocks
	if blocks < 1 {
		blocks = 1
	}
	half := d.Spec.SMs / 2
	eff := spec.ThroughputGbps
	if half > 0 && blocks < half {
		eff = spec.ThroughputGbps * float64(blocks) / float64(half)
	}
	dur := simtime.ThroughputTime(spec.Bytes, eff)
	if spec.BusyWaitSync {
		dur += simtime.Duration(blocks) * d.Spec.BlockSyncPerSM
	}
	return dur
}

// launch places dur of work on stream s, charging the CPU the kernel
// launch overhead. The CPU does not wait for the kernel (async).
func (d *GPUDevice) launch(clk *simtime.Clock, s *Stream, dur simtime.Duration) {
	clk.Advance(d.Spec.KernelLaunch)
	s.tl.Reserve(clk.Now(), dur)
}

// LaunchKernel enqueues a kernel described by spec on stream s.
func (d *GPUDevice) LaunchKernel(clk *simtime.Clock, s *Stream, spec KernelSpec) {
	d.launch(clk, s, d.KernelTime(spec))
}

// StreamSync blocks the CPU until all work on s completes
// (cudaStreamSynchronize).
func (d *GPUDevice) StreamSync(clk *simtime.Clock, s *Stream) {
	clk.AdvanceTo(s.tl.BusyUntil())
	clk.Advance(d.Spec.StreamSync)
}

// DeviceSync blocks the CPU until all streams complete
// (cudaDeviceSynchronize).
func (d *GPUDevice) DeviceSync(clk *simtime.Clock) {
	var last simtime.Time
	for _, s := range d.streams {
		if bu := s.tl.BusyUntil(); bu > last {
			last = bu
		}
	}
	clk.AdvanceTo(last)
	clk.Advance(d.Spec.StreamSync)
}

// GetDeviceProperties models cudaGetDeviceProperties: the ~1840us driver
// round trip ZFP's get_max_grid_dims pays per message before ZFP-OPT
// (Section V-A).
func (d *GPUDevice) GetDeviceProperties(clk *simtime.Clock) {
	clk.Advance(d.Spec.DevicePropsQuery)
}

// MaxGridDims returns the device's maximum grid dimensions. With ZFP-OPT's
// caching (Section V-B) the first call costs one cudaDeviceGetAttribute
// (~1us) and subsequent calls are free; without caching each call pays the
// full cudaGetDeviceProperties price.
func (d *GPUDevice) MaxGridDims(clk *simtime.Clock, cached bool) int {
	if cached {
		if !d.attrsCached {
			clk.Advance(d.Spec.AttributeQuery)
			d.attrsCached = true
		}
	} else {
		d.GetDeviceProperties(clk)
	}
	return 65535
}

// ResetAttributeCache clears the cached device attributes (used by tests).
func (d *GPUDevice) ResetAttributeCache() { d.attrsCached = false }

// ResetStreams clears all stream timelines (used between benchmark runs).
func (d *GPUDevice) ResetStreams() {
	for _, s := range d.streams {
		s.tl.Reset()
	}
}

// BufferPool is the pre-allocated device buffer pool of MPC-OPT
// (Section IV-B, optimizations 1 and 2): buffers are allocated once at
// initialization (MPI_Init) and reused, keeping cudaMalloc/cudaFree off
// the critical path. The pool grows on demand; growth pays the cudaMalloc
// price, so a warmed pool serves from free buffers at negligible cost.
type BufferPool struct {
	dev      *GPUDevice
	bufBytes int
	free     []*Buffer
	// Gets/Misses count accesses for tests and for the paper's
	// "dynamically increased on demand" behavior.
	Gets   int
	Misses int
}

// NewBufferPool creates a pool of n device buffers of bufBytes each,
// paying allocation cost against clk (initialization time, off the
// critical path).
//
// Simulated device memory is reserved up front (that is the point of the
// design); the buffers are reservations (GPUDevice.Reserve) and never own
// host memory — a staged payload stays in the transport's own slice — so
// a pool of any size, and a pool that grew on a miss, costs the host
// nothing.
func NewBufferPool(clk *simtime.Clock, dev *GPUDevice, n, bufBytes int) *BufferPool {
	p := &BufferPool{dev: dev, bufBytes: bufBytes}
	for i := 0; i < n; i++ {
		p.free = append(p.free, p.grow(clk, bufBytes))
	}
	return p
}

// grow reserves one more pooled buffer of size bytes.
func (p *BufferPool) grow(clk *simtime.Clock, size int) *Buffer {
	b := p.dev.Reserve(clk, size)
	b.pooled = true
	return b
}

// BufBytes reports the fixed size of the pool's buffers.
func (p *BufferPool) BufBytes() int { return p.bufBytes }

// FreeCount reports how many buffers are currently available.
func (p *BufferPool) FreeCount() int { return len(p.free) }

// PoolHit is the fixed bookkeeping charge of a pool hit.
const PoolHit = 200 * simtime.Nanosecond

// Get returns a pooled buffer of at least n bytes. If the pool is empty or
// n exceeds the pooled buffer size, it falls back to cudaMalloc (a miss).
// Pool hits cost PoolHit.
func (p *BufferPool) Get(clk *simtime.Clock, n int) *Buffer {
	p.Gets++
	if n <= p.bufBytes && len(p.free) > 0 {
		b := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		clk.Advance(PoolHit)
		return b
	}
	p.Misses++
	size := n
	if size < p.bufBytes {
		size = p.bufBytes
	}
	return p.grow(clk, size)
}

// Put returns a buffer to the pool.
func (p *BufferPool) Put(b *Buffer) {
	if b == nil || !b.pooled {
		return
	}
	p.free = append(p.free, b)
}

// String summarizes pool state.
func (p *BufferPool) String() string {
	return fmt.Sprintf("pool{%d free x %d B, %d gets, %d misses}", len(p.free), p.bufBytes, p.Gets, p.Misses)
}
