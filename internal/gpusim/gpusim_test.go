package gpusim

import (
	"testing"

	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

func v100() hw.GPU { return hw.TeslaV100() }

func TestMallocCost(t *testing.T) {
	d := NewDevice(v100(), 1)
	clk := simtime.NewClock(0)
	b := d.Malloc(clk, 32<<20)
	// base 95us + 32 MB * 9us/MB = 383us.
	want := simtime.FromMicroseconds(95 + 32*9)
	if clk.Now() != simtime.Time(want) {
		t.Fatalf("malloc cost: got %v want %v", clk.Now(), want)
	}
	if b.Len() != 32<<20 || b.Loc != Device {
		t.Fatalf("buffer wrong: %d %v", b.Len(), b.Loc)
	}
	if d.MemUsed() != 32<<20 || d.MallocCount != 1 {
		t.Fatalf("accounting wrong: %d used, %d mallocs", d.MemUsed(), d.MallocCount)
	}
	d.Free(clk, b)
	if d.MemUsed() != 0 || d.FreeCount != 1 {
		t.Fatalf("free accounting wrong")
	}
}

func TestCopyCosts(t *testing.T) {
	d := NewDevice(v100(), 1)
	clk := simtime.NewClock(0)
	src := []byte{1, 2, 3, 4}
	dst := make([]byte, 4)
	d.MemcpyD2HSmall(clk, dst, src)
	if clk.Now() != simtime.Time(simtime.FromMicroseconds(20)) {
		t.Fatalf("cudaMemcpy small should cost 20us, got %v", clk.Now())
	}
	if dst[0] != 1 || dst[3] != 4 {
		t.Fatal("data not copied")
	}
	start := clk.Now()
	d.GDRCopyD2HSmall(clk, dst, src)
	if clk.Now().Sub(start) != simtime.FromMicroseconds(2) {
		t.Fatalf("GDRCopy should cost 2us, got %v", clk.Now().Sub(start))
	}
}

func TestKernelTimeMemoryBoundScaling(t *testing.T) {
	d := NewDevice(v100(), 1)
	full := d.KernelTime(KernelSpec{Blocks: 80, Bytes: 1 << 20, ThroughputGbps: 200})
	half := d.KernelTime(KernelSpec{Blocks: 40, Bytes: 1 << 20, ThroughputGbps: 200})
	quarter := d.KernelTime(KernelSpec{Blocks: 20, Bytes: 1 << 20, ThroughputGbps: 200})
	// The paper's observation: half the SMs achieve the same throughput
	// as the full GPU.
	if full != half {
		t.Fatalf("half SMs should match full throughput: %v vs %v", half, full)
	}
	// Below half, throughput scales down.
	if quarter <= half {
		t.Fatalf("quarter SMs should be slower: %v vs %v", quarter, half)
	}
}

func TestKernelBusyWaitPenalty(t *testing.T) {
	d := NewDevice(v100(), 1)
	without := d.KernelTime(KernelSpec{Blocks: 80, Bytes: 1 << 20, ThroughputGbps: 200})
	with := d.KernelTime(KernelSpec{Blocks: 80, Bytes: 1 << 20, ThroughputGbps: 200, BusyWaitSync: true})
	wantDelta := simtime.Duration(80) * d.Spec.BlockSyncPerSM
	if with-without != wantDelta {
		t.Fatalf("busy-wait penalty: got %v want %v", with-without, wantDelta)
	}
}

func TestAsyncKernelAndStreamSync(t *testing.T) {
	d := NewDevice(v100(), 2)
	clk := simtime.NewClock(0)
	spec := KernelSpec{Blocks: 80, Bytes: 8 << 20, ThroughputGbps: 200}
	kt := d.KernelTime(spec)
	d.LaunchKernel(clk, d.Stream(0), spec)
	// CPU only paid the launch overhead.
	if clk.Now() != simtime.Time(d.Spec.KernelLaunch) {
		t.Fatalf("launch should be async: clock %v", clk.Now())
	}
	d.StreamSync(clk, d.Stream(0))
	want := simtime.Time(d.Spec.KernelLaunch).Add(kt).Add(d.Spec.StreamSync)
	if clk.Now() != want {
		t.Fatalf("after sync: got %v want %v", clk.Now(), want)
	}
}

func TestMultiStreamOverlap(t *testing.T) {
	d := NewDevice(v100(), 4)
	clk := simtime.NewClock(0)
	spec := KernelSpec{Blocks: 20, Bytes: 4 << 20, ThroughputGbps: 200}
	for i := 0; i < 4; i++ {
		d.LaunchKernel(clk, d.Stream(i), spec)
	}
	d.DeviceSync(clk)
	// Four kernels on four streams overlap: total ≈ one kernel time
	// plus 4 launches, far less than 4 serialized kernels.
	serialized := 4 * d.KernelTime(spec)
	if clk.Now() >= simtime.Time(serialized) {
		t.Fatalf("streams failed to overlap: %v vs serialized %v", clk.Now(), serialized)
	}
	// Same-stream kernels serialize.
	clk2 := simtime.NewClock(0)
	d2 := NewDevice(v100(), 1)
	for i := 0; i < 4; i++ {
		d2.LaunchKernel(clk2, d2.Stream(0), spec)
	}
	d2.DeviceSync(clk2)
	if clk2.Now() < simtime.Time(4*d2.KernelTime(spec)) {
		t.Fatalf("same-stream kernels should serialize: %v", clk2.Now())
	}
}

func TestDevicePropertiesVsAttributeCache(t *testing.T) {
	d := NewDevice(v100(), 1)
	clk := simtime.NewClock(0)
	// Uncached path pays cudaGetDeviceProperties every call.
	d.MaxGridDims(clk, false)
	d.MaxGridDims(clk, false)
	want := 2 * d.Spec.DevicePropsQuery
	if clk.Now() != simtime.Time(want) {
		t.Fatalf("uncached: got %v want %v", clk.Now(), want)
	}
	// Cached path pays one cudaDeviceGetAttribute total.
	d.ResetAttributeCache()
	clk2 := simtime.NewClock(0)
	for i := 0; i < 100; i++ {
		d.MaxGridDims(clk2, true)
	}
	if clk2.Now() != simtime.Time(d.Spec.AttributeQuery) {
		t.Fatalf("cached: got %v want %v", clk2.Now(), d.Spec.AttributeQuery)
	}
}

func TestMemcpyD2DMovesData(t *testing.T) {
	d := NewDevice(v100(), 1)
	clk := simtime.NewClock(0)
	src := []byte{9, 8, 7}
	dst := make([]byte, 3)
	d.MemcpyD2D(clk, d.Stream(0), dst, src)
	d.StreamSync(clk, d.Stream(0))
	if dst[0] != 9 || dst[2] != 7 {
		t.Fatal("D2D copy lost data")
	}
	if clk.Now() == 0 {
		t.Fatal("D2D copy should take time")
	}
}

func TestBufferPoolHitAvoidsMalloc(t *testing.T) {
	d := NewDevice(v100(), 1)
	init := simtime.NewClock(0)
	p := NewBufferPool(init, d, 4, 1<<20)
	if d.MallocCount != 4 {
		t.Fatalf("pool should preallocate 4 buffers, got %d mallocs", d.MallocCount)
	}
	clk := simtime.NewClock(0)
	b := p.Get(clk, 512<<10)
	if d.MallocCount != 4 {
		t.Fatal("pool hit must not malloc")
	}
	if clk.Now() >= simtime.Time(simtime.FromMicroseconds(1)) {
		t.Fatalf("pool hit should be sub-microsecond, got %v", clk.Now())
	}
	p.Put(b)
	if p.FreeCount() != 4 {
		t.Fatalf("put should return buffer: %d free", p.FreeCount())
	}
}

func TestBufferPoolGrowsOnDemand(t *testing.T) {
	d := NewDevice(v100(), 1)
	init := simtime.NewClock(0)
	p := NewBufferPool(init, d, 1, 1<<20)
	clk := simtime.NewClock(0)
	b1 := p.Get(clk, 100)
	b2 := p.Get(clk, 100) // pool exhausted -> malloc
	if p.Misses != 1 {
		t.Fatalf("expected 1 miss, got %d", p.Misses)
	}
	if d.MallocCount != 2 {
		t.Fatalf("expected 2 mallocs total, got %d", d.MallocCount)
	}
	p.Put(b1)
	p.Put(b2)
	if p.FreeCount() != 2 {
		t.Fatalf("pool should now hold 2 buffers, got %d", p.FreeCount())
	}
	// Oversized request also mallocs.
	b3 := p.Get(clk, 4<<20)
	if p.Misses != 2 || b3.Len() != 4<<20 {
		t.Fatalf("oversized get should miss: misses=%d len=%d", p.Misses, b3.Len())
	}
}

func TestSliceSharesMemory(t *testing.T) {
	b := NewHostBuffer(16)
	v := b.Slice(4, 8)
	v.Data[0] = 42
	if b.Data[4] != 42 {
		t.Fatal("slice must alias parent memory")
	}
	if v.Len() != 8 {
		t.Fatalf("slice length: %d", v.Len())
	}
}

func TestHostBufferFrom(t *testing.T) {
	raw := []byte{1, 2, 3}
	b := HostBufferFrom(raw)
	if b.Loc != Host || &b.Data[0] != &raw[0] {
		t.Fatal("HostBufferFrom must wrap without copying")
	}
	if b.Float32Len() != 0 {
		t.Fatalf("3 bytes = 0 float32s, got %d", b.Float32Len())
	}
}

func TestLocationString(t *testing.T) {
	if Host.String() != "host" || Device.String() != "device" {
		t.Fatal("Location.String wrong")
	}
}

func TestStreamGrowthAndIDs(t *testing.T) {
	d := NewDevice(v100(), 2)
	if d.NumStreams() != 2 {
		t.Fatalf("initial streams: %d", d.NumStreams())
	}
	s5 := d.Stream(5) // grows on demand
	if s5.ID() != 5 || d.NumStreams() != 6 {
		t.Fatalf("growth wrong: id=%d n=%d", s5.ID(), d.NumStreams())
	}
	if d.Stream(0).ID() != 0 {
		t.Fatal("stream 0 id wrong")
	}
	// Zero streams clamps to one.
	if NewDevice(v100(), 0).NumStreams() != 1 {
		t.Fatal("minimum one stream")
	}
}

func TestResetStreams(t *testing.T) {
	d := NewDevice(v100(), 1)
	clk := simtime.NewClock(0)
	d.LaunchKernel(clk, d.Stream(0), KernelSpec{Blocks: 80, Bytes: 8 << 20, ThroughputGbps: 200})
	d.ResetStreams()
	clk2 := simtime.NewClock(0)
	d.StreamSync(clk2, d.Stream(0))
	if clk2.Now() > simtime.Time(d.Spec.StreamSync) {
		t.Fatalf("reset should clear stream work: %v", clk2.Now())
	}
}

func TestPoolMiscellany(t *testing.T) {
	d := NewDevice(v100(), 1)
	p := NewBufferPool(simtime.NewClock(0), d, 2, 4096)
	if p.BufBytes() != 4096 {
		t.Fatalf("BufBytes: %d", p.BufBytes())
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
	// Put of nil and non-pooled buffers is a no-op.
	p.Put(nil)
	p.Put(NewHostBuffer(4096))
	if p.FreeCount() != 2 {
		t.Fatalf("stray puts should be ignored: %d", p.FreeCount())
	}
}

func TestPoolLazyMaterialization(t *testing.T) {
	d := NewDevice(v100(), 1)
	p := NewBufferPool(simtime.NewClock(0), d, 4, 32<<20)
	// Simulated VRAM is reserved up front...
	if d.MemUsed() != 4*32<<20 {
		t.Fatalf("VRAM should be reserved: %d", d.MemUsed())
	}
	// ...but no host memory is ever committed: pooled buffers are
	// reservations, on a hit and on a miss alike.
	clk := simtime.NewClock(0)
	held := []*Buffer{p.Get(clk, 1<<20), p.Get(clk, 1<<20), p.Get(clk, 1<<20), p.Get(clk, 1<<20), p.Get(clk, 1<<20), p.Get(clk, 40<<20)}
	if p.Misses != 2 {
		t.Fatalf("a drained pool and an oversized request should both miss: %d", p.Misses)
	}
	for i, b := range held {
		if b.Data != nil {
			t.Fatalf("pooled buffer %d owns %d host bytes", i, len(b.Data))
		}
		if b.Len() < 1<<20 {
			t.Fatalf("pooled buffer %d reports %d bytes, want at least the request", i, b.Len())
		}
	}
	if want := int64(4*32<<20 + 32<<20 + 40<<20); d.MemUsed() != want {
		t.Fatalf("misses must still reserve VRAM: %d, want %d", d.MemUsed(), want)
	}
}

func TestReserveAccountsLikeMalloc(t *testing.T) {
	d := NewDevice(v100(), 1)
	mclk, rclk := simtime.NewClock(0), simtime.NewClock(0)
	m := d.Malloc(mclk, 3<<20)
	r := d.Reserve(rclk, 3<<20)
	if mclk.Now() != rclk.Now() || m.Len() != r.Len() || d.MallocCount != 2 || d.MemUsed() != 6<<20 {
		t.Fatalf("Reserve must charge and count like Malloc: %v vs %v, len %d vs %d, mallocs %d, used %d",
			mclk.Now(), rclk.Now(), m.Len(), r.Len(), d.MallocCount, d.MemUsed())
	}
	if r.Data != nil || len(m.Data) != 3<<20 {
		t.Fatalf("Malloc owns host bytes, Reserve does not: %d / %d", len(m.Data), len(r.Data))
	}
	d.Free(mclk, m)
	d.Free(rclk, r)
	if mclk.Now() != rclk.Now() || d.FreeCount != 2 || d.MemUsed() != 0 || r.Len() != 0 {
		t.Fatalf("Free must release a reservation like an allocation: frees %d, used %d", d.FreeCount, d.MemUsed())
	}
	// CopyD2D is MemcpyD2D's charge.
	cclk, sclk := simtime.NewClock(0), simtime.NewClock(0)
	d2 := NewDevice(v100(), 1)
	d.ResetStreams()
	d.MemcpyD2D(cclk, d.Stream(0), make([]byte, 1<<20), make([]byte, 1<<20))
	d.StreamSync(cclk, d.Stream(0))
	d2.CopyD2D(sclk, d2.Stream(0), 1<<20)
	d2.StreamSync(sclk, d2.Stream(0))
	if cclk.Now() != sclk.Now() {
		t.Fatalf("CopyD2D charges %v, MemcpyD2D %v", sclk.Now(), cclk.Now())
	}
}

func TestFreeHostBufferNoop(t *testing.T) {
	d := NewDevice(v100(), 1)
	clk := simtime.NewClock(0)
	d.Free(clk, NewHostBuffer(10)) // host buffer: no device accounting
	d.Free(clk, nil)
	if clk.Now() != 0 || d.FreeCount != 0 {
		t.Fatal("freeing host/nil buffers must be free")
	}
}
