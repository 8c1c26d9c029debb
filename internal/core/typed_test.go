package core

import (
	"bytes"
	"testing"

	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
)

// typedLayouts are the oracle layouts: a strided vector (halo y-face
// shape), a 3-D subarray x-face (worst case: single-word runs), and a
// coalescing subarray (full plane, one run).
func typedLayouts() []dtype.Type {
	return []dtype.Type{
		dtype.Vector{Count: 96, BlockLen: 64, Stride: 96},
		dtype.Subarray3D{Dims: [3]int{34, 34, 16}, Sub: [3]int{1, 32, 16}, Start: [3]int{1, 1, 0}},
		dtype.Subarray3D{Dims: [3]int{32, 32, 16}, Sub: [3]int{32, 32, 4}, Start: [3]int{0, 0, 8}},
	}
}

func typedSrcBuffer(dev *gpusim.GPUDevice, t dtype.Type) *gpusim.Buffer {
	extent := 0
	switch ty := t.(type) {
	case dtype.Vector:
		extent = (ty.Count-1)*ty.Stride + ty.BlockLen
	case dtype.Subarray3D:
		extent = ty.Dims[0] * ty.Dims[1] * ty.Dims[2]
	case dtype.Contiguous:
		extent = ty.Words
	}
	return deviceBufferWith(dev, smooth(extent, 42))
}

// TestTypedFusionOracle is the differential oracle of the fused path:
// for every layout and both codecs, CompressTyped over the strided
// source must produce bit-identical wire bytes (payload, sizes,
// checksum) to Pack followed by Compress of the packed stream, and
// DecompressTyped must scatter exactly the packed words back into the
// layout's positions, leaving every unselected byte untouched.
func TestTypedFusionOracle(t *testing.T) {
	configs := []Config{
		{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 1, Threshold: 1 << 10},
		{Mode: ModeOpt, Algorithm: AlgoZFP, ZFPRate: 8, Workers: 1, Threshold: 1 << 10},
	}
	for _, cfg := range configs {
		for li, ty := range typedLayouts() {
			fused, fdev, fclk := newTestEngine(t, cfg)
			ref, rdev, rclk := newTestEngine(t, cfg)

			src := typedSrcBuffer(fdev, ty)
			if err := ty.Validate(src.Len()); err != nil {
				t.Fatalf("layout %d: %v", li, err)
			}

			// Reference: explicit pack, then contiguous compression.
			packed := &gpusim.Buffer{Data: make([]byte, ty.Size()), Loc: gpusim.Device, Dev: rdev}
			if err := dtype.Pack(packed.Data, src.Data, ty); err != nil {
				t.Fatalf("layout %d: pack: %v", li, err)
			}
			refPayload, refHdr := ref.Compress(rclk, packed)

			payload, hdr := fused.CompressTyped(fclk, src, ty)
			if !bytes.Equal(payload, refPayload) {
				t.Fatalf("algo %v layout %d: fused payload differs from pack-then-compress", cfg.Algorithm, li)
			}
			if hdr.OrigBytes != refHdr.OrigBytes || hdr.CompBytes != refHdr.CompBytes ||
				hdr.Checksum != refHdr.Checksum || hdr.Compressed != refHdr.Compressed {
				t.Fatalf("algo %v layout %d: header mismatch: %+v vs %+v", cfg.Algorithm, li, hdr, refHdr)
			}

			// Fused decompress scatters straight into a strided destination.
			dst := &gpusim.Buffer{Data: make([]byte, src.Len()), Loc: gpusim.Device, Dev: fdev}
			for i := range dst.Data {
				dst.Data[i] = 0xEE // sentinel: bytes outside the layout must survive
			}
			before := append([]byte(nil), dst.Data...)
			if err := fused.DecompressTyped(fclk, hdr, payload, dst, ty); err != nil {
				t.Fatalf("algo %v layout %d: typed decompress: %v", cfg.Algorithm, li, err)
			}

			// The receiver's view of the packed stream must match what the
			// reference decoder produces for the same payload.
			refOut := &gpusim.Buffer{Data: make([]byte, ty.Size()), Loc: gpusim.Device, Dev: rdev}
			if err := ref.Decompress(rclk, refHdr, refPayload, refOut); err != nil {
				t.Fatalf("algo %v layout %d: ref decompress: %v", cfg.Algorithm, li, err)
			}
			got := make([]byte, ty.Size())
			if err := dtype.Pack(got, dst.Data, ty); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refOut.Data) {
				t.Fatalf("algo %v layout %d: scattered words differ from reference decode", cfg.Algorithm, li)
			}
			if err := dtype.Unpack(before, refOut.Data, ty); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst.Data, before) {
				t.Fatalf("algo %v layout %d: typed decompress touched bytes outside the layout", cfg.Algorithm, li)
			}
		}
	}
}

// TestTypedBypassMatchesPack: below the threshold (or with compression
// off) the typed path must put exactly the packed bytes on the wire,
// and the typed receive of an uncompressed payload must scatter them
// back losslessly.
func TestTypedBypassMatchesPack(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 1, Threshold: 1 << 30})
	ty := dtype.Vector{Count: 8, BlockLen: 4, Stride: 9}
	src := typedSrcBuffer(dev, ty)

	payload, hdr := e.CompressTyped(clk, src, ty)
	if hdr.Compressed {
		t.Fatal("message below threshold must not compress")
	}
	want := make([]byte, ty.Size())
	if err := dtype.Pack(want, src.Data, ty); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, want) {
		t.Fatal("uncompressed typed payload is not the packed stream")
	}

	dst := &gpusim.Buffer{Data: make([]byte, src.Len()), Loc: gpusim.Device, Dev: dev}
	if err := e.DecompressTyped(clk, hdr, payload, dst, ty); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, ty.Size())
	if err := dtype.Pack(got, dst.Data, ty); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("uncompressed typed receive did not scatter the packed bytes")
	}

	// The typed bypass is not free: packing strided bytes costs a pass.
	if clk.Now() == 0 {
		t.Fatal("typed bypass charged no simulated time for the pack pass")
	}
}

// TestTypedChunksReassemble drives the chunk-granular entry points the
// pipelined path uses: compressing packed ranges [off, off+c) one at a
// time and scattering each back by offset must reproduce the whole
// message.
func TestTypedChunksReassemble(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 1, Threshold: 1 << 10})
	ty := dtype.Subarray3D{Dims: [3]int{64, 32, 8}, Sub: [3]int{32, 32, 8}, Start: [3]int{16, 0, 0}}
	src := typedSrcBuffer(dev, ty)
	dst := &gpusim.Buffer{Data: make([]byte, src.Len()), Loc: gpusim.Device, Dev: dev}

	const chunk = 8 << 10
	for off := 0; off < ty.Size(); off += chunk {
		n := chunk
		if off+n > ty.Size() {
			n = ty.Size() - off
		}
		payload, hdr := e.CompressChunkCached(clk, src, ty, off, n)
		if hdr.OrigBytes != n {
			t.Fatalf("chunk at %d: OrigBytes %d, want %d", off, hdr.OrigBytes, n)
		}
		if err := e.DecompressChunk(clk, hdr, payload, dst, ty, off); err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
	}

	want := make([]byte, ty.Size())
	got := make([]byte, ty.Size())
	if err := dtype.Pack(want, src.Data, ty); err != nil {
		t.Fatal(err)
	}
	if err := dtype.Pack(got, dst.Data, ty); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("chunked typed round trip lost data")
	}
}

// TestTypedWorkerInvariance: the fused gather rides the codec's
// parallel read pass, so payload bytes and simulated time must be
// identical for 1, 2, and 8 host workers (run under -race in CI).
func TestTypedWorkerInvariance(t *testing.T) {
	ty := dtype.Vector{Count: 128, BlockLen: 96, Stride: 160}
	var refPayload []byte
	var refHdr Header
	var refTime int64
	for i, workers := range []int{1, 2, 8} {
		e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: workers, Threshold: 1 << 10})
		src := typedSrcBuffer(dev, ty)
		payload, hdr := e.CompressTyped(clk, src, ty)
		if i == 0 {
			refPayload, refHdr, refTime = payload, hdr, int64(clk.Now())
			continue
		}
		if !bytes.Equal(payload, refPayload) || hdr.Checksum != refHdr.Checksum {
			t.Fatalf("workers=%d: payload differs from workers=1", workers)
		}
		if int64(clk.Now()) != refTime {
			t.Fatalf("workers=%d: simulated time %d != %d", workers, clk.Now(), refTime)
		}
	}
}

// TestTypedSteadyStateAllocs: after warm-up, the fused typed send path
// (the framework's arena view appended into a caller slice) performs zero heap
// allocations — the "zero staging allocations" acceptance gate.
func TestTypedSteadyStateAllocs(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 1, Threshold: 1 << 10})
	// Boxed once: converting the concrete struct to the interface at
	// each call would itself allocate and mask what we measure.
	var ty dtype.Type = dtype.Subarray3D{Dims: [3]int{34, 34, 32}, Sub: [3]int{32, 32, 32}, Start: [3]int{1, 1, 0}}
	src := typedSrcBuffer(dev, ty)
	dst := make([]byte, 0, ty.Size()+1024)

	send := func() {
		e.mu.Lock()
		view, _ := e.compressLocked(clk, whole(src, ty))
		dst = append(dst[:0], view...)
		e.mu.Unlock()
	}
	// Warm the arena and the codec pool scratch.
	for i := 0; i < 3; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(20, send)
	if allocs != 0 {
		t.Fatalf("steady-state typed compression allocates %.1f times per send, want 0", allocs)
	}
}

// TestTypedCacheKeyedByLayout: two layouts over the same tracked
// allocation cache independently; a repeat of either hits; a write
// invalidates both.
func TestTypedCacheKeyedByLayout(t *testing.T) {
	cfg := cacheConfig()
	cfg.Threshold = 1 << 10
	e, dev, clk := newTestEngine(t, cfg)
	vec := dtype.Vector{Count: 96, BlockLen: 64, Stride: 96}
	sub := dtype.Subarray3D{Dims: [3]int{96, 96, 1}, Sub: [3]int{64, 96, 1}, Start: [3]int{0, 0, 0}}
	src := typedSrcBuffer(dev, vec).Track()

	p1, h1 := e.CompressChunkCached(clk, src, vec, 0, vec.Size())
	e.CompressChunkCached(clk, src, sub, 0, sub.Size())
	afterMisses := clk.Now()
	p2, h2 := e.CompressChunkCached(clk, src, vec, 0, vec.Size())
	if clk.Now() != afterMisses {
		t.Fatal("typed cache hit advanced the clock")
	}
	if !bytes.Equal(p1, p2) || h1.Checksum != h2.Checksum {
		t.Fatal("typed cache hit returned different bytes")
	}
	st := e.CacheSnapshot()
	if st.Misses != 2 || st.Hits != 1 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}

	src.Data[0] ^= 0xFF
	src.MarkDirty()
	e.CompressChunkCached(clk, src, vec, 0, vec.Size())
	if st := e.CacheSnapshot(); st.Invalidations != 1 || st.Misses != 3 {
		t.Fatalf("post-write stats: %+v", st)
	}
}

// TestTypedValidationErrors: the typed decompress rejects layouts and
// chunk ranges that do not fit the destination.
func TestTypedValidationErrors(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 1, Threshold: 1 << 10})
	ty := dtype.Vector{Count: 96, BlockLen: 64, Stride: 96}
	src := typedSrcBuffer(dev, ty)
	payload, hdr := e.CompressTyped(clk, src, ty)

	small := &gpusim.Buffer{Data: make([]byte, 64), Loc: gpusim.Device, Dev: dev}
	if err := e.DecompressTyped(clk, hdr, payload, small, ty); err == nil {
		t.Fatal("layout exceeding the destination must fail")
	}
	dst := &gpusim.Buffer{Data: make([]byte, src.Len()), Loc: gpusim.Device, Dev: dev}
	if err := e.DecompressChunk(clk, hdr, payload, dst, ty, 8); err == nil {
		t.Fatal("chunk past the packed size must fail")
	}
	bad := hdr
	bad.CompBytes = len(payload) - 1
	if err := e.DecompressTyped(clk, bad, payload, dst, ty); err == nil {
		t.Fatal("payload/header size mismatch must fail")
	}
}

// FuzzTypedFusion cross-checks the fused path against the Pack
// reference for arbitrary layouts over a fixed 3-D brick.
func FuzzTypedFusion(f *testing.F) {
	f.Add(24, 16, 24, uint8(0))
	f.Add(1, 16, 16, uint8(1))
	f.Add(7, 3, 11, uint8(0))
	f.Fuzz(func(t *testing.T, a, b, c int, kind uint8) {
		var ty dtype.Type
		if kind%2 == 0 {
			ty = dtype.Vector{Count: a, BlockLen: b, Stride: c}
		} else {
			ty = dtype.Subarray3D{
				Dims:  [3]int{24, 24, 24},
				Sub:   [3]int{fuzzDim(a), fuzzDim(b), fuzzDim(c)},
				Start: [3]int{fuzzAbs(a) % 24, fuzzAbs(b) % 24, fuzzAbs(c) % 24},
			}
		}
		e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 2, Threshold: 1 << 8})
		ref, rdev, rclk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 2, Threshold: 1 << 8})
		src := deviceBufferWith(dev, smooth(24*24*24, 7))
		if err := ty.Validate(src.Len()); err != nil {
			return
		}
		packed := &gpusim.Buffer{Data: make([]byte, ty.Size()), Loc: gpusim.Device, Dev: rdev}
		if err := dtype.Pack(packed.Data, src.Data, ty); err != nil {
			t.Fatal(err)
		}
		refPayload, refHdr := ref.Compress(rclk, packed)
		payload, hdr := e.CompressTyped(clk, src, ty)
		if !bytes.Equal(payload, refPayload) || hdr.Checksum != refHdr.Checksum {
			t.Fatalf("fused payload diverges from pack-then-compress for %+v", ty)
		}
		dst := &gpusim.Buffer{Data: make([]byte, src.Len()), Loc: gpusim.Device, Dev: dev}
		if err := e.DecompressTyped(clk, hdr, payload, dst, ty); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, ty.Size())
		if err := dtype.Pack(got, dst.Data, ty); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, packed.Data) {
			t.Fatalf("typed round trip lost data for %+v", ty)
		}
	})
}

func fuzzDim(v int) int {
	v = fuzzAbs(v) % 25
	if v == 0 {
		return 1
	}
	return v
}

func fuzzAbs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// benchTypedRoundTrip times one engine round trip (compress, then restore)
// of awp_halo's X face — 92,160 one-word runs out of a two-sided boundary
// mirror — next to the same number of bytes sent flat, so the gap a layout
// costs on the host clock has a go test -bench number.
func benchTypedRoundTrip(b *testing.B, cfg Config) {
	xFace := dtype.Subarray3D{Dims: [3]int{2, 320, 288}, Sub: [3]int{1, 320, 288}, Start: [3]int{1, 0, 0}}
	for _, c := range []struct {
		name  string
		t     dtype.Type
		words int
	}{
		{"flat", nil, xFace.Size() / 4},
		{"xface", xFace, 2 * xFace.Size() / 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			e, dev, clk := newTestEngine(b, cfg)
			src := deviceBufferWith(dev, smooth(c.words, 7))
			dst := &gpusim.Buffer{Data: make([]byte, src.Len()), Loc: gpusim.Device, Dev: dev}
			b.SetBytes(int64(xFace.Size()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				payload, hdr := e.CompressTyped(clk, src, c.t)
				if err := e.DecompressTyped(clk, hdr, payload, dst, c.t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTypedRoundTripMPC(b *testing.B) {
	benchTypedRoundTrip(b, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 1})
}

func BenchmarkTypedRoundTripZFP(b *testing.B) {
	benchTypedRoundTrip(b, Config{Mode: ModeOpt, Algorithm: AlgoZFP, ZFPRate: 8, Workers: 1})
}
