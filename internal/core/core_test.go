package core

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

func TestHeaderEncodeDecode(t *testing.T) {
	h := Header{
		Algo: AlgoMPC, Compressed: true,
		OrigBytes: 32 << 20, CompBytes: 12345678,
		Rate: 3, Dim: 5,
		PartBytes: []int{100, 200, 300, 400},
		Checksum:  0xdeadbeef, Fallback: true,
	}
	roundTripEveryField(t, h, Header.Encode, DecodeHeader, Header.wireSize)
}

func TestHeaderDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeHeader([]byte{1, 2, 3}); err == nil {
		t.Fatal("short header should fail")
	}
	h := Header{Algo: AlgoZFP, Compressed: true, OrigBytes: 8, CompBytes: 4}
	enc := h.Encode()
	enc[24] = 0xff // absurd partition count
	enc[25] = 0xff
	if _, err := DecodeHeader(enc); err == nil {
		t.Fatal("corrupt partition count should fail")
	}
	enc2 := h.Encode()
	enc2[11] = 0x80 // negative original size
	if _, err := DecodeHeader(enc2); err == nil {
		t.Fatal("negative original size should fail")
	}
}

func TestHeaderRatio(t *testing.T) {
	h := Header{Compressed: true, OrigBytes: 100, CompBytes: 25}
	if h.Ratio() != 4 {
		t.Fatalf("ratio: %v", h.Ratio())
	}
	if (Header{Compressed: false, OrigBytes: 100, CompBytes: 100}).Ratio() != 1 {
		t.Fatal("uncompressed ratio must be 1")
	}
}

func TestDefaultPartitions(t *testing.T) {
	cases := []struct{ bytes, max, want int }{
		{256 << 10, 8, 1},
		{1 << 20, 8, 2},
		{2 << 20, 8, 2},
		{4 << 20, 8, 4},
		{8 << 20, 8, 4},
		{16 << 20, 8, 8},
		{32 << 20, 8, 8},
		{32 << 20, 4, 4},
		{32 << 20, 1, 1},
	}
	for _, c := range cases {
		if got := DefaultPartitions(c.bytes, c.max); got != c.want {
			t.Errorf("DefaultPartitions(%d,%d)=%d want %d", c.bytes, c.max, got, c.want)
		}
	}
}

func TestConversionsRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		for _, v := range vals {
			if math.IsNaN(float64(v)) {
				return true // NaN payloads change bit patterns through float compare; skip
			}
		}
		b := FloatsToBytes(nil, vals)
		back := BytesToFloats(b)
		if len(back) != len(vals) {
			return false
		}
		for i := range vals {
			if back[i] != vals[i] {
				return false
			}
		}
		w := BytesToWords(b)
		b2 := WordsToBytes(nil, w)
		if len(b2) != len(b) {
			return false
		}
		for i := range b {
			if b2[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitWordsProperties(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)
		parts := 1 + int(pRaw)%8
		ranges := splitWordsInto(nil, n, parts)
		if len(ranges) != parts {
			return false
		}
		prev := 0
		for i, rg := range ranges {
			if rg[0] != prev || rg[1] < rg[0] {
				return false
			}
			// All but the last range must be chunk aligned.
			if i < len(ranges)-1 && rg[1]%32 != 0 && rg[1] != n {
				return false
			}
			prev = rg[1]
		}
		return prev == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- engine tests ---

func newTestEngine(t testing.TB, cfg Config) (*Engine, *gpusim.GPUDevice, *simtime.Clock) {
	t.Helper()
	dev := gpusim.NewDevice(hw.TeslaV100(), 8)
	clk := simtime.NewClock(0)
	return NewEngine(clk, dev, cfg), dev, clk
}

func deviceBufferWith(dev *gpusim.GPUDevice, vals []float32) *gpusim.Buffer {
	b := &gpusim.Buffer{Data: FloatsToBytes(nil, vals), Loc: gpusim.Device, Dev: dev}
	return b
}

func smooth(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, n)
	v := 1.0
	for i := range out {
		v += rng.NormFloat64() * 0.001
		out[i] = float32(v)
	}
	return out
}

func TestShouldCompress(t *testing.T) {
	e, dev, _ := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	big := deviceBufferWith(dev, smooth(1<<20, 1)) // 4 MB
	if !e.ShouldCompressPacked(big, big.Len()) {
		t.Fatal("4MB device buffer should compress")
	}
	small := deviceBufferWith(dev, smooth(100, 1))
	if e.ShouldCompressPacked(small, small.Len()) {
		t.Fatal("small buffer must not compress")
	}
	host := gpusim.NewHostBuffer(4 << 20)
	if e.ShouldCompressPacked(host, host.Len()) {
		t.Fatal("host buffer must not compress")
	}
	off, _, _ := newTestEngine(t, Config{Mode: ModeOff, Algorithm: AlgoMPC})
	if off.ShouldCompressPacked(big, big.Len()) {
		t.Fatal("ModeOff must not compress")
	}
}

func roundTripEngine(t *testing.T, cfg Config, vals []float32) (Header, []float32, *Engine) {
	t.Helper()
	sender, sdev, sclk := newTestEngine(t, cfg)
	receiver, rdev, rclk := newTestEngine(t, cfg)
	src := deviceBufferWith(sdev, vals)
	payload, hdr := sender.Compress(sclk, src)

	staged := receiver.StageRecv(rclk, hdr)
	if hdr.Compressed && staged == nil {
		t.Fatal("compressed message must stage a buffer")
	}
	dst := &gpusim.Buffer{Data: make([]byte, len(vals)*4), Loc: gpusim.Device, Dev: rdev}
	if err := receiver.Decompress(rclk, hdr, payload, dst); err != nil {
		t.Fatal(err)
	}
	receiver.ReleaseRecv(rclk, staged)
	return hdr, BytesToFloats(dst.Data), sender
}

func TestMPCRoundTripExactNaiveAndOpt(t *testing.T) {
	vals := smooth(1<<20, 42) // 4 MB
	for _, mode := range []Mode{ModeNaive, ModeOpt} {
		hdr, got, _ := roundTripEngine(t, Config{Mode: mode, Algorithm: AlgoMPC, MPCDim: 1}, vals)
		if !hdr.Compressed || hdr.Algo != AlgoMPC {
			t.Fatalf("%v: message should be MPC compressed", mode)
		}
		if hdr.Ratio() <= 1.1 {
			t.Fatalf("%v: smooth data should compress, got ratio %.3f", mode, hdr.Ratio())
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%v: MPC must be lossless; value %d differs", mode, i)
			}
		}
	}
}

func TestMPCOptUsesPartitions(t *testing.T) {
	vals := smooth(2<<20, 7) // 8 MB -> 4 partitions
	hdr, got, _ := roundTripEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC}, vals)
	if len(hdr.PartBytes) != 4 {
		t.Fatalf("8MB MPC-OPT should use 4 partitions, got %d", len(hdr.PartBytes))
	}
	sum := 0
	for _, p := range hdr.PartBytes {
		sum += p
	}
	if sum != hdr.CompBytes {
		t.Fatalf("partition sizes %d != payload %d", sum, hdr.CompBytes)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("partitioned MPC must remain lossless; value %d differs", i)
		}
	}
}

func TestPartitioningPreservesRatio(t *testing.T) {
	// The paper verified partitioning has negligible impact on CR.
	vals := smooth(4<<20, 9) // 16 MB
	hdr1, _, _ := roundTripEngine(t, Config{Mode: ModeNaive, Algorithm: AlgoMPC}, vals)
	hdrN, _, _ := roundTripEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC}, vals)
	if r1, rn := hdr1.Ratio(), hdrN.Ratio(); math.Abs(r1-rn)/r1 > 0.01 {
		t.Fatalf("partitioning changed CR too much: %.4f vs %.4f", r1, rn)
	}
}

func TestZFPRoundTripWithinTolerance(t *testing.T) {
	vals := smooth(1<<20, 5)
	for _, mode := range []Mode{ModeNaive, ModeOpt} {
		for _, rate := range []int{8, 16} {
			hdr, got, _ := roundTripEngine(t, Config{Mode: mode, Algorithm: AlgoZFP, ZFPRate: rate}, vals)
			if !hdr.Compressed || hdr.Algo != AlgoZFP {
				t.Fatalf("%v: message should be ZFP compressed", mode)
			}
			wantRatio := 32.0 / float64(rate)
			if math.Abs(hdr.Ratio()-wantRatio) > 0.01 {
				t.Fatalf("%v rate %d: fixed ratio %.3f, want %.3f", mode, rate, hdr.Ratio(), wantRatio)
			}
			var maxRel float64
			for i := range vals {
				rel := math.Abs(float64(got[i]-vals[i])) / math.Abs(float64(vals[i]))
				if rel > maxRel {
					maxRel = rel
				}
			}
			tol := 2e-3 // rate 16: ~11 mantissa bits survive
			if rate == 8 {
				tol = 5e-2 // rate 8: ~5 bit planes per value
			}
			if maxRel > tol {
				t.Fatalf("%v rate %d: max relative error %g", mode, rate, maxRel)
			}
		}
	}
}

func TestUncompressedBypass(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	small := deviceBufferWith(dev, smooth(64, 1))
	payload, hdr := e.Compress(clk, small)
	if hdr.Compressed {
		t.Fatal("small message must bypass compression")
	}
	if e.Bypasses != 1 {
		t.Fatalf("bypass counter: %d", e.Bypasses)
	}
	dst := &gpusim.Buffer{Data: make([]byte, small.Len()), Loc: gpusim.Device, Dev: dev}
	if err := e.Decompress(clk, hdr, payload, dst); err != nil {
		t.Fatal(err)
	}
	for i := range small.Data {
		if dst.Data[i] != small.Data[i] {
			t.Fatal("bypass payload corrupted")
		}
	}
}

func TestNaiveMallocsPerMessageOptDoesNot(t *testing.T) {
	vals := smooth(1<<20, 3)

	naive, ndev, nclk := newTestEngine(t, Config{Mode: ModeNaive, Algorithm: AlgoMPC})
	before := ndev.MallocCount
	naive.Compress(nclk, deviceBufferWith(ndev, vals))
	naive.Compress(nclk, deviceBufferWith(ndev, vals))
	if ndev.MallocCount-before != 4 { // 2 messages x (tmp + d_off)
		t.Fatalf("naive should malloc per message: %d new mallocs", ndev.MallocCount-before)
	}

	opt, odev, oclk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	before = odev.MallocCount // pools already allocated
	opt.Compress(oclk, deviceBufferWith(odev, vals))
	opt.Compress(oclk, deviceBufferWith(odev, vals))
	if odev.MallocCount != before {
		t.Fatalf("OPT must not malloc on the critical path: %d new", odev.MallocCount-before)
	}
}

func TestOptIsFasterThanNaive(t *testing.T) {
	vals := smooth(2<<20, 11) // 8 MB
	for _, algo := range []Algorithm{AlgoMPC, AlgoZFP} {
		naive, ndev, nclk := newTestEngine(t, Config{Mode: ModeNaive, Algorithm: algo})
		start := nclk.Now()
		naive.Compress(nclk, deviceBufferWith(ndev, vals))
		naiveTime := nclk.Now().Sub(start)

		opt, odev, oclk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: algo})
		start = oclk.Now()
		opt.Compress(oclk, deviceBufferWith(odev, vals))
		optTime := oclk.Now().Sub(start)

		if optTime >= naiveTime {
			t.Fatalf("%v: OPT (%v) should beat naive (%v)", algo, optTime, naiveTime)
		}
	}
}

func TestZFPOptRemovesGridQueryOverhead(t *testing.T) {
	vals := smooth(1<<20, 2)

	naive, ndev, nclk := newTestEngine(t, Config{Mode: ModeNaive, Algorithm: AlgoZFP})
	naive.Compress(nclk, deviceBufferWith(ndev, vals))
	naive.Compress(nclk, deviceBufferWith(ndev, vals))
	gq := naive.Stats.Get(PhaseGridQuery)
	// Two compressions, each pays ~1840us.
	if gq < simtime.FromMicroseconds(3000) {
		t.Fatalf("naive ZFP grid query should dominate: %v", gq)
	}

	opt, odev, oclk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoZFP})
	opt.Compress(oclk, deviceBufferWith(odev, vals))
	opt.Compress(oclk, deviceBufferWith(odev, vals))
	if g := opt.Stats.Get(PhaseGridQuery); g > simtime.FromMicroseconds(2) {
		t.Fatalf("ZFP-OPT grid query should be ~1us once: %v", g)
	}
}

func TestMPCOptUsesGDRCopy(t *testing.T) {
	vals := smooth(256<<10, 2) // 1 MB -> threshold met

	naive, ndev, nclk := newTestEngine(t, Config{Mode: ModeNaive, Algorithm: AlgoMPC})
	naive.Compress(nclk, deviceBufferWith(ndev, vals))
	if dc := naive.Stats.Get(PhaseDataCopy); dc < simtime.FromMicroseconds(19) {
		t.Fatalf("naive MPC size readback should cost ~20us: %v", dc)
	}

	opt, odev, oclk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	opt.Compress(oclk, deviceBufferWith(odev, vals))
	if dc := opt.Stats.Get(PhaseDataCopy); dc > simtime.FromMicroseconds(12) {
		t.Fatalf("MPC-OPT GDRCopy readback should cost a few us: %v", dc)
	}
}

func TestDecompressErrors(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeNaive, Algorithm: AlgoMPC})
	vals := smooth(1<<20, 8)
	payload, hdr := e.Compress(clk, deviceBufferWith(dev, vals))

	tooSmall := &gpusim.Buffer{Data: make([]byte, 16), Loc: gpusim.Device, Dev: dev}
	if err := e.Decompress(clk, hdr, payload, tooSmall); err == nil {
		t.Fatal("undersized dst should fail")
	}
	dst := &gpusim.Buffer{Data: make([]byte, hdr.OrigBytes), Loc: gpusim.Device, Dev: dev}
	if err := e.Decompress(clk, hdr, payload[:len(payload)/2], dst); err == nil {
		t.Fatal("truncated payload should fail")
	}
	bad := hdr
	bad.Algo = Algorithm(99)
	if err := e.Decompress(clk, bad, payload, dst); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	bad = hdr
	bad.PartBytes = nil
	if err := e.Decompress(clk, bad, payload, dst); err == nil {
		t.Fatal("missing partitions should fail")
	}
}

// A partition decode error used to leak the d_off staging buffer (the
// early return skipped the Put/Free pair); since the receive path
// retries after NACKs, every retry shrank the pool. The creditbalance
// analyzer found it and guarded the engine's acquire/release pairs until
// it was retired; today this test and the pool-balance check in
// tryDecompress (every seed and input of FuzzDecompressMPC,
// FuzzDecompressZFP and FuzzDecodeHeaderDecompress) own the rule. The
// test asserts it reached the partition decode: once the engine began
// checking CompBytes against the payload first, a truncation that left
// CompBytes alone failed before d_off was taken and the test passed with
// the leak re-planted.
func TestDecompressErrorReleasesOffBuffer(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	vals := smooth(1<<20, 8)
	payload, hdr := e.Compress(clk, deviceBufferWith(dev, vals))
	if !hdr.Compressed || len(hdr.PartBytes) == 0 {
		t.Fatal("sample did not take the compressed MPC path")
	}

	// Prime the off-pool free list so a leak is visible as a shrink.
	dst := &gpusim.Buffer{Data: make([]byte, hdr.OrigBytes), Loc: gpusim.Device, Dev: dev}
	if err := e.Decompress(clk, hdr, payload, dst); err != nil {
		t.Fatal(err)
	}
	free := e.offPool.FreeCount()
	if free == 0 {
		t.Fatal("off-pool should hold a free buffer after a clean decompress")
	}

	// Truncate the last partition while keeping the header sizes
	// consistent, so the failure happens inside the partition decode —
	// after d_off is acquired.
	const cut = 3
	last := len(hdr.PartBytes) - 1
	if hdr.PartBytes[last] <= cut {
		t.Fatalf("last partition too small to truncate: %d", hdr.PartBytes[last])
	}
	hdr.PartBytes[last] -= cut
	hdr.CompBytes -= cut
	if err := e.Decompress(clk, hdr, payload[:len(payload)-cut], dst); err == nil || !strings.Contains(err.Error(), "decompress partition") {
		t.Fatalf("truncated MPC partition should fail inside the partition decode, got %v", err)
	}
	if got := e.offPool.FreeCount(); got != free {
		t.Fatalf("decompress error leaked a d_off buffer: free count %d, want %d", got, free)
	}
}

func TestBreakdownAccounting(t *testing.T) {
	var b Breakdown
	b.Add(PhaseMemAlloc, 100)
	b.Add(PhaseCompressKernel, 300)
	b.Add(PhaseMemAlloc, 50)
	b.Add(PhaseComm, -10) // ignored
	if b.Get(PhaseMemAlloc) != 150 || b.Total() != 450 {
		t.Fatalf("accounting wrong: %v / %v", b.Get(PhaseMemAlloc), b.Total())
	}
	var c Breakdown
	c.AddAll(&b)
	c.AddAll(&b)
	if c.Total() != 900 {
		t.Fatalf("AddAll: %v", c.Total())
	}
	s := c.Scale(2)
	if s.Total() != 450 {
		t.Fatalf("Scale: %v", s.Total())
	}
	b.Reset()
	if b.Total() != 0 {
		t.Fatal("Reset failed")
	}
	if s.String() == "" {
		t.Fatal("String should render phases")
	}
}

// The engine must tolerate concurrent use: the MPI progress path stages
// receives (on behalf of matching senders) while the owning rank
// compresses outgoing messages.
func TestEngineConcurrentStress(t *testing.T) {
	e, dev, _ := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Threshold: 64 << 10, PoolBufBytes: 2 << 20})
	vals := smooth(64<<10, 3) // 256 KB
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			clk := simtime.NewClock(0)
			for i := 0; i < 20; i++ {
				buf := deviceBufferWith(dev, vals)
				payload, hdr := e.Compress(clk, buf)
				staged := e.StageRecv(clk, hdr)
				dst := &gpusim.Buffer{Data: make([]byte, hdr.OrigBytes), Loc: gpusim.Device, Dev: dev}
				err := e.Decompress(clk, hdr, payload, dst)
				e.ReleaseRecv(clk, staged)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				for j := 0; j < len(buf.Data); j += 4099 {
					if dst.Data[j] != buf.Data[j] {
						t.Errorf("goroutine %d: corruption at %d", g, j)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Compressions != 160 || e.Decompressions != 160 {
		t.Fatalf("activity counters raced: %d/%d", e.Compressions, e.Decompressions)
	}
}
