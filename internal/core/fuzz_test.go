package core

import (
	"fmt"
	"math/rand"
	"testing"

	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// These tests mirror internal/mpc/fuzz_test.go one layer up: whatever a
// faulty fabric hands the receive-side framework — truncated payloads,
// flipped bits, corrupted headers — Engine.Decompress must return an
// error or correct output, never panic and never write silently short
// output into the destination buffer.

func fuzzEngine(algo Algorithm) (*Engine, *gpusim.GPUDevice, *simtime.Clock) {
	dev := gpusim.NewDevice(hw.TeslaV100(), 8)
	clk := simtime.NewClock(0)
	cfg := Config{Mode: ModeOpt, Algorithm: algo, Threshold: 1 << 10, PoolBufBytes: 1 << 20}
	return NewEngine(clk, dev, cfg), dev, clk
}

// compressSample produces a genuine compressed (payload, header) pair to
// seed the fuzzers with realistic corpora.
func compressSample(e *Engine, dev *gpusim.GPUDevice, clk *simtime.Clock, n int) ([]byte, Header) {
	vals := smooth(n, 42)
	return e.Compress(clk, deviceBufferWith(dev, vals))
}

// tryDecompress runs one decode attempt and checks the fuzzers' invariants:
// no panic, and every staging buffer it took back in its pool, failed or not.
func tryDecompress(t *testing.T, e *Engine, clk *simtime.Clock, hdr Header, payload []byte) {
	t.Helper()
	if hdr.OrigBytes < 0 || hdr.OrigBytes > 1<<24 {
		return
	}
	dst := &gpusim.Buffer{Data: make([]byte, maxInt(hdr.OrigBytes, 0)), Loc: gpusim.Device, Dev: e.Device()}
	free, offFree := e.pool.FreeCount(), e.offPool.FreeCount()
	// Any outcome but a panic is acceptable; corrupted streams that
	// happen to decode are caught one layer up by the CRC check.
	err := e.Decompress(clk, hdr, payload, dst)
	if e.pool.FreeCount() != free || e.offPool.FreeCount() != offFree {
		t.Fatalf("decode (err %v) left %d/%d pool buffers free, want %d/%d", err, e.pool.FreeCount(), e.offPool.FreeCount(), free, offFree)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func FuzzDecompressMPC(f *testing.F) {
	e, dev, clk := fuzzEngine(AlgoMPC)
	payload, hdr := compressSample(e, dev, clk, 4096)
	f.Add(payload, hdr.OrigBytes, len(hdr.PartBytes), hdr.Dim)
	f.Add([]byte{}, 0, 1, 1)
	f.Add([]byte{1, 2, 3}, 128, 2, 5)
	f.Fuzz(func(t *testing.T, comp []byte, origBytes, parts, dim int) {
		if parts < 0 || parts > 64 {
			return
		}
		h := Header{
			Algo: AlgoMPC, Compressed: true,
			OrigBytes: origBytes, CompBytes: len(comp), Dim: dim,
		}
		per := 0
		if parts > 0 {
			per = len(comp) / parts
		}
		for i := 0; i < parts; i++ {
			pb := per
			if i == parts-1 {
				pb = len(comp) - per*(parts-1)
			}
			h.PartBytes = append(h.PartBytes, pb)
		}
		tryDecompress(t, e, clk, h, comp)
	})
}

func FuzzDecompressZFP(f *testing.F) {
	e, dev, clk := fuzzEngine(AlgoZFP)
	payload, hdr := compressSample(e, dev, clk, 4096)
	f.Add(payload, hdr.OrigBytes, hdr.Rate)
	f.Add([]byte{}, 0, 16)
	f.Add([]byte{0xff, 0x01}, 64, 4)
	f.Fuzz(func(t *testing.T, comp []byte, origBytes, rate int) {
		h := Header{
			Algo: AlgoZFP, Compressed: true,
			OrigBytes: origBytes, CompBytes: len(comp), Rate: rate,
		}
		tryDecompress(t, e, clk, h, comp)
	})
}

// FuzzDecodeHeaderDecompress drives the full receive path a corrupted RTS
// exercises: parse arbitrary header bytes, then decode an arbitrary
// payload under whatever header survived parsing.
func FuzzDecodeHeaderDecompress(f *testing.F) {
	e, dev, clk := fuzzEngine(AlgoMPC)
	payload, hdr := compressSample(e, dev, clk, 2048)
	f.Add(hdr.Encode(), payload)
	f.Add([]byte{}, []byte{})
	// A second real capture from the other codec, and a fallback-bit
	// variant of each, so the degradation path is in the corpus too.
	ez, devz, clkz := fuzzEngine(AlgoZFP)
	payloadZ, hdrZ := compressSample(ez, devz, clkz, 2048)
	f.Add(hdrZ.Encode(), payloadZ)
	fb := hdr
	fb.Fallback = true
	f.Add(fb.Encode(), payload)
	fbz := hdrZ
	fbz.Fallback = true
	f.Add(fbz.Encode(), payloadZ)
	f.Fuzz(func(t *testing.T, enc, comp []byte) {
		h, err := DecodeHeader(enc)
		if err != nil {
			return
		}
		tryDecompress(t, e, clk, h, comp)
	})
}

// TestDecompressCorruptedStreams exercises the fuzz property on every
// `go test` run: real compressed streams, then truncated, lying-header
// and bit-flipped variants, for both codecs and for both destination
// shapes — contiguous and through a layout (the fused payload of a layout
// is the payload of its packed stream, so one capture serves both).
func TestDecompressCorruptedStreams(t *testing.T) {
	const words = 8192
	vec := dtype.Vector{Count: words / 128, BlockLen: 128, Stride: 192}
	shapes := []struct {
		name   string
		t      dtype.Type
		extent int
	}{
		{"contiguous", nil, 4 * words},
		{"layout", vec, 4 * ((vec.Count-1)*vec.Stride + vec.BlockLen)},
	}
	for _, algo := range []Algorithm{AlgoMPC, AlgoZFP} {
		for _, shape := range shapes {
			rng := rand.New(rand.NewSource(7))
			e, dev, clk := fuzzEngine(algo)
			payload, hdr := compressSample(e, dev, clk, words)
			dst := &gpusim.Buffer{Data: make([]byte, shape.extent), Loc: gpusim.Device, Dev: dev}
			decode := func(h Header, wire []byte) error {
				return e.DecompressChunk(clk, h, wire, dst, shape.t, 0)
			}
			label := fmt.Sprintf("%v/%s", algo, shape.name)

			// The intact stream must decode.
			if err := decode(hdr, payload); err != nil {
				t.Fatalf("%s: intact stream failed: %v", label, err)
			}

			// Truncations at every kind of boundary must error (the header
			// still claims the full compressed size).
			for _, cut := range []int{0, 1, len(payload) / 3, len(payload) - 1} {
				if err := decode(hdr, payload[:cut]); err == nil {
					t.Errorf("%s: truncation to %d bytes decoded silently", label, cut)
				}
			}

			// Padding the payload — with the header's CompBytes (and MPC's
			// partition table) grown to match, so that only the codec can
			// tell — must error too: the Decompress contract refuses a
			// padded pair as it does a truncated one.
			for _, pad := range []int{1, 4, 64} {
				padded := append(append([]byte(nil), payload...), make([]byte, pad)...)
				long := hdr
				long.CompBytes += pad
				if algo == AlgoMPC {
					long.PartBytes = append([]int(nil), hdr.PartBytes...)
					long.PartBytes[len(long.PartBytes)-1] += pad
				}
				if err := decode(long, padded); err == nil {
					t.Errorf("%s: payload padded by %d bytes decoded silently", label, pad)
				}
			}

			// A header that also lies about CompBytes (so lengths agree) must
			// still yield an error, not a panic or short output.
			for _, cut := range []int{0, 1, len(payload) / 2} {
				short := hdr
				short.CompBytes = cut
				if algo == AlgoMPC {
					// Keep the partition table consistent with the lie.
					short.PartBytes = []int{cut}
				}
				_ = decode(short, payload[:cut])
			}

			// An uncompressed header lying about OrigBytes — shorter than,
			// longer than, or (the silent-truncation case) clamped to the
			// destination while the payload overruns it — must be refused
			// before the destination is touched.
			raw := make([]byte, 4*words+64)
			rng.Read(raw)
			for _, lie := range []struct{ orig, wire int }{
				{4*words - 4, 4 * words}, {4 * words, 4*words - 4}, {4 * words, 4*words + 64},
			} {
				for i := range dst.Data {
					dst.Data[i] = 0xEE
				}
				h := Header{Algo: AlgoNone, OrigBytes: lie.orig, CompBytes: lie.wire}
				if err := decode(h, raw[:lie.wire]); err == nil {
					t.Errorf("%s: uncompressed payload of %d bytes accepted under OrigBytes=%d", label, lie.wire, lie.orig)
				}
				for i, b := range dst.Data {
					if b != 0xEE {
						t.Fatalf("%s: refused uncompressed payload (orig=%d wire=%d) still wrote byte %d", label, lie.orig, lie.wire, i)
					}
				}
			}

			// An Algo byte outside the codec table — straight in the header
			// or through the wire decoder — is an error, never a panic.
			for _, id := range []int{len(codecs), 0x7f, 0xff} {
				h := hdr
				h.Algo = Algorithm(id)
				if err := decode(h, payload); err == nil {
					t.Errorf("%s: unknown algorithm id %d decoded", label, id)
				}
				enc := hdr.Encode()
				enc[0] = byte(id)
				if h, err := DecodeHeader(enc); err == nil && decode(h, payload) == nil {
					t.Errorf("%s: wire header with algorithm byte %#x decoded", label, id)
				}
			}

			// Bit flips: must never panic; errors or garbage output are both
			// legal here (the CRC layer rejects garbage end to end).
			for trial := 0; trial < 200; trial++ {
				wire := append([]byte(nil), payload...)
				for f := 0; f < 1+rng.Intn(4); f++ {
					bit := rng.Intn(len(wire) * 8)
					wire[bit/8] ^= 1 << (bit % 8)
				}
				_ = decode(hdr, wire)
			}

			// Corrupt headers over an intact payload.
			for trial := 0; trial < 200; trial++ {
				h := hdr
				switch trial % 5 {
				case 0:
					h.Dim = rng.Intn(64) - 8
				case 1:
					h.Rate = rng.Intn(64) - 8
				case 2:
					h.OrigBytes = rng.Intn(1 << 20)
				case 3:
					if len(h.PartBytes) > 0 {
						h.PartBytes = append([]int(nil), h.PartBytes...)
						h.PartBytes[0] = rng.Intn(1<<16) - 100
					}
				case 4:
					h.Algo = Algorithm(rng.Intn(8))
				}
				_ = decode(h, payload)
			}
		}
	}
}

// TestCompressStampsVerifiableChecksum: the header checksum produced by
// every Compress path must verify against the payload, and corruption of
// payload or checksum must be detected.
func TestCompressStampsVerifiableChecksum(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		vals []float32
	}{
		{"mpc-compressed", Config{Mode: ModeOpt, Algorithm: AlgoMPC, Threshold: 1 << 10, PoolBufBytes: 1 << 20}, smooth(8192, 1)},
		{"zfp-compressed", Config{Mode: ModeOpt, Algorithm: AlgoZFP, Threshold: 1 << 10, PoolBufBytes: 1 << 20}, smooth(8192, 2)},
		{"bypass-small", Config{Mode: ModeOpt, Algorithm: AlgoMPC, Threshold: 1 << 30, PoolBufBytes: 1 << 20}, smooth(64, 3)},
		{"mode-off", Config{Mode: ModeOff}, smooth(64, 4)},
	}
	for _, tc := range cases {
		dev := gpusim.NewDevice(hw.TeslaV100(), 8)
		clk := simtime.NewClock(0)
		e := NewEngine(clk, dev, tc.cfg)
		before := clk.Now()
		payload, hdr := e.Compress(clk, deviceBufferWith(dev, tc.vals))
		if hdr.Checksum != Checksum(payload) {
			t.Errorf("%s: header checksum does not match payload", tc.name)
		}
		// For payloads big enough that one HBM pass costs a visible
		// number of integer nanoseconds, the cost must hit the clock.
		if len(payload) >= 1<<13 && clk.Now() == before {
			t.Errorf("%s: checksum cost was not charged to the clock", tc.name)
		}
		if err := e.VerifyPayload(clk, hdr, payload); err != nil {
			t.Errorf("%s: intact payload failed verification: %v", tc.name, err)
		}
		if len(payload) > 0 {
			bad := append([]byte(nil), payload...)
			bad[len(bad)/2] ^= 0x10
			if err := e.VerifyPayload(clk, hdr, bad); err == nil {
				t.Errorf("%s: corrupted payload passed verification", tc.name)
			}
		}
		if e.ChecksumFailures == 0 && len(payload) > 0 {
			t.Errorf("%s: checksum failure not counted", tc.name)
		}
	}
}

// TestCompressPoolExhaustionFallsBack: with every pool buffer checked out,
// Compress must degrade to the uncompressed path instead of growing the
// pool or blocking.
func TestCompressPoolExhaustionFallsBack(t *testing.T) {
	dev := gpusim.NewDevice(hw.TeslaV100(), 8)
	clk := simtime.NewClock(0)
	e := NewEngine(clk, dev, Config{
		Mode: ModeOpt, Algorithm: AlgoMPC,
		Threshold: 1 << 10, PoolBuffers: 2, PoolBufBytes: 1 << 20,
	})
	vals := smooth(4096, 9)

	// Drain the staging pool as in-flight receives would.
	h := Header{Algo: AlgoMPC, Compressed: true, OrigBytes: 1 << 12, CompBytes: 1 << 12}
	s1 := e.StageRecv(clk, h)
	s2 := e.StageRecv(clk, h)

	mallocs := dev.MallocCount
	payload, hdr := e.Compress(clk, deviceBufferWith(dev, vals))
	if hdr.Compressed {
		t.Fatal("compression proceeded with an exhausted pool")
	}
	if e.PoolFallbacks != 1 {
		t.Fatalf("PoolFallbacks = %d, want 1", e.PoolFallbacks)
	}
	if dev.MallocCount != mallocs {
		t.Fatal("fallback path touched the allocator")
	}
	if hdr.Checksum != Checksum(payload) {
		t.Fatal("fallback payload is not checksummed")
	}

	// Returning the staging buffers restores compression.
	e.ReleaseRecv(clk, s1)
	e.ReleaseRecv(clk, s2)
	_, hdr = e.Compress(clk, deviceBufferWith(dev, vals))
	if !hdr.Compressed {
		t.Fatal("compression did not recover after pool refill")
	}
}

// FuzzHeaderFallbackBit attacks the degradation-negotiation bytes: any
// input DecodeHeader accepts must survive a re-encode round trip with
// every negotiated field — including the breaker's Fallback bit — intact,
// and no input may panic the parser.
func FuzzHeaderFallbackBit(f *testing.F) {
	seed := Header{
		Algo: AlgoMPC, Compressed: true, Fallback: true,
		OrigBytes: 1 << 20, CompBytes: 1 << 18, Dim: 3,
		PartBytes: []int{1 << 17, 1 << 17}, Checksum: 0x1234abcd,
	}
	f.Add(seed.Encode())
	plain := Header{Algo: AlgoNone, OrigBytes: 64, CompBytes: 64}
	f.Add(plain.Encode())
	f.Add([]byte{})
	f.Add(make([]byte, 28))
	// Real captured rendezvous headers, one per codec: exactly the bytes
	// a sender's RTS carries after a genuine Compress, plus the variant
	// the breaker produces when it flips the Fallback bit mid-message,
	// and the AlgoNone header a relay rebuilds for a payload it consumed
	// raw (see mpi.consumeRaw). Static snapshots of the same captures
	// live in testdata/fuzz/FuzzHeaderFallbackBit so the historical wire
	// format stays pinned even if Compress output drifts.
	for _, algo := range []Algorithm{AlgoMPC, AlgoZFP} {
		e, dev, clk := fuzzEngine(algo)
		payload, hdr := compressSample(e, dev, clk, 2048)
		f.Add(hdr.Encode())
		hdr.Fallback = true
		f.Add(hdr.Encode())
		relay := Header{Algo: AlgoNone, OrigBytes: len(payload), CompBytes: len(payload), Checksum: hdr.Checksum}
		f.Add(relay.Encode())
	}
	f.Fuzz(func(t *testing.T, enc []byte) {
		h, err := DecodeHeader(enc)
		if err != nil {
			return
		}
		got, err := DecodeHeader(h.Encode())
		if err != nil {
			t.Fatalf("re-encode of an accepted header was rejected: %v", err)
		}
		if got.Algo != h.Algo || got.Compressed != h.Compressed || got.Fallback != h.Fallback ||
			got.Rate != h.Rate || got.Dim != h.Dim ||
			got.OrigBytes != h.OrigBytes || got.CompBytes != h.CompBytes ||
			got.Checksum != h.Checksum || len(got.PartBytes) != len(h.PartBytes) {
			t.Fatalf("round trip drifted:\n in: %+v\nout: %+v", h, got)
		}
		for i := range h.PartBytes {
			if got.PartBytes[i] != h.PartBytes[i] {
				t.Fatalf("partition %d drifted: %d -> %d", i, h.PartBytes[i], got.PartBytes[i])
			}
		}
	})
}
