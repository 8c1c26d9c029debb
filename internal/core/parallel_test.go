package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mpicomp/internal/datasets"
	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/mpc"
	"mpicomp/internal/simtime"
)

// workerCounts are the pool sizes the determinism tests sweep (ISSUE 2:
// sizes 1, 2 and 8, run under -race in CI).
var workerCounts = []int{1, 2, 8}

// runOnce compresses vals on a fresh engine with the given worker count
// and decompresses on a second fresh engine, returning everything that
// must be invariant: the wire payload, the header (partition table and
// CRC included), the reconstructed bytes, and the simulated durations of
// both directions.
func runOnce(t *testing.T, cfg Config, workers int, vals []float32) (payload []byte, hdr Header, out []byte, compT, decompT simtime.Duration) {
	t.Helper()
	cfg.Workers = workers
	sender, sdev, sclk := newTestEngine(t, cfg)
	receiver, rdev, rclk := newTestEngine(t, cfg)

	src := deviceBufferWith(sdev, vals)
	c0 := sclk.Now()
	payload, hdr = sender.Compress(sclk, src)
	compT = sclk.Now().Sub(c0)

	dst := &gpusim.Buffer{Data: make([]byte, len(vals)*4), Loc: gpusim.Device, Dev: rdev}
	d0 := rclk.Now()
	if err := receiver.Decompress(rclk, hdr, payload, dst); err != nil {
		t.Fatalf("workers=%d: decompress: %v", workers, err)
	}
	decompT = rclk.Now().Sub(d0)
	return payload, hdr, dst.Data, compT, decompT
}

func assertInvariant(t *testing.T, label string, workers int,
	refPayload, payload []byte, refHdr, hdr Header, refOut, out []byte,
	refCompT, compT, refDecompT, decompT simtime.Duration) {
	t.Helper()
	if !bytes.Equal(refPayload, payload) {
		t.Errorf("%s workers=%d: payload bytes differ from serial", label, workers)
	}
	if hdr.Checksum != refHdr.Checksum {
		t.Errorf("%s workers=%d: checksum %08x, serial %08x", label, workers, hdr.Checksum, refHdr.Checksum)
	}
	if hdr.CompBytes != refHdr.CompBytes || len(hdr.PartBytes) != len(refHdr.PartBytes) {
		t.Errorf("%s workers=%d: header differs: %+v vs %+v", label, workers, hdr, refHdr)
	}
	for i := range hdr.PartBytes {
		if hdr.PartBytes[i] != refHdr.PartBytes[i] {
			t.Errorf("%s workers=%d: partition %d size %d, serial %d", label, workers, i, hdr.PartBytes[i], refHdr.PartBytes[i])
		}
	}
	if !bytes.Equal(refOut, out) {
		t.Errorf("%s workers=%d: reconstructed bytes differ from serial", label, workers)
	}
	if compT != refCompT || decompT != refDecompT {
		t.Errorf("%s workers=%d: simulated time perturbed: compress %v vs %v, decompress %v vs %v",
			label, workers, compT, refCompT, decompT, refDecompT)
	}
}

// TestWorkerCountDeterminism is the tentpole invariant: any codec pool
// size yields bit-identical payloads, CRCs, reconstructions, and
// simulated timings — wall-clock parallelism lives strictly below the
// virtual clock.
func TestWorkerCountDeterminism(t *testing.T) {
	cases := []struct {
		label string
		cfg   Config
		vals  []float32
	}{
		{"mpc-opt-4part", Config{Mode: ModeOpt, Algorithm: AlgoMPC, MaxPartitions: 8}, smooth(2<<20, 21)}, // 8 MB, 4 partitions
		{"mpc-opt-8part", Config{Mode: ModeOpt, Algorithm: AlgoMPC, MaxPartitions: 8}, smooth(4<<20, 22)}, // 16 MB, 8 partitions
		{"mpc-naive", Config{Mode: ModeNaive, Algorithm: AlgoMPC}, smooth(1<<20, 23)},                     // single partition
		{"zfp-opt", Config{Mode: ModeOpt, Algorithm: AlgoZFP, ZFPRate: 16}, smooth(2<<20, 24)},            // 32 chunk rows
		{"zfp-rate4-unaligned", Config{Mode: ModeOpt, Algorithm: AlgoZFP, ZFPRate: 4}, smooth(1<<20, 25)}, // odd rate
	}
	for _, c := range cases {
		refPayload, refHdr, refOut, refCompT, refDecompT := runOnce(t, c.cfg, 1, c.vals)
		for _, w := range workerCounts[1:] {
			payload, hdr, out, compT, decompT := runOnce(t, c.cfg, w, c.vals)
			assertInvariant(t, c.label, w, refPayload, payload, refHdr, hdr, refOut, out,
				refCompT, compT, refDecompT, decompT)
		}
	}
}

// TestTableIIIWorkerDeterminism regenerates the Table III measurement
// (real compression of every dataset stand-in) at each pool size and
// requires identical payloads, compression ratios, checksums and
// simulated timings — the figures and tables cannot depend on the host's
// parallelism.
func TestTableIIIWorkerDeterminism(t *testing.T) {
	n := 1 << 18 // 1 MB per dataset keeps the -race sweep fast
	if testing.Short() {
		n = 1 << 16
	}
	for _, d := range datasets.All() {
		vals := d.Values(n)
		cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC, MPCDim: d.Dim, Threshold: 64 << 10}
		refPayload, refHdr, refOut, refCompT, refDecompT := runOnce(t, cfg, 1, vals)
		for _, w := range workerCounts[1:] {
			payload, hdr, out, compT, decompT := runOnce(t, cfg, w, vals)
			assertInvariant(t, d.Name, w, refPayload, payload, refHdr, hdr, refOut, out,
				refCompT, compT, refDecompT, decompT)
			if hdr.Ratio() != refHdr.Ratio() {
				t.Errorf("%s workers=%d: CR %.4f, serial %.4f", d.Name, w, hdr.Ratio(), refHdr.Ratio())
			}
		}
	}
}

// TestCompressAppendMatchesCompress pins the contract between the two
// entry points: same bytes, same header, different ownership.
func TestCompressAppendMatchesCompress(t *testing.T) {
	for _, algo := range []Algorithm{AlgoMPC, AlgoZFP} {
		vals := smooth(2<<20, 31)
		cfg := Config{Mode: ModeOpt, Algorithm: algo}
		e, dev, clk := newTestEngine(t, cfg)
		buf := deviceBufferWith(dev, vals)
		p1, h1 := e.Compress(clk, buf)
		p2, h2 := e.CompressAppend(clk, buf, nil)
		if !bytes.Equal(p1, p2) {
			t.Fatalf("%v: CompressAppend payload differs from Compress", algo)
		}
		if h1.Checksum != h2.Checksum || h1.CompBytes != h2.CompBytes || len(h1.PartBytes) != len(h2.PartBytes) {
			t.Fatalf("%v: headers differ: %+v vs %+v", algo, h1, h2)
		}
	}
}

// TestRoundTripZeroAlloc is the steady-state allocation guarantee of
// ISSUE 2: after warm-up, a CompressAppend + Decompress round trip over
// the scratch-reuse entry points performs zero heap allocations, for
// both codecs, including the multi-partition MPC path.
func TestRoundTripZeroAlloc(t *testing.T) {
	for _, algo := range []Algorithm{AlgoMPC, AlgoZFP} {
		vals := smooth(2<<20, 41) // 8 MB: 4 MPC partitions / 32 ZFP chunks
		e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: algo})
		buf := deviceBufferWith(dev, vals)
		dst := &gpusim.Buffer{Data: make([]byte, buf.Len()), Loc: gpusim.Device, Dev: dev}
		payload := make([]byte, 0, buf.Len()*2)
		allocs := testing.AllocsPerRun(10, func() {
			var hdr Header
			payload, hdr = e.CompressAppend(clk, buf, payload[:0])
			if err := e.Decompress(clk, hdr, payload, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: round trip allocated %.1f objects per message, want 0", algo, allocs)
		}
	}
}

// TestCorruptPartitionContract pins what a corrupt MPC partition does when
// partitions decode straight into the receive buffer: the error wraps
// mpc.ErrCorrupt and names the lowest corrupt partition for any worker
// count, the d_off buffer goes back to its pool, the destination is
// unspecified (contiguous) or untouched in the failed partition's range
// (typed: scatter only on success) — and a following good Decompress into
// the same buffer is bit-exact.
func TestCorruptPartitionContract(t *testing.T) {
	vals := smooth(2<<20, 31) // 8 MB, 4 partitions
	for _, workers := range workerCounts {
		cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC, MaxPartitions: 8, Workers: workers}
		e, dev, clk := newTestEngine(t, cfg)
		src := deviceBufferWith(dev, vals)
		payload, hdr := e.Compress(clk, src)
		parts := len(hdr.PartBytes)
		if parts < 4 {
			t.Fatalf("workers=%d: want >= 4 partitions, got %d", workers, parts)
		}
		dst := &gpusim.Buffer{Data: make([]byte, hdr.OrigBytes), Loc: gpusim.Device, Dev: dev}
		if err := e.Decompress(clk, hdr, payload, dst); err != nil {
			t.Fatal(err)
		}
		free := e.offPool.FreeCount()

		for k := 0; k < parts; k++ {
			// Drop the last 3 bytes of partition k and of every later
			// odd partition: a stream that is not a whole number of
			// words never decodes, so k is the lowest corrupt one.
			bad := hdr
			bad.PartBytes = append([]int(nil), hdr.PartBytes...)
			var cut []byte
			off := 0
			for i, pb := range hdr.PartBytes {
				if i == k || (i > k && i%2 == 1) {
					bad.PartBytes[i] -= 3
				}
				cut = append(cut, payload[off:off+bad.PartBytes[i]]...)
				off += pb
			}
			bad.CompBytes = len(cut)
			err := e.Decompress(clk, bad, cut, dst)
			if !errors.Is(err, mpc.ErrCorrupt) {
				t.Fatalf("workers=%d partition %d: got %v, want mpc.ErrCorrupt", workers, k, err)
			}
			if want := fmt.Sprintf("partition %d:", k); !strings.Contains(err.Error(), want) {
				t.Fatalf("workers=%d: error %q does not name %q", workers, err, want)
			}
			if got := e.offPool.FreeCount(); got != free {
				t.Fatalf("workers=%d partition %d: d_off free count %d, want %d", workers, k, got, free)
			}
			if err := e.Decompress(clk, hdr, payload, dst); err != nil {
				t.Fatalf("workers=%d: good decompress after a corrupt one: %v", workers, err)
			}
			if !bytes.Equal(dst.Data, src.Data) {
				t.Fatalf("workers=%d partition %d: good decompress after a corrupt one is not bit-exact", workers, k)
			}
		}

		// Typed receive, one partition: the strided destination keeps
		// every byte when the decode fails.
		ty := typedLayouts()[0]
		tcfg := cfg
		tcfg.Threshold = 1 << 10
		te, tdev, tclk := newTestEngine(t, tcfg)
		tsrc := typedSrcBuffer(tdev, ty)
		tpayload, thdr := te.CompressTyped(tclk, tsrc, ty)
		if !thdr.Compressed || len(thdr.PartBytes) != 1 {
			t.Fatalf("typed sample: compressed=%v partitions=%d, want one compressed partition", thdr.Compressed, len(thdr.PartBytes))
		}
		tdst := &gpusim.Buffer{Data: bytes.Repeat([]byte{0xa5}, tsrc.Len()), Loc: gpusim.Device, Dev: tdev}
		before := append([]byte(nil), tdst.Data...)
		tbad := thdr
		tbad.PartBytes = []int{thdr.PartBytes[0] - 3}
		tbad.CompBytes -= 3
		if err := te.DecompressTyped(tclk, tbad, tpayload[:len(tpayload)-3], tdst, ty); !errors.Is(err, mpc.ErrCorrupt) {
			t.Fatalf("workers=%d typed: got %v, want mpc.ErrCorrupt", workers, err)
		}
		if !bytes.Equal(tdst.Data, before) {
			t.Fatalf("workers=%d typed: a failed decode wrote to the strided destination", workers)
		}
		if err := te.DecompressTyped(tclk, thdr, tpayload, tdst, ty); err != nil {
			t.Fatal(err)
		}
		packed := make([]byte, ty.Size())
		if err := dtype.Pack(packed, tsrc.Data, ty); err != nil {
			t.Fatal(err)
		}
		want := append([]byte(nil), before...)
		if err := dtype.Unpack(want, packed, ty); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tdst.Data, want) {
			t.Fatalf("workers=%d typed: good decode after a corrupt one is not bit-exact", workers)
		}
	}
}
