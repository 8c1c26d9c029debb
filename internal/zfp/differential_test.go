package zfp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mpicomp/internal/bitstream"
)

// diffInputs are the value regimes the block coder treats differently:
// each generator gives the float32 bit pattern of value i of a slice. The
// short regimes run at lengths 0..70 only.
var diffInputs = []struct {
	name  string
	short bool
	gen   func(rng *rand.Rand, i int) uint32
}{
	{"smooth", false, func(rng *rand.Rand, _ int) uint32 { return math.Float32bits(float32(1 + rng.NormFloat64()*0.01)) }},
	{"mixed", false, func(rng *rand.Rand, _ int) uint32 {
		return math.Float32bits(float32((rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(13)-6))))
	}},
	{"anybits", false, func(rng *rand.Rand, _ int) uint32 { return rng.Uint32() }},
	{"denormal", false, func(rng *rand.Rand, _ int) uint32 { return rng.Uint32() & 0x807fffff }},
	{"denormal-edge", false, func(rng *rand.Rand, _ int) uint32 { return rng.Uint32()&0x80000000 | 0x007ffff0 + uint32(rng.Intn(64)) }},
	{"nonfinite", false, func(rng *rand.Rand, _ int) uint32 {
		switch rng.Intn(4) {
		case 0:
			return 0x7f800000 | rng.Uint32()&0x80000000 // ±Inf
		case 1:
			return 0x7f800000 | rng.Uint32()&0x807fffff // NaN payloads (and Inf)
		default:
			return math.Float32bits(float32(rng.NormFloat64()))
		}
	}},
	{"zero", false, func(rng *rand.Rand, _ int) uint32 { return rng.Uint32() & 0x80000000 }},
	{"sparse", false, func(rng *rand.Rand, _ int) uint32 {
		if rng.Intn(3) > 0 {
			return 0
		}
		return math.Float32bits(float32(rng.NormFloat64()))
	}},
	{"huge", false, func(rng *rand.Rand, _ int) uint32 {
		return rng.Uint32()&0x80ffffff | 0x7e000000 + uint32(rng.Intn(3))<<23
	}},
	{"tiny", false, func(rng *rand.Rand, _ int) uint32 { return rng.Uint32()&0x80ffffff | uint32(rng.Intn(3))<<23 }},
	// Four independent values of one exponent: every coefficient is
	// large, so three or four values are significant within the first
	// planes and most of the block is the verbatim tail.
	{"dense", true, func(rng *rand.Rand, _ int) uint32 { return rng.Uint32()&0x807fffff | ebias<<23 }},
	// Smooth values and one outlier per block, a different one and of a
	// different size each block: value 0 alone is significant for a run
	// of planes, then n steps up where the outlier's planes start.
	{"dc-spike", true, func(rng *rand.Rand, i int) uint32 {
		v := 1 + rng.NormFloat64()*1e-4
		if i%BlockValues == i/BlockValues%BlockValues {
			v += (rng.Float64()*2 - 1) * math.Ldexp(1, -rng.Intn(24))
		}
		return math.Float32bits(float32(v))
	}},
}

// checkAgainstReference runs one (input, rate) case through both coders —
// the fast one by its float32 and its byte-direct entry points — and fails
// on the first differing compressed byte or decoded bit pattern.
func checkAgainstReference(t testing.TB, src []float32, rate int, junk []byte) {
	t.Helper()
	n := len(src)
	// The same values as they sit in a message buffer.
	raw := make([]byte, 4*n)
	for i, v := range src {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	want, err := CompressedSize(n, rate)
	if err != nil {
		t.Fatal(err)
	}
	ref := refAppendCompress(nil, src, rate)
	if len(ref) != want {
		t.Fatalf("n=%d rate=%d: reference wrote %d bytes, CompressedSize says %d", n, rate, len(ref), want)
	}

	// Into the exact-capacity window of a larger buffer, after a
	// non-empty prefix — how core's zfpCompressJob calls it. A coder
	// that reallocates or writes outside its window shows here.
	const prefix, guard = 5, 9
	for name, compress := range map[string]func(dst []byte) ([]byte, error){
		"AppendCompress":      func(dst []byte) ([]byte, error) { return AppendCompress(dst, src, rate) },
		"AppendCompressBytes": func(dst []byte) ([]byte, error) { return AppendCompressBytes(dst, raw, rate) },
	} {
		backing := bytes.Repeat([]byte{0xa5}, prefix+want+guard)
		got, err := compress(backing[: prefix : prefix+want])
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != prefix+want || (want > 0 && &got[0] != &backing[0]) {
			t.Fatalf("n=%d rate=%d: %s left its exact-capacity window (len %d, want %d)", n, rate, name, len(got), prefix+want)
		}
		if !bytes.Equal(got[prefix:], ref) {
			t.Fatalf("n=%d rate=%d: %s bytes differ from the reference\n got %x\nwant %x", n, rate, name, got[prefix:], ref)
		}
		for i, b := range backing {
			if (i < prefix || i >= prefix+want) && b != 0xa5 {
				t.Fatalf("n=%d rate=%d: %s overwrote byte %d outside the window", n, rate, name, i)
			}
		}
		// Growing from nil must give the same bytes.
		if grown, _ := compress(nil); !bytes.Equal(grown, ref) {
			t.Fatalf("n=%d rate=%d: %s(nil) differs from the reference", n, rate, name)
		}
	}

	for _, comp := range [][]byte{ref, junk} {
		if len(comp) < want {
			continue
		}
		refOut := make([]float32, n)
		refDecompressInto(refOut, comp, rate)
		out := make([]float32, n)
		if err := DecompressInto(out, comp, rate); err != nil {
			t.Fatal(err)
		}
		// Straight into a window of a message buffer: the bytes around it
		// must survive.
		window := bytes.Repeat([]byte{0xa5}, prefix+4*n+guard)
		if err := DecompressBytesInto(window[prefix:prefix+4*n], comp, rate); err != nil {
			t.Fatal(err)
		}
		for i := range out {
			want := math.Float32bits(refOut[i])
			if got := math.Float32bits(out[i]); got != want {
				t.Fatalf("n=%d rate=%d: decoded value %d is %08x, reference %08x (block %x)", n, rate, i,
					got, want, comp[i/4*4*rate/8:])
			}
			if got := binary.LittleEndian.Uint32(window[prefix+4*i:]); got != want {
				t.Fatalf("n=%d rate=%d: DecompressBytesInto value %d is %08x, reference %08x", n, rate, i, got, want)
			}
		}
		for i, b := range window {
			if (i < prefix || i >= prefix+4*n) && b != 0xa5 {
				t.Fatalf("n=%d rate=%d: DecompressBytesInto overwrote byte %d outside its window", n, rate, i)
			}
		}
	}
}

// TestBytesEntryPointsRejectPartialValues: the byte-direct coder works on
// whole 4-byte values and says so instead of truncating.
func TestBytesEntryPointsRejectPartialValues(t *testing.T) {
	if _, err := AppendCompressBytes(nil, make([]byte, 6), 8); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("AppendCompressBytes(6 bytes) = %v, want ErrUnaligned", err)
	}
	if err := DecompressBytesInto(make([]byte, 6), make([]byte, 16), 8); !errors.Is(err, ErrUnaligned) {
		t.Fatalf("DecompressBytesInto(6 bytes) = %v, want ErrUnaligned", err)
	}
	if err := DecompressBytesInto(make([]byte, 32), make([]byte, 7), 8); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("DecompressBytesInto(short stream) = %v, want ErrShortBuffer", err)
	}
}

// TestFastMatchesReference is the bit-identity gate of the block-local
// coder: compressed bytes, decoded bit patterns and the decode of random
// junk all equal the bit-serial reference, for every rate, for lengths
// around the block and word boundaries, on every input regime.
func TestFastMatchesReference(t *testing.T) {
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for n := 4096; n <= 4096+8; n++ {
		lengths = append(lengths, n)
	}
	for _, in := range diffInputs {
		t.Run(in.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(in.name))))
			for rate := MinRate; rate <= MaxRate; rate++ {
				for _, n := range lengths {
					if n > 70 && (in.short || testing.Short() && rate%8 != 0) {
						continue
					}
					src := make([]float32, n)
					for i := range src {
						src[i] = math.Float32frombits(in.gen(rng, i))
					}
					want, _ := CompressedSize(n, rate)
					junk := make([]byte, want+rng.Intn(3))
					rng.Read(junk)
					checkAgainstReference(t, src, rate, junk)
				}
			}
		})
	}
}

// FuzzZFPDifferential feeds arbitrary bytes through both coders twice: as
// float32 bit patterns to compress, and as a compressed stream to decode.
func FuzzZFPDifferential(f *testing.F) {
	f.Add([]byte{}, uint8(8))
	f.Add(binary.LittleEndian.AppendUint32(nil, math.Float32bits(1.5)), uint8(3))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80, 0x7f}, 9), uint8(16))
	f.Add(bytes.Repeat([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x00}, 5), uint8(32))
	// The verbatim tail and the run that takes the budget's last bit, at
	// every one-word rate: 64 values of the regimes that reach them.
	for _, in := range diffInputs {
		if in.name != "dense" && in.name != "dc-spike" {
			continue
		}
		rng := rand.New(rand.NewSource(int64(len(in.name))))
		for r := MinRate; r <= 16; r++ {
			var data []byte
			for i := 0; i < 64; i++ {
				data = binary.LittleEndian.AppendUint32(data, in.gen(rng, i))
			}
			f.Add(data, uint8(r-MinRate))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, rate uint8) {
		r := MinRate + int(rate)%(MaxRate-MinRate+1)
		src := make([]float32, len(data)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		checkAgainstReference(t, src, r, nil)
		// As a stream, data holds this many whole values.
		n := len(data) * 8 / (BlockValues * r) * BlockValues
		checkAgainstReference(t, make([]float32, n), r, data)
	})
}

// tableEncodeInts and tableDecodeInts are the embedded coder driven by
// encTab and decTab alone, without a bit budget: what the tables say,
// plane by plane, in the reference's own stream representation.
func tableEncodeInts(w *bitstream.Writer, data *[4]uint32) {
	var e uint
	for k := intprec - 1; k >= 0; k-- {
		var x uint
		for i, d := range data {
			x |= uint(d>>uint(k)&1) << uint(i)
		}
		e = uint(encTab[e&0x70|x])
		w.WriteBits(uint64(e>>8), e&7)
	}
}

func tableDecodeInts(r *bitstream.Reader, data *[4]uint32) {
	*data = [4]uint32{}
	var e uint
	for k := intprec - 1; k >= 0; k-- {
		pos := r.BitPos()
		e = uint(decTab[e&0x380|uint(r.ReadBits(maxPlaneBits))])
		r.SkipToBit(pos + uint64(e>>4&7))
		for i := range data {
			data[i] |= uint32(e>>uint(i)&1) << uint(k)
		}
	}
}

// TestTablesMatchReference pins encTab and decTab to the bit-serial
// reference loops, so the tables cannot drift from the algorithm. Every
// encTab state (n, plane) is reached by a first plane that makes the first
// n values significant and is followed by every possible next plane, which
// shows the entry's code, length and next state (5*16*16 streams); every
// decTab state (n, next 7 bits) likewise, followed by zero bits (5*128).
func TestTablesMatchReference(t *testing.T) {
	const unlimited = intprec * maxPlaneBits
	plane := func(data *[4]uint32, k, x uint) {
		for i := range data {
			data[i] |= uint32(x>>uint(i)&1) << k
		}
	}
	for n := uint(0); n <= BlockValues; n++ {
		for x := uint(0); x < 1<<BlockValues; x++ {
			for y := uint(0); y < 1<<BlockValues; y++ {
				var data [4]uint32
				plane(&data, intprec-1, 1<<n-1)
				plane(&data, intprec-2, x)
				plane(&data, intprec-3, y)
				var ref, tab bitstream.Writer
				refEncodeInts(&ref, unlimited, &data)
				tableEncodeInts(&tab, &data)
				if ref.BitLen() != tab.BitLen() || !bytes.Equal(ref.Bytes(), tab.Bytes()) {
					t.Fatalf("encTab n=%d planes %04b,%04b: table wrote %d bits %x, reference %d bits %x",
						n, x, y, tab.BitLen(), tab.Bytes(), ref.BitLen(), ref.Bytes())
				}
			}
		}
		for bits := uint64(0); bits < 1<<maxPlaneBits; bits++ {
			// The stream of the plane that makes the first n values
			// significant, then the 7 bits under test, then zeros.
			var w bitstream.Writer
			for i := uint(0); i < n; i++ {
				w.WriteBits(3, min(2, BlockValues-i))
			}
			if n < BlockValues {
				w.WriteBit(0)
			}
			w.WriteBits(bits, maxPlaneBits)
			w.PadToBit(w.BitLen() + unlimited)
			var ref, tab [4]uint32
			refDecodeInts(bitstream.NewReader(w.Bytes()), unlimited, &ref)
			tableDecodeInts(bitstream.NewReader(w.Bytes()), &tab)
			if ref != tab {
				t.Fatalf("decTab n=%d bits %07b: table decoded %08x, reference %08x", n, bits, tab, ref)
			}
		}
	}
}

// TestInterleaveTransposes checks the delta-swap network against the
// definition (nibble j holds bit j of each of the four rows), and
// rowsBelow and reverseNibbles against theirs, for every plane.
func TestInterleaveTransposes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for iter := 0; iter < 1000; iter++ {
		x := rng.Uint64()
		var want uint64
		for j := uint(0); j < 16; j++ {
			for i := uint(0); i < 4; i++ {
				want |= x >> (16*i + j) & 1 << (4*j + i)
			}
		}
		got := interleave(x)
		if got != want {
			t.Fatalf("interleave(%016x) = %016x, want %016x", x, got, want)
		}
		if back := deinterleave(got); back != x {
			t.Fatalf("deinterleave(interleave(%016x)) = %016x", x, back)
		}
		var rev uint64
		for j := uint(0); j < 16; j++ {
			rev |= x >> (4 * j) & 15 << (60 - 4*j)
		}
		if got := reverseNibbles(x); got != rev {
			t.Fatalf("reverseNibbles(%016x) = %016x, want %016x", x, got, rev)
		}
		d := [4]uint32{rng.Uint32(), rng.Uint32(), rng.Uint32(), rng.Uint32()}
		for plane := uint(1); plane <= intprec; plane++ {
			var want uint64
			for j := uint(0); j < 16; j++ {
				if p := int(plane) - 16 + int(j); p >= 0 {
					for i, v := range d {
						want |= uint64(v>>uint(p)&1) << (4*j + uint(i))
					}
				}
			}
			if got := interleave(rowsBelow(d[0], d[1], d[2], d[3], plane)); got != want {
				t.Fatalf("interleave(rowsBelow(%08x, %d)) = %016x, want %016x", d, plane, got, want)
			}
		}
	}
}
