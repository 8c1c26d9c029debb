package mpc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"mpicomp/internal/datasets"
)

func wordsToLE(w []uint32) []byte {
	b := make([]byte, 0, 4*len(w))
	for _, v := range w {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// compressInWindow calls compress the way core's mpcCompressJob does: dst
// has a non-empty prefix and exactly Bound(n) spare capacity inside a
// larger backing array. A coder that reallocates or writes outside its
// window fails here.
func compressInWindow(t testing.TB, n int, compress func(dst []byte) ([]byte, error)) []byte {
	t.Helper()
	const prefix, guard = 5, 9
	bound := Bound(n)
	backing := bytes.Repeat([]byte{0xa5}, prefix+bound+guard)
	got, err := compress(backing[: prefix : prefix+bound])
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &backing[0] || len(got) > prefix+bound {
		t.Fatalf("n=%d: coder left its Bound(n) window (len %d)", n, len(got))
	}
	for i, b := range backing {
		if (i < prefix || i >= prefix+bound) && b != 0xa5 {
			t.Fatalf("n=%d: byte %d outside the window was overwritten", n, i)
		}
	}
	return got[prefix:]
}

// checkDecode decodes comp as n words through the reference and through
// every production decoder: the same nil-or-ErrCorrupt outcome and, when
// nil, the same words.
func checkDecode(t testing.TB, comp []byte, n, dim int) {
	t.Helper()
	want := make([]uint32, n)
	refErr := refDecompressWordsInto(want, comp, dim)
	if refErr != nil && !errors.Is(refErr, ErrCorrupt) {
		t.Fatalf("reference returned %v", refErr)
	}
	same := func(name string, err error) bool {
		t.Helper()
		if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, ErrCorrupt)) {
			t.Fatalf("n=%d dim=%d %s: got error %v, reference %v (payload %x)", n, dim, name, err, refErr, comp)
		}
		return err == nil
	}

	words := make([]uint32, n)
	if same("DecompressWordsInto", DecompressWordsInto(words, comp, dim)) {
		for i := range want {
			if words[i] != want[i] {
				t.Fatalf("n=%d dim=%d DecompressWordsInto: word %d is %08x, reference %08x", n, dim, i, words[i], want[i])
			}
		}
	}
	prefix := []uint32{111, 222}
	out, err := DecompressWords(prefix[:2:2], comp, n, dim)
	if same("DecompressWords", err) {
		if len(out) != 2+n || out[0] != 111 || out[1] != 222 {
			t.Fatalf("n=%d dim=%d DecompressWords: prefix or length wrong (len %d)", n, dim, len(out))
		}
		for i := range want {
			if out[2+i] != want[i] {
				t.Fatalf("n=%d dim=%d DecompressWords: word %d is %08x, reference %08x", n, dim, i, out[2+i], want[i])
			}
		}
	} else if len(out) != 2 {
		t.Fatalf("n=%d dim=%d DecompressWords: returned %d words with an error", n, dim, len(out))
	}
	b := make([]byte, 4*n)
	if same("DecompressBytesInto", DecompressBytesInto(b, comp, dim)) && !bytes.Equal(b, wordsToLE(want)) {
		t.Fatalf("n=%d dim=%d DecompressBytesInto: bytes differ from the reference words", n, dim)
	}
}

// checkAgainstReference runs one (input, dim) case through the reference
// and every production entry point, then decodes the good payload, its
// truncations and extension, a few bit flips of it, and junk.
func checkAgainstReference(t testing.TB, src []uint32, dim int, junk []byte, rng *rand.Rand) {
	t.Helper()
	n := len(src)
	ref, err := refCompressWords(nil, src, dim)
	if err != nil {
		t.Fatal(err)
	}
	le := wordsToLE(src)
	for name, got := range map[string][]byte{
		"AppendCompressWords": compressInWindow(t, n, func(dst []byte) ([]byte, error) { return AppendCompressWords(dst, src, dim) }),
		"AppendCompressBytes": compressInWindow(t, n, func(dst []byte) ([]byte, error) { return AppendCompressBytes(dst, le, dim) }),
	} {
		if !bytes.Equal(got, ref) {
			t.Fatalf("n=%d dim=%d: %s differs from the reference\n got %x\nwant %x", n, dim, name, got, ref)
		}
	}
	if grown, _ := CompressWords(nil, src, dim); !bytes.Equal(grown, ref) {
		t.Fatalf("n=%d dim=%d: CompressWords(nil) differs from the reference", n, dim)
	}
	size, err := CompressedSize(src, dim)
	sizeB, errB := CompressedSizeBytes(le, dim)
	if err != nil || errB != nil || size != len(ref) || sizeB != len(ref) {
		t.Fatalf("n=%d dim=%d: CompressedSize %d (%v), CompressedSizeBytes %d (%v), reference wrote %d", n, dim, size, err, sizeB, errB, len(ref))
	}

	checkDecode(t, ref, n, dim)
	checkDecode(t, junk, n, dim)
	checkDecode(t, append(append([]byte(nil), ref...), 0), n, dim)
	if len(ref) > 0 {
		checkDecode(t, ref[:len(ref)-1], n, dim)
		checkDecode(t, ref[:rng.Intn(len(ref))], n, dim)
		for k := 0; k < 4; k++ {
			bad := append([]byte(nil), ref...)
			bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
			checkDecode(t, bad, n, dim)
		}
	}
}

// diffInputs are the regimes the chunk coder treats differently.
var diffInputs = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []uint32
}{
	{"random", func(n int, rng *rand.Rand) []uint32 {
		w := make([]uint32, n)
		for i := range w {
			w[i] = rng.Uint32()
		}
		return w
	}},
	{"zero", func(n int, rng *rand.Rand) []uint32 { return make([]uint32, n) }},
	{"constant", func(n int, rng *rand.Rand) []uint32 {
		w := make([]uint32, n)
		for i := range w {
			w[i] = 0xc0ffee11
		}
		return w
	}},
	// Long runs with rare jumps: whole chunks repeat their predictors.
	{"sparse", func(n int, rng *rand.Rand) []uint32 {
		w := make([]uint32, n)
		v := rng.Uint32()
		for i := range w {
			if rng.Intn(40) == 0 {
				v = rng.Uint32()
			}
			w[i] = v
		}
		return w
	}},
	// Residuals confined to a few low planes, both signs.
	{"low-plane", func(n int, rng *rand.Rand) []uint32 {
		w := make([]uint32, n)
		v := uint32(1 << 30)
		for i := range w {
			v += uint32(rng.Intn(7)) - 3
			w[i] = v
		}
		return w
	}},
	// Deltas on either side of the 16-bit residual limit, where putChunk
	// and getChunk switch between the half and the full transpose.
	{"plane-16-edge", func(n int, rng *rand.Rand) []uint32 {
		w := make([]uint32, n)
		// The first six zig-zag below 1<<16, the last two do not; about
		// half of the chunks draw from the first six only.
		deltas := []int32{-32768, -32767, 32767, 0, 1, -1, 32768, -32769}
		v, k := uint32(1<<30), len(deltas)
		for i := range w {
			if i%ChunkWords == 0 {
				k = 6 + 2*rng.Intn(2)
			}
			v += uint32(deltas[rng.Intn(k)])
			w[i] = v
		}
		return w
	}},
	// Periodic with every period 1..32 somewhere: for dim == period the
	// residuals vanish, for other dims they do not.
	{"periodic", func(n int, rng *rand.Rand) []uint32 {
		w := make([]uint32, n)
		p := 1 + rng.Intn(MaxDim)
		for i := range w {
			if i < p {
				w[i] = rng.Uint32()
			} else {
				w[i] = w[i-p]
			}
		}
		return w
	}},
	{"smooth", func(n int, rng *rand.Rand) []uint32 { return genWords(n, rng.Int63()) }},
}

// TestFastMatchesReference is the byte-identity gate of the chunk coder:
// compressed bytes, decoded words and the outcome of decoding damaged
// payloads all equal the loop coder in reference_test.go, through the word
// and the byte entry points, for every dim, for lengths around the chunk
// boundary, on every input regime and on the Table III generators.
func TestFastMatchesReference(t *testing.T) {
	var lengths []int
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for n := 4096; n <= 4096+40; n += 5 {
		lengths = append(lengths, n)
	}
	for _, in := range diffInputs {
		t.Run(in.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(in.name))))
			for dim := 1; dim <= MaxDim; dim++ {
				for _, n := range lengths {
					if testing.Short() && n > 70 && dim%8 != 1 {
						continue
					}
					junk := make([]byte, rng.Intn(Bound(n)+2))
					rng.Read(junk)
					checkAgainstReference(t, in.gen(n, rng), dim, junk, rng)
				}
			}
		})
	}
	for _, name := range []string{"msg_sp", "msg_sppm", "msg_sweep3d", "obs_error", "num_plasma"} {
		t.Run(name, func(t *testing.T) {
			d, ok := datasets.ByName(name)
			if !ok {
				t.Fatalf("no dataset %s", name)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			vals := d.Values(1<<14 + 7)
			src := make([]uint32, len(vals))
			for i, f := range vals {
				src[i] = math.Float32bits(f)
			}
			for dim := 1; dim <= MaxDim; dim++ {
				checkAgainstReference(t, src, dim, nil, rng)
			}
		})
	}
}

// FuzzMPCDifferential feeds arbitrary bytes through both coders twice: as
// little-endian words to compress, and as a compressed stream to decode at
// a few word counts around what it could hold.
func FuzzMPCDifferential(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(wordsToLE(seq(100)), uint8(2))
	f.Add(bytes.Repeat([]byte{0x11, 0xee, 0xff, 0xc0}, 70), uint8(0))
	f.Add(append(make([]byte, 8), bytes.Repeat([]byte{0x00, 0x00, 0x80, 0x3f, 0x01, 0x00, 0x80, 0x3f}, 40)...), uint8(1))
	f.Add([]byte{0x01, 0x00, 0x00, 0x80, 0xaa, 0xaa, 0xaa, 0xaa, 0x55, 0x55, 0x55, 0x55, 0, 0, 0, 0}, uint8(31))
	f.Fuzz(func(t *testing.T, data []byte, dim uint8) {
		d := 1 + int(dim)%MaxDim
		rng := rand.New(rand.NewSource(int64(len(data))))
		src := make([]uint32, len(data)/4)
		for i := range src {
			src[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		checkAgainstReference(t, src, d, data, rng)
		for _, n := range []int{ChunkWords, len(data) / 4, len(data), 8 * len(data)} {
			checkDecode(t, data, n, d)
		}
	})
}

// TestBitmapIsReversedOR pins the identity putChunk relies on: the
// occupancy bitmap of a transposed chunk is the bit reversal of the OR of
// its words. Every 16-bit OR pattern is tried in both halves of the word,
// with the bits spread over random rows.
func TestBitmapIsReversedOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for pat := 0; pat < 1<<16; pat++ {
		or := uint32(pat)
		if pat&1 != 0 {
			or <<= 16
		}
		if pat%97 == 0 {
			or |= rng.Uint32()
		}
		var a [32]uint32
		for b := or; b != 0; b &= b - 1 {
			// Each set bit lands in at least one row.
			a[rng.Intn(32)] |= b & -b
			if rng.Intn(2) == 0 {
				a[rng.Intn(32)] |= b & -b
			}
		}
		for _, transpose := range []func(*[32]uint32){transpose32, refTranspose32} {
			p := a
			transpose(&p)
			var bitmap uint32
			for j, w := range p {
				if w != 0 {
					bitmap |= 1 << uint(j)
				}
			}
			if bitmap != bits.Reverse32(or) {
				t.Fatalf("OR %08x: bitmap %08x, Reverse32 gives %08x", or, bitmap, bits.Reverse32(or))
			}
		}
	}
}

// TestTransposeMatchesReference holds the staged network to the loop one
// on random matrices (TestBitmapIsReversedOR covers sparse ones).
func TestTransposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		var a [32]uint32
		for i := range a {
			a[i] = rng.Uint32() & rng.Uint32() >> uint(rng.Intn(32))
		}
		got, want := a, a
		transpose32(&got)
		refTranspose32(&want)
		if got != want {
			t.Fatalf("transpose32 differs from the reference on %x", a)
		}
	}
}
