package bitstream

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter()
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		if got := r.ReadBit(); got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsReturnsRemainder(t *testing.T) {
	w := NewWriter()
	rest := w.WriteBits(0b1101_0110, 4)
	if rest != 0b1101 {
		t.Fatalf("WriteBits remainder: got %b want 1101", rest)
	}
	r := NewReader(w.Bytes())
	if got := r.ReadBits(4); got != 0b0110 {
		t.Fatalf("ReadBits: got %04b want 0110", got)
	}
}

func TestWriteBitsZeroCount(t *testing.T) {
	w := NewWriter()
	if rest := w.WriteBits(42, 0); rest != 42 {
		t.Fatalf("WriteBits(_,0) should return input, got %d", rest)
	}
	if w.BitLen() != 0 {
		t.Fatalf("no bits should be written, got %d", w.BitLen())
	}
}

func TestWriteBits64(t *testing.T) {
	w := NewWriter()
	const v uint64 = 0xdeadbeefcafebabe
	if rest := w.WriteBits(v, 64); rest != 0 {
		t.Fatalf("full write should leave no remainder, got %x", rest)
	}
	r := NewReader(w.Bytes())
	if got := r.ReadBits(64); got != v {
		t.Fatalf("got %x want %x", got, v)
	}
}

func TestCrossWordBoundary(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0x7f, 7) // 7 bits so later writes straddle words
	for i := 0; i < 10; i++ {
		w.WriteBits(uint64(i)*0x0123456789abcdef, 64)
	}
	r := NewReader(w.Bytes())
	if got := r.ReadBits(7); got != 0x7f {
		t.Fatalf("prefix: got %x", got)
	}
	for i := 0; i < 10; i++ {
		want := uint64(i) * 0x0123456789abcdef
		if got := r.ReadBits(64); got != want {
			t.Fatalf("word %d: got %x want %x", i, got, want)
		}
	}
}

func TestPadToBit(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b101, 3)
	w.PadToBit(128)
	if w.BitLen() != 128 {
		t.Fatalf("BitLen after pad: got %d want 128", w.BitLen())
	}
	r := NewReader(w.Bytes())
	if got := r.ReadBits(3); got != 0b101 {
		t.Fatalf("payload: got %b", got)
	}
	for i := 3; i < 128; i++ {
		if r.ReadBit() != 0 {
			t.Fatalf("padding bit %d not zero", i)
		}
	}
}

func TestPadToBitPanicsWhenTooLong(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w := NewWriter()
	w.WriteBits(0, 10)
	w.PadToBit(5)
}

func TestReadPastEndYieldsZeros(t *testing.T) {
	r := NewReader([]byte{0xff})
	if got := r.ReadBits(8); got != 0xff {
		t.Fatalf("payload: got %x", got)
	}
	if got := r.ReadBits(16); got != 0 {
		t.Fatalf("past-end read should be zero, got %x", got)
	}
	if r.BitPos() != 24 {
		t.Fatalf("BitPos: got %d want 24", r.BitPos())
	}
}

func TestReadAcrossEndCountsEveryBit(t *testing.T) {
	r := NewReader([]byte{0xa5})
	if got := r.ReadBits(12); got != 0xa5 {
		t.Fatalf("got %x want a5", got)
	}
	if r.BitPos() != 12 {
		t.Fatalf("BitPos: got %d want 12", r.BitPos())
	}
}

func TestSkipToBit(t *testing.T) {
	w := NewWriter()
	for i := 0; i < 8; i++ {
		w.WriteBits(uint64(i), 16) // blocks of 16 bits
	}
	r := NewReader(w.Bytes())
	r.SkipToBit(5 * 16)
	if got := r.ReadBits(16); got != 5 {
		t.Fatalf("after skip: got %d want 5", got)
	}
	// Skip backwards too.
	r.SkipToBit(2 * 16)
	if got := r.ReadBits(16); got != 2 {
		t.Fatalf("after back-skip: got %d want 2", got)
	}
	if r.BitPos() != 3*16 {
		t.Fatalf("BitPos: got %d", r.BitPos())
	}
}

func TestSkipToUnalignedBit(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0, 13)
	w.WriteBits(0x5a5, 12)
	r := NewReader(w.Bytes())
	r.SkipToBit(13)
	if got := r.ReadBits(12); got != 0x5a5 {
		t.Fatalf("got %x want 5a5", got)
	}
}

// Property: any sequence of variable-width writes reads back identically.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		widths := make([]uint, n)
		values := make([]uint64, n)
		w := NewWriter()
		for i := 0; i < n; i++ {
			widths[i] = uint(1 + rng.Intn(64))
			values[i] = rng.Uint64()
			if widths[i] < 64 {
				values[i] &= (uint64(1) << widths[i]) - 1
			}
			w.WriteBits(values[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			if got := r.ReadBits(widths[i]); got != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving WriteBit and WriteBits agrees with a pure
// bit-at-a-time reference.
func TestMixedWritesMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ref []uint
		w := NewWriter()
		for i := 0; i < 100; i++ {
			if rng.Intn(2) == 0 {
				b := uint(rng.Intn(2))
				w.WriteBit(b)
				ref = append(ref, b)
			} else {
				width := uint(1 + rng.Intn(30))
				v := rng.Uint64() & ((1 << width) - 1)
				w.WriteBits(v, width)
				for j := uint(0); j < width; j++ {
					ref = append(ref, uint((v>>j)&1))
				}
			}
		}
		r := NewReader(w.Bytes())
		for _, want := range ref {
			if r.ReadBit() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesNonDestructive(t *testing.T) {
	w := NewWriter()
	w.WriteBits(0b1, 1)
	b1 := w.Bytes()
	b2 := w.Bytes()
	if len(b1) != 1 || len(b2) != 1 || b1[0] != b2[0] {
		t.Fatalf("Bytes should be repeatable: %v vs %v", b1, b2)
	}
}

// bytewiseReader is the Reader as it was before it loaded whole words: one
// byte per OR in fill, and a SkipToBit that always reloads. It is the
// reference TestWordAtATimeMatchesBytewise holds the word-at-a-time Reader
// to. One thing differs from the old code, in both: a ReadBits that runs off
// the end of the buffer part-way now counts all n bits in BitPos, where it
// used to forget the ones it did get.
type bytewiseReader struct {
	buf   []byte
	pos   int
	accum uint64
	nbits uint
	nread uint64
}

func (r *bytewiseReader) fill() {
	for r.nbits <= 56 && r.pos < len(r.buf) {
		r.accum |= uint64(r.buf[r.pos]) << r.nbits
		r.pos++
		r.nbits += 8
	}
}

func (r *bytewiseReader) ReadBit() uint {
	if r.nbits == 0 {
		r.fill()
		if r.nbits == 0 {
			r.nread++
			return 0
		}
	}
	b := uint(r.accum & 1)
	r.accum >>= 1
	r.nbits--
	r.nread++
	return b
}

func (r *bytewiseReader) ReadBits(n uint) uint64 {
	var v uint64
	for got := uint(0); got < n; {
		if r.nbits == 0 {
			r.fill()
			if r.nbits == 0 {
				r.nread += uint64(n)
				return v
			}
		}
		take := min(n-got, r.nbits)
		chunk := r.accum
		if take < 64 {
			chunk &= uint64(1)<<take - 1
		}
		v |= chunk << got
		r.accum >>= take
		r.nbits -= take
		got += take
	}
	r.nread += uint64(n)
	return v
}

func (r *bytewiseReader) SkipToBit(pos uint64) {
	bytePos := min(pos/8, uint64(len(r.buf)))
	bitOff := uint(pos % 8)
	r.pos = int(bytePos)
	r.accum = 0
	r.nbits = 0
	r.nread = pos - uint64(bitOff)
	if bitOff > 0 {
		r.ReadBits(bitOff)
	}
}

// TestWordAtATimeMatchesBytewise interleaves random writes and pads, then
// random reads and seeks (short and long, forward and backward, past the
// end), and requires the same bytes out as a bit-at-a-time construction and
// the same values and positions in as the byte-wise reader.
func TestWordAtATimeMatchesBytewise(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var w Writer
		prefix := make([]byte, rng.Intn(3))
		rng.Read(prefix)
		w.Reset(append([]byte(nil), prefix...))
		var stream []uint
		for op, ops := 0, rng.Intn(120); op < ops; op++ {
			switch rng.Intn(4) {
			case 0:
				b := uint(rng.Intn(2))
				w.WriteBit(b)
				stream = append(stream, b)
			case 1:
				pad := w.BitLen() + uint64(rng.Intn(150))
				w.PadToBit(pad)
				for uint64(len(stream)) < pad {
					stream = append(stream, 0)
				}
			default:
				n := uint(rng.Intn(65))
				v := rng.Uint64()
				rest := w.WriteBits(v, n)
				if want := v >> n; n < 64 && rest != want || n == 64 && rest != 0 {
					t.Fatalf("seed %d: WriteBits(%x, %d) returned %x", seed, v, n, rest)
				}
				for j := uint(0); j < n; j++ {
					stream = append(stream, uint(v>>j&1))
				}
			}
		}
		if w.BitLen() != uint64(len(stream)) {
			t.Fatalf("seed %d: BitLen %d, wrote %d bits", seed, w.BitLen(), len(stream))
		}
		want := append(append([]byte(nil), prefix...), make([]byte, (len(stream)+7)/8)...)
		for i, b := range stream {
			want[len(prefix)+i/8] |= byte(b) << (i % 8)
		}
		snapshot := w.Bytes()
		got := w.Final()
		if !bytes.Equal(got, want) || !bytes.Equal(snapshot, want) {
			t.Fatalf("seed %d: stream bytes differ\n got %x\nwant %x", seed, got, want)
		}

		r, ref := NewReader(got), &bytewiseReader{buf: got}
		for op := 0; op < 200; op++ {
			var a, b uint64
			switch rng.Intn(5) {
			case 0:
				a, b = uint64(r.ReadBit()), uint64(ref.ReadBit())
			case 1: // a seek inside the loaded word, most of the time
				pos := r.BitPos() + uint64(rng.Intn(70))
				r.SkipToBit(pos)
				ref.SkipToBit(pos)
			case 2: // a seek anywhere, up to two words past the end
				pos := uint64(rng.Intn(8*len(got) + 128))
				r.SkipToBit(pos)
				ref.SkipToBit(pos)
			default:
				n := uint(rng.Intn(65))
				a, b = r.ReadBits(n), ref.ReadBits(n)
			}
			if a != b || r.BitPos() != ref.nread {
				t.Fatalf("seed %d op %d: read %x at bit %d, byte-wise reader %x at bit %d", seed, op, a, r.BitPos(), b, ref.nread)
			}
		}
	}
}
