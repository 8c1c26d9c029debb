// Package bitstream implements the word-oriented bit stream used by the ZFP
// codec (and available to any other bit-granular encoder). Semantics mirror
// zfp's bitstream.c: bits are written least-significant-bit first into
// 64-bit words, words are stored little-endian.
package bitstream

import (
	"encoding/binary"
	"fmt"
)

// Writer accumulates bits into a byte buffer.
type Writer struct {
	buf    []byte
	accum  uint64 // bits not yet flushed, LSB-first
	nbits  uint   // number of valid bits in accum (< 64)
	nwrote uint64 // total bits written
}

// NewWriter returns an empty bit writer.
func NewWriter() *Writer { return &Writer{} }

// Reset re-initializes the writer to append bits after the existing
// contents of buf (commonly buf[:0] of a reusable scratch slice). It lets
// callers keep a Writer as a stack value and encode into caller-provided
// storage with no internal allocation — the zero-copy entry the codecs'
// Append variants are built on.
func (w *Writer) Reset(buf []byte) {
	w.buf = buf
	w.accum = 0
	w.nbits = 0
	w.nwrote = 0
}

// Final flushes any partial trailing word to a byte boundary (zero
// padded) and returns the backing buffer. Unlike Bytes it does not copy;
// the writer must be Reset before further use.
func (w *Writer) Final() []byte {
	if w.nbits > 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w.accum)
		n := (w.nbits + 7) / 8
		w.buf = append(w.buf, b[:n]...)
		w.accum = 0
		w.nbits = 0
	}
	return w.buf
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.accum |= uint64(b&1) << w.nbits
	w.nbits++
	w.nwrote++
	if w.nbits == 64 {
		w.flushWord()
	}
}

// WriteBits appends the low n bits of v, LSB first, and returns the bits of
// v that were NOT written (v >> n), matching zfp's stream_write_bits
// contract that encoders rely on for run-length coding.
func (w *Writer) WriteBits(v uint64, n uint) uint64 {
	if n == 0 {
		return v
	}
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d > 64", n))
	}
	rest := uint64(0)
	if n < 64 {
		rest = v >> n
		v &= (uint64(1) << n) - 1
	}
	w.accum |= v << w.nbits
	total := w.nbits + n
	if total >= 64 {
		w.flushWord()
		if shift := 64 - (total - n); shift < 64 {
			w.accum = v >> shift
		}
		w.nbits = total - 64
	} else {
		w.nbits = total
	}
	w.nwrote += uint64(n)
	return rest
}

func (w *Writer) flushWord() {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, w.accum)
	w.accum = 0
	w.nbits = 0
}

// PadToBit pads the stream with zero bits until exactly total bits have
// been written. It panics if the stream is already longer than total.
func (w *Writer) PadToBit(total uint64) {
	if w.nwrote > total {
		panic(fmt.Sprintf("bitstream: stream has %d bits, cannot pad down to %d", w.nwrote, total))
	}
	for w.nwrote+64 <= total {
		w.WriteBits(0, 64)
	}
	if rem := total - w.nwrote; rem > 0 {
		w.WriteBits(0, uint(rem))
	}
}

// BitLen reports the number of bits written so far.
func (w *Writer) BitLen() uint64 { return w.nwrote }

// Bytes returns a snapshot of the stream, padding any partial trailing
// word with zero bits to a byte boundary. The writer's state is not
// modified: Bytes may be called repeatedly and writes may continue after.
func (w *Writer) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	if w.nbits > 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], w.accum)
		n := (w.nbits + 7) / 8
		out = append(out, b[:n]...)
	}
	return out
}

// Reader consumes bits from a byte buffer written by Writer.
type Reader struct {
	buf   []byte
	pos   int    // next byte to load
	accum uint64 // loaded bits, LSB-first
	nbits uint   // valid bits in accum
	nread uint64 // total bits read
}

// NewReader returns a reader over buf. The reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset re-initializes the reader over buf, allowing a stack-allocated
// Reader to be reused without going through NewReader.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.accum = 0
	r.nbits = 0
	r.nread = 0
}

// fill loads the accumulator: a whole word at once when it is empty and 8
// bytes remain, byte by byte at the tail of the buffer.
func (r *Reader) fill() {
	if r.nbits == 0 && len(r.buf)-r.pos >= 8 {
		r.accum = binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
		r.nbits = 64
		return
	}
	for r.nbits <= 56 && r.pos < len(r.buf) {
		r.accum |= uint64(r.buf[r.pos]) << r.nbits
		r.pos++
		r.nbits += 8
	}
}

// ReadBit consumes and returns one bit. Reading past the end returns zero
// bits, matching zfp's behavior of treating the tail as zero padding.
func (r *Reader) ReadBit() uint {
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

// ReadBits consumes and returns n bits, LSB first.
func (r *Reader) ReadBits(n uint) uint64 {
	if n == 0 {
		return 0
	}
	if n > 64 {
		panic(fmt.Sprintf("bitstream: ReadBits n=%d > 64", n))
	}
	var v uint64
	var got uint
	for got < n {
		if r.nbits == 0 {
			r.fill()
			if r.nbits == 0 {
				// Zero padding past end of stream.
				r.nread += uint64(n)
				return v
			}
		}
		take := n - got
		if take > r.nbits {
			take = r.nbits
		}
		chunk := r.accum & ((uint64(1) << take) - 1)
		if take == 64 {
			chunk = r.accum
		}
		v |= chunk << got
		r.accum >>= take
		r.nbits -= take
		got += take
	}
	r.nread += uint64(n)
	return v
}

// SkipToBit positions the reader at absolute bit offset pos (from the start
// of the buffer), forward or backward. A forward seek that stays inside the
// loaded word drops the bits in between; any other reloads from the buffer.
func (r *Reader) SkipToBit(pos uint64) {
	if pos >= r.nread && pos-r.nread <= uint64(r.nbits) {
		skip := uint(pos - r.nread)
		r.accum >>= skip
		r.nbits -= skip
		r.nread = pos
		return
	}
	bytePos := pos / 8
	bitOff := uint(pos % 8)
	if bytePos > uint64(len(r.buf)) {
		bytePos = uint64(len(r.buf))
	}
	r.pos = int(bytePos)
	r.accum = 0
	r.nbits = 0
	r.nread = pos - uint64(bitOff)
	if bitOff > 0 {
		r.ReadBits(bitOff)
	}
}

// BitPos reports the number of bits consumed so far.
func (r *Reader) BitPos() uint64 { return r.nread }
