// Package zfp implements the fixed-rate, 1-D, single-precision mode of the
// ZFP compressed floating-point array format (Lindstrom, IEEE TVCG 2014) —
// the exact configuration the IPDPS'21 paper uses ("the 1D array type with
// the number of total floating-point values as dimension size", CUDA
// fixed-rate mode).
//
// Each block of 4 consecutive values is coded independently in exactly
// maxbits = 4*rate bits (rate = compressed bits per value), so the
// compressed size of n values is ceil(n/4)*4*rate bits — fully predictable,
// which is why the framework never needs to read the compressed size back
// from the GPU for ZFP (Section III-A of the paper).
//
// The per-block pipeline is the real ZFP algorithm:
//
//  1. Block-floating-point: align all 4 values to the block-wide maximum
//     exponent and convert to Q1.30 two's-complement integers.
//  2. Decorrelating lifting transform (the non-orthogonal 4-point
//     transform from the zfp codec).
//  3. Negabinary mapping so magnitude ordering matches bit-plane ordering.
//  4. Embedded bit-plane coding with group testing (zfp's encode_ints):
//     planes are emitted most-significant first; within a plane, bits for
//     values already "active" are emitted verbatim and the remainder is
//     unary run-length coded. The stream is truncated/padded to maxbits.
//
// Decompression inverts each stage; with rate 16 the typical relative
// error is ~1e-4, and reconstruction error decreases monotonically with
// rate, which the tests verify.
//
// # The block-local coder
//
// Because a block occupies exactly maxbits <= 128 bits at bit offset
// index*maxbits, the float32 kernel behind AppendCompress and
// DecompressInto — and behind AppendCompressBytes and DecompressBytesInto,
// the same loops over a message buffer's little-endian bytes — never
// touches a shared serial bit stream: encodeBlock
// builds a block in one or two uint64 registers and the caller stores it
// with one word-granular put; decodeBlock receives the block's bits from
// one word load (three past rate 16) and shifts through them. Inside the
// block
//
//   - the block exponent is read off the IEEE exponent field of the largest
//     magnitude (the Frexp route remains for denormal, Inf and NaN blocks,
//     which must stay bit-identical) and the cast scale is built with
//     math.Float64frombits;
//   - the four negabinary words are interleaved 16 planes at a time
//     (interleave), so a bit plane is one nibble of a register;
//   - the embedded coder steps through two tables derived at init from the
//     bit-serial plane step itself (encodePlane, decodePlane): a plane's
//     code depends only on its 4 bits and on how many values are already
//     significant. Runs of planes that cost one fixed pattern — all-zero
//     planes before anything is significant, planes that only extend value
//     0 once it is — are coded with a count-leading-zeros and a bit spread
//     instead of plane by plane;
//   - the one plane the bit budget cuts short is the code's prefix when
//     encoding and falls back to decodePlane when decoding.
//
// The output is byte-identical to the bit-serial coder, which lives on in
// reference_test.go as the differential oracle (TestFastMatchesReference,
// FuzzZFPDifferential, TestTablesMatchReference). The 2-D, 3-D and float64
// variants in this package still go through internal/bitstream.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// BlockValues is the number of values per 1-D block (4^1).
const BlockValues = 4

// ebits is the number of bits used to encode the common block exponent:
// 8 exponent bits + 1 marker bit, as in zfp for float32.
const ebits = 9

// ebias is the float32 exponent bias.
const ebias = 127

// intprec is the precision of the block-integer representation.
const intprec = 32

// nbmask is the negabinary conversion mask for 32-bit integers.
const nbmask uint32 = 0xaaaaaaaa

// MinRate and MaxRate bound the supported fixed rates (bits per value).
// MinRate is 3 because a block must at least hold its 9-bit exponent field
// within the 4*rate-bit budget.
const (
	MinRate = 3
	MaxRate = 32
)

var (
	// ErrBadRate reports a rate outside [MinRate, MaxRate].
	ErrBadRate = errors.New("zfp: rate out of range")
	// ErrShortBuffer reports a compressed buffer too small for the
	// stated element count and rate.
	ErrShortBuffer = errors.New("zfp: compressed buffer too short")
	// ErrUnaligned reports a byte-level entry point handed a length that
	// is not a whole number of 4-byte values.
	ErrUnaligned = errors.New("zfp: byte length is not a multiple of 4")
)

func checkRate(rate int) error {
	if rate < MinRate || rate > MaxRate {
		return fmt.Errorf("%w: %d (want %d..%d)", ErrBadRate, rate, MinRate, MaxRate)
	}
	return nil
}

// CompressedSize returns the exact compressed size in bytes of n float32
// values at the given rate. This is the property that lets the framework
// skip the device-to-host size readback for ZFP.
func CompressedSize(n, rate int) (int, error) {
	if err := checkRate(rate); err != nil {
		return 0, err
	}
	blocks := (n + BlockValues - 1) / BlockValues
	bits := uint64(blocks) * uint64(BlockValues*rate)
	return int((bits + 7) / 8), nil
}

// Ratio returns the fixed compression ratio at the given rate (original
// bits per value / rate).
func Ratio(rate int) float64 { return 32.0 / float64(rate) }

// fwdLift is zfp's forward non-orthogonal decorrelating transform:
//
//	       ( 4  4  4  4) (x)
//	1/16 * ( 5  1 -1 -5) (y)
//	       (-4  4  4 -4) (z)
//	       (-2  6 -6  2) (w)
func fwdLift(p *[4]int32) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// invLift is the matching inverse transform:
//
//	      ( 4  6 -4 -1) (x)
//	1/4 * ( 4  2  4  5) (y)
//	      ( 4 -2  4 -5) (z)
//	      ( 4 -6 -4  1) (w)
func invLift(p *[4]int32) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// Compile-time note: fwdLift/invLift are exact structural inverses of the
// zfp codec's fwd_lift/inv_lift; the lossy >>1 steps pair with <<1 steps in
// the inverse so that inv(fwd(v)) differs from v by at most a few ULPs,
// which TestLiftInverse verifies.

// int2nb maps a two's-complement integer to negabinary.
func int2nb(v int32) uint32 { return (uint32(v) + nbmask) ^ nbmask }

// nb2int maps negabinary back to two's complement.
func nb2int(v uint32) int32 { return int32((v ^ nbmask) - nbmask) }

// exponent extracts the unbiased binary exponent of |f|, with the zfp
// convention that 0 maps to the minimum exponent.
func exponent(f float32) int {
	if f == 0 {
		return -ebias
	}
	_, e := math.Frexp(float64(f))
	// Frexp normalizes to [0.5, 1): f = frac * 2^e. zfp uses the same
	// convention (FREXP then no adjustment) for its block exponent.
	return e
}

// blockExponent returns the maximum exponent over the block by the
// Frexp route. encodeBlock reads the exponent off the IEEE field and needs
// this only for blocks whose largest magnitude is denormal, Inf or NaN.
func blockExponent(b *[4]float32) int {
	emax := -ebias
	for _, f := range b {
		if f != 0 {
			if e := exponent(float32(math.Abs(float64(f)))); e > emax {
				emax = e
			}
		}
	}
	return emax
}

// The embedded coder is zfp's encode_ints/decode_ints specialised to
// 4-value blocks. n counts the values whose significance is established;
// it persists across planes. Within a plane the bits of those n values are
// emitted verbatim and the rest is unary run-length coded (group testing).
// A plane's code therefore depends only on (n, the plane's 4 bits), is at
// most 7 bits long, and leaves a new n: encodePlane and decodePlane are
// that one step, and encTab/decTab are the step tabulated for every state.

// encodePlane codes plane bits x (bit i belongs to value i) with n values
// already significant: code holds length bits, first bit lowest.
func encodePlane(x, n uint) (code, length, next uint) {
	code = x & (1<<n - 1)
	length = n
	x >>= n
	for n < BlockValues {
		if x == 0 {
			length++ // group test: nothing significant remains
			break
		}
		code |= 1 << length
		length++
		for n < BlockValues-1 {
			b := x & 1
			code |= b << length
			length++
			if b != 0 {
				break
			}
			x >>= 1
			n++
		}
		// Skip past the 1 bit just coded (or implied, when the scan
		// reached the final value).
		x >>= 1
		n++
	}
	return code, length, n
}

// decodePlane inverts encodePlane on the stream bits w (first bit lowest),
// reading at most bits of them; a code the budget cuts short decodes the
// way zfp's decoder does when it runs out of bits mid-plane.
func decodePlane(w uint64, n, bits uint) (x, used, next uint) {
	budget := bits
	m := min(n, bits)
	x = uint(w) & (1<<m - 1)
	w >>= m
	bits -= m
	for n < BlockValues && bits != 0 {
		bits--
		b := w & 1
		w >>= 1
		if b == 0 {
			break
		}
		for n < BlockValues-1 && bits != 0 {
			bits--
			b := w & 1
			w >>= 1
			if b != 0 {
				break
			}
			n++
		}
		x += 1 << n
		n++
	}
	return x, budget - bits, n
}

// maxPlaneBits is the longest plane code (n = 0, all four bits set).
const maxPlaneBits = 7

// minRun is the shortest run of planes worth coding through the run paths
// of encodeBlock and decodeBlock (a few dozen operations whatever the
// length) instead of one table step per plane.
const minRun = 4

// encTab[n<<4|x] is encodePlane(x, n) packed as code<<8 | next<<4 | length,
// so that entry&0x70 | nextPlane indexes the following step. decTab[n<<7|w]
// is decodePlane(w, n, ∞) for the next 7 stream bits w, packed as
// next<<7 | length<<4 | x, so that entry&0x380 | nextBits does the same.
// Both are sized to the power of two their index masks span (n <= 4 is all
// that occurs), which lets the compiler drop the bounds checks.
var (
	encTab [8 << 4]uint16
	decTab [8 << maxPlaneBits]uint16
)

func init() {
	for n := uint(0); n <= BlockValues; n++ {
		for x := uint(0); x < 1<<BlockValues; x++ {
			code, length, next := encodePlane(x, n)
			encTab[n<<4|x] = uint16(code<<8 | next<<4 | length)
		}
		for w := uint(0); w < 1<<maxPlaneBits; w++ {
			x, length, next := decodePlane(uint64(w), n, 64)
			decTab[n<<maxPlaneBits|w] = uint16(next<<maxPlaneBits | length<<4 | x)
		}
	}
}

// interleave returns the 16 nibbles (bit j of a, b, c, d in bits 4j..4j+3)
// of four 16-bit values, so that the coder takes a whole bit plane with one
// shift. It is a 4x16 bit-matrix transpose: pack the rows, then rotate the
// 6-bit position index by two with four delta swaps.
func interleave(a, b, c, d uint32) uint64 {
	x := uint64(a&0xffff) | uint64(b&0xffff)<<16 | uint64(c&0xffff)<<32 | uint64(d&0xffff)<<48
	t := (x ^ x>>24) & 0x00000000ff00ff00
	x ^= t ^ t<<24
	t = (x ^ x>>6) & 0x00cc00cc00cc00cc
	x ^= t ^ t<<6
	t = (x ^ x>>12) & 0x0000f0f00000f0f0
	x ^= t ^ t<<12
	t = (x ^ x>>3) & 0x0a0a0a0a0a0a0a0a
	x ^= t ^ t<<3
	return x
}

// deinterleave inverts interleave.
func deinterleave(x uint64) (a, b, c, d uint32) {
	t := (x ^ x>>3) & 0x0a0a0a0a0a0a0a0a
	x ^= t ^ t<<3
	t = (x ^ x>>12) & 0x0000f0f00000f0f0
	x ^= t ^ t<<12
	t = (x ^ x>>6) & 0x00cc00cc00cc00cc
	x ^= t ^ t<<6
	t = (x ^ x>>24) & 0x00000000ff00ff00
	x ^= t ^ t<<24
	return uint32(x) & 0xffff, uint32(x>>16) & 0xffff, uint32(x>>32) & 0xffff, uint32(x >> 48)
}

// encodeBlock codes the four float32 bit patterns of one block into exactly
// maxbits bits, returned first-bit-lowest in lo (bits 0..63) and hi.
func encodeBlock(b0, b1, b2, b3 uint32, maxbits uint) (lo, hi uint64) {
	const signless = 1<<31 - 1
	amax := max(b0&signless, b1&signless, b2&signless, b3&signless)
	// Blocks that are all zero — or all denormal-tiny, whose biased
	// exponent would underflow the 8-bit field — are coded as a single
	// 0 bit plus padding and reconstruct to exact zeros.
	if amax == 0 {
		return 0, 0
	}
	f0, f1 := math.Float32frombits(b0), math.Float32frombits(b1)
	f2, f3 := math.Float32frombits(b2), math.Float32frombits(b3)
	// The largest magnitude has the largest IEEE exponent field, and for a
	// normal number Frexp's exponent is that field less ebias-1.
	field := amax >> 23
	emax := int(field) - (ebias - 1)
	if field == 0 || field == 255 {
		emax = blockExponent(&[4]float32{f0, f1, f2, f3})
		if emax+ebias < 1 {
			return 0, 0
		}
	}
	// Block-floating-point cast to Q1.30 relative to emax, then the
	// decorrelating transform and the negabinary mapping.
	scale := math.Float64frombits(uint64(1023+intprec-2-emax) << 52)
	q := [4]int32{int32(float64(f0) * scale), int32(float64(f1) * scale),
		int32(float64(f2) * scale), int32(float64(f3) * scale)}
	fwdLift(&q)
	d0, d1, d2, d3 := int2nb(q[0]), int2nb(q[1]), int2nb(q[2]), int2nb(q[3])

	lo = uint64(2*(emax+ebias) + 1)
	// While no value is significant a plane without bits costs one 0 bit.
	zeros := uint(bits.LeadingZeros32(d0 | d1 | d2 | d3))
	pos := ebits + zeros
	plane := intprec - zeros
	// half holds the 16 bit planes, one per nibble, of the half word that
	// the next plane is in: the upper one first.
	upper := plane > 16
	var half uint64
	if upper {
		half = interleave(d0>>16, d1>>16, d2>>16, d3>>16)
	} else {
		half = interleave(d0, d1, d2, d3)
	}
	// emit appends the low n bits of v at pos. A code reaching past bit
	// 63 continues in hi; Go shifts by 64 or more to zero, which makes
	// the two terms for hi exclusive.
	emit := func(v uint64, n uint) {
		lo |= v << pos
		if pos+n > 64 {
			hi |= v<<(pos-64) | v>>(64-pos)
		}
		pos += n
	}
	var e uint
	for pos < maxbits && plane > 0 {
		if e&0x70 == 1<<4 {
			// With one value significant a plane that adds no other
			// codes as "bit, 0": a run of them is value 0's bits,
			// top plane first, in every second bit of the stream.
			if run := min(uint(bits.LeadingZeros32((d1|d2|d3)<<(intprec-plane))), plane); run >= minRun {
				s := uint64(bits.Reverse32(d0<<(intprec-plane))) & (1<<run - 1)
				s = (s | s<<16) & 0x0000ffff0000ffff
				s = (s | s<<8) & 0x00ff00ff00ff00ff
				s = (s | s<<4) & 0x0f0f0f0f0f0f0f0f
				s = (s | s<<2) & 0x3333333333333333
				s = (s | s<<1) & 0x5555555555555555
				emit(s, 2*run)
				plane -= run
				continue
			}
		}
		if upper && plane <= 16 {
			half, upper = interleave(d0, d1, d2, d3), false
		}
		plane--
		e = uint(encTab[e&0x70|uint(half>>(plane&15<<2))&15])
		emit(uint64(e>>8), e&7)
	}
	// The budget cuts the last code short: the bit-serial coder stops
	// mid-code there, which leaves exactly the code's prefix.
	if maxbits < 64 {
		return lo & (1<<maxbits - 1), 0
	}
	return lo, hi & (1<<(maxbits-64) - 1)
}

// decodeBlock reconstructs the four values of a block from its bits.
func decodeBlock(lo, hi uint64, maxbits uint) (f0, f1, f2, f3 float32) {
	if lo&1 == 0 {
		return 0, 0, 0, 0
	}
	emax := int(lo>>1&0xff) - ebias

	// While no value is significant a 0 bit is a plane without bits.
	w := lo >> ebits
	left := maxbits - ebits
	zeros := min(uint(bits.TrailingZeros64(w)), left, intprec)
	w >>= zeros
	left -= zeros
	plane := intprec - zeros

	// planes collects the decoded nibbles as interleave lays them out, the
	// lower 16 bit planes in planes[0]; run0 the bits of value 0 that the
	// run path below decodes by itself.
	var planes [2]uint64
	var run0 uint32
	var e uint
	// w holds 64-ebits stream bits; refill is the value of left below
	// which fewer than maxPlaneBits of them remain and a two-word block
	// has to reload it.
	refill := uint(0)
	if maxbits > 64 {
		refill = maxbits - (64 - maxPlaneBits)
	}
	for left > 0 && plane > 0 {
		if left < refill {
			// Go shifts by 64 or more to zero, which makes the
			// three terms exclusive.
			pos := maxbits - left
			w = lo>>pos | hi<<(64-pos) | hi>>(pos-64)
			refill = max(left, 64-maxPlaneBits) - (64 - maxPlaneBits)
		}
		n := e >> maxPlaneBits
		if n == 1 {
			// With one value significant a plane that adds no other
			// reads "bit, 0": a run of them is every second bit of
			// the stream up to the first 1 in between.
			if run := min(uint(bits.TrailingZeros64(w&0xaaaaaaaaaaaaaaaa))/2, (left-refill)/2, plane); run >= minRun {
				v := w & 0x5555555555555555 & (1<<(2*run) - 1)
				v = (v | v>>1) & 0x3333333333333333
				v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
				v = (v | v>>4) & 0x00ff00ff00ff00ff
				v = (v | v>>8) & 0x0000ffff0000ffff
				v |= v >> 16
				run0 |= bits.Reverse32(uint32(v)) >> (32 - plane)
				w >>= 2 * run
				left -= 2 * run
				plane -= run
				continue
			}
		}
		e = uint(decTab[e&0x380|uint(w)&(1<<maxPlaneBits-1)])
		x, used := e&15, e>>4&7
		if used > left {
			// The budget cuts this plane's code short.
			x, used, _ = decodePlane(w, n, left)
		}
		w >>= used
		left -= used
		plane--
		planes[plane>>4&1] |= uint64(x) << (plane & 15 << 2)
	}
	h0, h1, h2, h3 := deinterleave(planes[1])
	d0, d1, d2, d3 := run0|h0<<16, h1<<16, h2<<16, h3<<16
	if planes[0] != 0 {
		l0, l1, l2, l3 := deinterleave(planes[0])
		d0, d1, d2, d3 = d0|l0, d1|l1, d2|l2, d3|l3
	}
	q := [4]int32{nb2int(d0), nb2int(d1), nb2int(d2), nb2int(d3)}
	invLift(&q)
	scale := math.Float64frombits(uint64(1023+emax-(intprec-2)) << 52)
	return invCast(q[0], scale), invCast(q[1], scale), invCast(q[2], scale), invCast(q[3], scale)
}

// invCast converts Q1.30 fixed point back to float32. Quantization can
// overshoot by a fraction of an ULP at the extreme of the exponent range,
// so the result is clamped to the finite float32 domain.
func invCast(v int32, scale float64) float32 {
	f := float64(v) * scale
	if f > math.MaxFloat32 {
		f = math.MaxFloat32
	} else if f < -math.MaxFloat32 {
		f = -math.MaxFloat32
	}
	return float32(f)
}

// Compress compresses src at the given fixed rate, appending the encoded
// stream to dst. A final partial block is padded with the block's last
// value (standard zfp edge extension for partial blocks).
func Compress(dst []byte, src []float32, rate int) ([]byte, error) {
	return AppendCompress(dst, src, rate)
}

// blockWriter stores consecutive blocks of maxbits bits each, a 64-bit word
// at a time: every block codes to exactly 4*rate bits at a position fixed
// by its index, so blocks are encoded in registers and land straight in the
// output (no intermediate stream, no final copy). acc holds the nacc < 64
// stream bits not yet stored. It is the one store path under both
// AppendCompress and AppendCompressBytes.
type blockWriter struct {
	out     []byte
	acc     uint64
	nacc    uint
	maxbits uint
}

func (w *blockWriter) put(v uint64, nbits uint) {
	w.acc |= v << w.nacc
	if w.nacc += nbits; w.nacc >= 64 {
		binary.LittleEndian.PutUint64(w.out, w.acc)
		w.out = w.out[8:]
		w.nacc -= 64
		w.acc = v >> (nbits - w.nacc)
	}
}

// block codes the four float32 bit patterns of one block.
func (w *blockWriter) block(b0, b1, b2, b3 uint32) {
	lo, hi := encodeBlock(b0, b1, b2, b3, w.maxbits)
	if w.maxbits <= 64 {
		w.put(lo, w.maxbits)
	} else {
		w.put(lo, 64)
		w.put(hi, w.maxbits-64)
	}
}

// partial codes a final block holding only n < 4 values, the first n of b:
// zfp's edge extension repeats the last of them.
func (w *blockWriter) partial(b [BlockValues]uint32, n int) {
	for i := n; i < BlockValues; i++ {
		b[i] = b[n-1]
	}
	w.block(b[0], b[1], b[2], b[3])
}

// flush stores the bits of the last, partial word.
func (w *blockWriter) flush() {
	for ; w.nacc > 0; w.nacc -= min(w.nacc, 8) {
		w.out[0] = byte(w.acc)
		w.out, w.acc = w.out[1:], w.acc>>8
	}
}

// reserve extends dst by the compressed size of n values at rate and
// returns it with a writer over the extension.
func reserve(dst []byte, n, rate int) ([]byte, blockWriter) {
	want, _ := CompressedSize(n, rate)
	start := len(dst)
	dst = slices.Grow(dst, want)[:start+want]
	return dst, blockWriter{out: dst[start:], maxbits: uint(BlockValues * rate)}
}

// AppendCompress is the scratch-reuse entry point. When the caller passes a
// reused buffer with cap(dst) sized by CompressedSize the call performs
// zero heap allocations, and the encoding is independent of how the input
// is chunked.
func AppendCompress(dst []byte, src []float32, rate int) ([]byte, error) {
	if err := checkRate(rate); err != nil {
		return dst, err
	}
	dst, w := reserve(dst, len(src), rate)
	for ; len(src) >= BlockValues; src = src[BlockValues:] {
		w.block(math.Float32bits(src[0]), math.Float32bits(src[1]), math.Float32bits(src[2]), math.Float32bits(src[3]))
	}
	if len(src) > 0 {
		var b [BlockValues]uint32
		for i, v := range src {
			b[i] = math.Float32bits(v)
		}
		w.partial(b, len(src))
	}
	w.flush()
	return dst, nil
}

// AppendCompressBytes is AppendCompress over the values' little-endian
// bytes — a message as it sits in a send buffer — and produces the same
// output as converting src to float32 first. len(src) must be a multiple
// of 4.
func AppendCompressBytes(dst, src []byte, rate int) ([]byte, error) {
	if err := checkRate(rate); err != nil {
		return dst, err
	}
	if len(src)%4 != 0 {
		return dst, fmt.Errorf("%w: %d source bytes", ErrUnaligned, len(src))
	}
	dst, w := reserve(dst, len(src)/4, rate)
	for ; len(src) >= 4*BlockValues; src = src[4*BlockValues:] {
		w.block(binary.LittleEndian.Uint32(src), binary.LittleEndian.Uint32(src[4:]),
			binary.LittleEndian.Uint32(src[8:]), binary.LittleEndian.Uint32(src[12:]))
	}
	if n := len(src) / 4; n > 0 {
		var b [BlockValues]uint32
		for i := 0; i < n; i++ {
			b[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
		w.partial(b, n)
	}
	w.flush()
	return dst, nil
}

// Decompress reconstructs exactly n values from comp at the given rate,
// appending to dst.
func Decompress(dst []float32, comp []byte, n, rate int) ([]float32, error) {
	if err := checkRate(rate); err != nil {
		return dst, err
	}
	start := len(dst)
	if cap(dst)-start < n {
		grown := make([]float32, start+n)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:start+n]
	}
	if err := DecompressInto(dst[start:], comp, rate); err != nil {
		return dst[:start], err
	}
	return dst, nil
}

// load64 returns the 8 stream bytes from off on as a little-endian word,
// reading bytes past the end of b as zero.
func load64(b []byte, off int) uint64 {
	if off+8 <= len(b) {
		return binary.LittleEndian.Uint64(b[off:])
	}
	var v uint64
	for i := len(b) - 1; i >= off; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// loadBlock returns the maxbits bits of the block that starts at stream bit
// `bit` of comp, first bit lowest in lo.
func loadBlock(comp []byte, bit, maxbits uint) (lo, hi uint64) {
	// A block starts on a byte or a half byte, so up to 60 bits of it, or
	// all 64 when it is byte aligned, are in the first load.
	off, sh := int(bit>>3), bit&7
	lo = load64(comp, off) >> sh
	if maxbits > 64 {
		next := load64(comp, off+8)
		lo |= next << (64 - sh)
		hi = next>>sh | load64(comp, off+16)<<(64-sh)
	}
	return lo, hi
}

// checkStream validates rate and that comp holds n values' worth of blocks.
func checkStream(comp []byte, n, rate int) error {
	if err := checkRate(rate); err != nil {
		return err
	}
	if want, _ := CompressedSize(n, rate); len(comp) < want {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrShortBuffer, len(comp), want)
	}
	return nil
}

// DecompressInto reconstructs exactly len(dst) values from comp at the
// given rate, overwriting dst in place — the zero-allocation counterpart
// of Decompress for callers that pre-slice a reused destination (e.g.
// parallel block-row decode writing disjoint ranges of one buffer).
func DecompressInto(dst []float32, comp []byte, rate int) error {
	if err := checkStream(comp, len(dst), rate); err != nil {
		return err
	}
	maxbits := uint(BlockValues * rate)
	for bit := uint(0); len(dst) > 0; bit += maxbits {
		lo, hi := loadBlock(comp, bit, maxbits)
		if len(dst) < BlockValues {
			var f [BlockValues]float32
			f[0], f[1], f[2], f[3] = decodeBlock(lo, hi, maxbits)
			copy(dst, f[:])
			break
		}
		dst[0], dst[1], dst[2], dst[3] = decodeBlock(lo, hi, maxbits)
		dst = dst[BlockValues:]
	}
	return nil
}

// DecompressBytesInto is DecompressInto onto the values' little-endian
// bytes — a receive buffer. len(dst) must be a multiple of 4.
func DecompressBytesInto(dst, comp []byte, rate int) error {
	if len(dst)%4 != 0 {
		return fmt.Errorf("%w: %d destination bytes", ErrUnaligned, len(dst))
	}
	if err := checkStream(comp, len(dst)/4, rate); err != nil {
		return err
	}
	maxbits := uint(BlockValues * rate)
	for bit := uint(0); len(dst) > 0; bit += maxbits {
		lo, hi := loadBlock(comp, bit, maxbits)
		f0, f1, f2, f3 := decodeBlock(lo, hi, maxbits)
		if len(dst) < 4*BlockValues {
			for i, f := range []float32{f0, f1, f2, f3}[:len(dst)/4] {
				binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(f))
			}
			break
		}
		binary.LittleEndian.PutUint32(dst, math.Float32bits(f0))
		binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(f1))
		binary.LittleEndian.PutUint32(dst[8:], math.Float32bits(f2))
		binary.LittleEndian.PutUint32(dst[12:], math.Float32bits(f3))
		dst = dst[4*BlockValues:]
	}
	return nil
}

// MaxError returns an upper bound estimate of the absolute reconstruction
// error for values with magnitude <= 2^emax at the given rate. It follows
// the fixed-rate error model: roughly one ULP at the truncated bit plane.
func MaxError(emax, rate int) float64 {
	if rate >= 32 {
		rate = 30
	}
	// ebits bits go to the exponent; the rest cover bit planes from
	// intprec-1 downward across 4 values.
	planes := (BlockValues*rate - ebits) / BlockValues
	if planes < 0 {
		planes = 0
	}
	return math.Ldexp(1, emax-planes+2)
}
