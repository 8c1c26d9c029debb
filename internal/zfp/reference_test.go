package zfp

// The bit-serial 1-D float32 coder: a literal translation of zfp's
// encode_ints/decode_ints over a shared bitstream, one WriteBit/ReadBit per
// payload bit. It was the production kernel until the block-local coder in
// zfp.go replaced it and lives on here as the differential oracle: every
// output byte and every decoded bit pattern of the fast coder must equal
// what this code produces (TestFastMatchesReference, FuzzZFPDifferential),
// and the coder's tables must equal what its loops emit (TestTablesMatchReference).

import (
	"math"

	"mpicomp/internal/bitstream"
)

// refFwdCast converts the block to Q1.30 fixed point relative to emax.
func refFwdCast(dst *[4]int32, src *[4]float32, emax int) {
	scale := math.Ldexp(1, intprec-2-emax)
	for i, f := range src {
		dst[i] = int32(float64(f) * scale)
	}
}

// refInvCast converts Q1.30 fixed point back to float32. Quantization can
// overshoot by a fraction of an ULP at the extreme of the exponent range,
// so the result is clamped to the finite float32 domain.
func refInvCast(dst *[4]float32, src *[4]int32, emax int) {
	scale := math.Ldexp(1, emax-(intprec-2))
	for i, v := range src {
		f := float64(v) * scale
		if f > math.MaxFloat32 {
			f = math.MaxFloat32
		} else if f < -math.MaxFloat32 {
			f = -math.MaxFloat32
		}
		dst[i] = float32(f)
	}
}

// refEncodeInts is zfp's embedded group-testing bit-plane coder (a literal
// translation of encode_ints from the zfp codec, specialized to 4-value
// blocks). It writes at most maxbits bits of the 4 negabinary integers to
// w, most significant plane first, and returns the number of bits written.
//
// n persists across planes: it counts the values whose significance has
// been established, and those values' plane bits are emitted verbatim while
// the rest of each plane is unary run-length coded (group testing).
func refEncodeInts(w *bitstream.Writer, maxbits uint, data *[4]uint32) uint {
	const size = BlockValues
	bits := maxbits
	n := uint(0)
	for k := intprec; bits != 0 && k > 0; {
		k--
		// Step 1: extract bit plane k to x (bit i of x = bit k of data[i]).
		var x uint64
		for i := 0; i < size; i++ {
			x += uint64((data[i]>>uint(k))&1) << uint(i)
		}
		// Step 2: encode the first n bits of the plane verbatim.
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		x = w.WriteBits(x, m)
		// Step 3: unary run-length encode the remainder of the plane.
		for n < size && bits != 0 {
			bits--
			if x == 0 {
				w.WriteBit(0) // group test: nothing significant remains
				break
			}
			w.WriteBit(1)
			for n < size-1 && bits != 0 {
				bits--
				b := uint(x & 1)
				w.WriteBit(b)
				if b != 0 {
					break
				}
				x >>= 1
				n++
			}
			// Skip past the 1 bit just coded (or implied, when the
			// scan reached the final value).
			x >>= 1
			n++
		}
	}
	return maxbits - bits
}

// refDecodeInts inverts refEncodeInts, reading at most maxbits bits.
func refDecodeInts(r *bitstream.Reader, maxbits uint, data *[4]uint32) {
	const size = BlockValues
	for i := range data {
		data[i] = 0
	}
	bits := maxbits
	n := uint(0)
	for k := intprec; bits != 0 && k > 0; {
		k--
		// Step 1: decode the verbatim prefix of the plane.
		m := n
		if m > bits {
			m = bits
		}
		bits -= m
		x := r.ReadBits(m)
		// Step 2: unary run-length decode the remainder.
		for n < size && bits != 0 {
			bits--
			if r.ReadBit() == 0 {
				break
			}
			for n < size-1 && bits != 0 {
				bits--
				if r.ReadBit() != 0 {
					break
				}
				n++
			}
			x += uint64(1) << n
			n++
		}
		// Step 3: deposit bit plane k.
		for i := 0; x != 0; i, x = i+1, x>>1 {
			data[i] += uint32(x&1) << uint(k)
		}
	}
}

// refEncodeBlock writes one block in exactly maxbits bits.
func refEncodeBlock(w *bitstream.Writer, maxbits uint, block *[4]float32) {
	startBits := w.BitLen()
	emax := blockExponent(block)
	// Blocks that are all zero — or all denormal-tiny, whose biased
	// exponent would underflow the 8-bit field — are coded as a single
	// 0 bit plus padding and reconstruct to exact zeros.
	if emax+ebias < 1 {
		w.WriteBit(0)
	} else {
		e := uint64(emax + ebias)
		w.WriteBits(2*e+1, ebits)
		var iblock [4]int32
		refFwdCast(&iblock, block, emax)
		iblock[0], iblock[1], iblock[2], iblock[3] = fwdLift(iblock[0], iblock[1], iblock[2], iblock[3])
		var ublock [4]uint32
		for i, v := range iblock {
			ublock[i] = int2nb(v)
		}
		budget := maxbits - ebits
		refEncodeInts(w, budget, &ublock)
	}
	w.PadToBit(startBits + uint64(maxbits))
}

// refDecodeBlock reads one block of exactly maxbits bits.
func refDecodeBlock(r *bitstream.Reader, maxbits uint, block *[4]float32) {
	startBits := r.BitPos()
	first := r.ReadBit()
	if first == 0 {
		for i := range block {
			block[i] = 0
		}
	} else {
		// Re-read the full exponent field: the first bit we consumed
		// is the LSB of 2*e+1 (always 1).
		rest := r.ReadBits(ebits - 1)
		e := rest // (2*e+1)>>1 == e
		emax := int(e) - ebias
		var ublock [4]uint32
		refDecodeInts(r, maxbits-ebits, &ublock)
		var iblock [4]int32
		for i, v := range ublock {
			iblock[i] = nb2int(v)
		}
		iblock[0], iblock[1], iblock[2], iblock[3] = invLift(iblock[0], iblock[1], iblock[2], iblock[3])
		refInvCast(block, &iblock, emax)
	}
	r.SkipToBit(startBits + uint64(maxbits))
}

// refAppendCompress is AppendCompress over the bit-serial coder.
func refAppendCompress(dst []byte, src []float32, rate int) []byte {
	maxbits := uint(BlockValues * rate)
	var w bitstream.Writer
	w.Reset(dst)
	var block [4]float32
	n := len(src)
	for base := 0; base < n; base += BlockValues {
		for i := 0; i < BlockValues; i++ {
			if base+i < n {
				block[i] = src[base+i]
			} else if base+i > 0 {
				block[i] = block[i-1]
			} else {
				block[i] = 0
			}
		}
		refEncodeBlock(&w, maxbits, &block)
	}
	return w.Final()
}

// refDecompressInto is DecompressInto over the bit-serial coder; comp must
// hold at least CompressedSize(len(dst), rate) bytes.
func refDecompressInto(dst []float32, comp []byte, rate int) {
	maxbits := uint(BlockValues * rate)
	var r bitstream.Reader
	r.Reset(comp)
	var block [4]float32
	n := len(dst)
	for base := 0; base < n; base += BlockValues {
		refDecodeBlock(&r, maxbits, &block)
		for i := 0; i < BlockValues && base+i < n; i++ {
			dst[base+i] = block[i]
		}
	}
}
