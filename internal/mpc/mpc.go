// Package mpc implements the Massively Parallel Compression (MPC) lossless
// floating-point compressor of Yang, Mukka, Hesaaraki and Burtscher (IEEE
// Cluster 2015), the lossless algorithm the IPDPS'21 paper integrates into
// MVAPICH2.
//
// The pipeline is the canonical MPC chain for GPU execution:
//
//  1. LNV delta: each word is predicted by the word `dim` positions earlier
//     (the "dimensionality" control parameter of the paper), and the
//     residual is the difference. Multidimensional data with interleaved
//     components compresses best when dim equals the component count.
//  2. Sign fold (zig-zag): small negative residuals become small positive
//     words so that similar consecutive values yield residuals whose high
//     bits are zero.
//  3. 32x32 bit transpose per chunk: bit plane j of the 32 residuals in a
//     chunk becomes output word j. Smooth data concentrates entropy in the
//     low planes, so most high-plane words become zero. (A chunk maps to
//     one warp in the CUDA implementation.)
//  4. Zero-word elimination: each chunk emits a 32-bit occupancy bitmap
//     followed by only the nonzero plane words.
//
// The format is self-framing given the original word count: chunks of 32
// words are encoded as [bitmap][nonzero planes...]; a final partial chunk
// (fewer than 32 words) is stored verbatim.
//
// Compression is lossless: Decompress(Compress(x)) == x bit-for-bit, for
// any input, which the property tests verify.
package mpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ChunkWords is the number of 32-bit words per transpose chunk; it matches
// the CUDA warp width the original implementation is built around.
const ChunkWords = 32

// MaxDim is the largest supported dimensionality. The MPC paper explores
// small dimensionalities (typically 1-8); 32 is a generous cap that keeps
// the predictor within one chunk of history.
const MaxDim = 32

var (
	// ErrCorrupt reports a compressed buffer that cannot have been
	// produced by Compress for the stated element count.
	ErrCorrupt = errors.New("mpc: corrupt compressed data")
	// ErrBadDim reports an out-of-range dimensionality.
	ErrBadDim = errors.New("mpc: dimensionality out of range")
	// ErrUnaligned reports a byte slice that is not a whole number of
	// 32-bit words.
	ErrUnaligned = errors.New("mpc: byte length is not a multiple of 4")
)

// Bound returns the maximum compressed size in bytes for n 32-bit words:
// every chunk could be incompressible (bitmap + 32 words) and the tail is
// stored raw.
func Bound(n int) int {
	full := n / ChunkWords
	tail := n % ChunkWords
	return full*(4+ChunkWords*4) + tail*4
}

func checkDim(dim int) error {
	if dim < 1 || dim > MaxDim {
		return fmt.Errorf("%w: %d (want 1..%d)", ErrBadDim, dim, MaxDim)
	}
	return nil
}

// zigzag folds the sign bit into the LSB so small-magnitude residuals of
// either sign have small unsigned representations.
func zigzag(v uint32) uint32 { return (v << 1) ^ uint32(int32(v)>>31) }

// unzigzag inverts zigzag.
func unzigzag(v uint32) uint32 { return (v >> 1) ^ (-(v & 1)) }

// transpose32 performs an in-place 32x32 bit-matrix transpose: the
// Hacker's Delight block-swap network written out stage by stage, so every
// shift is a constant and every index a loop counter plus a constant. The
// network is MSB-first — bit j of word i lands at bit 31-i of word 31-j
// (TestTransposeMovesBits) — and applying it twice is the identity.
func transpose32(a *[32]uint32) {
	for k := 0; k < 16; k++ {
		t := (a[k] ^ a[k+16]>>16) & 0x0000ffff
		a[k] ^= t
		a[k+16] ^= t << 16
	}
	transposeHalf((*[16]uint32)(a[:16]))
	transposeHalf((*[16]uint32)(a[16:]))
}

// transposeHalf runs the distance-8 to distance-1 stages of the network
// on 16 rows. The stages commute with each other and with the distance-16
// stage of transpose32 (each swaps one bit of the row index with the same
// bit of the column index), so any order gives the transpose.
func transposeHalf(a *[16]uint32) {
	for k := 0; k < 8; k++ {
		t := (a[k] ^ a[k+8]>>8) & 0x00ff00ff
		a[k] ^= t
		a[k+8] ^= t << 8
	}
	// From here on j counts the 8 row pairs and k skips the rows that are
	// the upper half of a pair.
	for j := 0; j < 8; j++ {
		k := j + j&4
		t := (a[k] ^ a[k+4]>>4) & 0x0f0f0f0f
		a[k] ^= t
		a[k+4] ^= t << 4
	}
	for j := 0; j < 8; j++ {
		k := j + j&6
		t := (a[k] ^ a[k+2]>>2) & 0x33333333
		a[k] ^= t
		a[k+2] ^= t << 2
	}
	for k := 0; k < 16; k += 2 {
		t := (a[k] ^ a[k+1]>>1) & 0x55555555
		a[k] ^= t
		a[k+1] ^= t << 1
	}
}

// The chunk coder. A chunk is 32 zig-zag residuals r; its wire form is the
// occupancy bitmap of the transposed chunk followed by the nonzero plane
// words. Plane word p collects bit 31-p of every residual, so it is
// nonzero exactly when bit 31-p of OR(r) is set: the bitmap is
// bits.Reverse32(OR(r)) and no plane has to be looked at to form it
// (TestBitmapIsReversedOR). In particular a chunk that repeats its
// predictors word for word has OR(r) == 0 and codes as four zero bytes
// with no transpose; the loaders find that case by comparing the chunk
// with its predictors before they form a single residual.
//
// The word and the byte entry points share everything but the loader
// (residuals*) that fills r and the store (restore*) that inverts it.

// residualsWords fills r with the zig-zag residuals of the 32 words at
// src[base:] and returns their OR. r is unspecified when that is zero.
func residualsWords(r *[32]uint32, src []uint32, base, dim int) uint32 {
	if base == 0 {
		// The stream's first chunk is predicted from the zeros before it
		// (dim <= 32, so no later chunk reaches back that far).
		var first [2 * ChunkWords]uint32
		copy(first[ChunkWords:], src[:ChunkWords])
		return residualsWords(r, first[:], ChunkWords, dim)
	}
	cur, prev := (*[32]uint32)(src[base:]), (*[32]uint32)(src[base-dim:])
	if *cur == *prev {
		return 0
	}
	var or uint32
	for i := range r {
		r[i] = zigzag(cur[i] - prev[i])
		or |= r[i]
	}
	return or
}

// residualsBytes is residualsWords over the words' little-endian bytes;
// base still counts words.
func residualsBytes(r *[32]uint32, src []byte, base, dim int) uint32 {
	if base == 0 {
		var first [2 * 4 * ChunkWords]byte
		copy(first[4*ChunkWords:], src[:4*ChunkWords])
		return residualsBytes(r, first[:], ChunkWords, dim)
	}
	cur, prev := (*[128]byte)(src[4*base:]), (*[128]byte)(src[4*(base-dim):])
	if *cur == *prev {
		return 0
	}
	var or uint32
	for i := range r {
		r[i] = zigzag(binary.LittleEndian.Uint32(cur[4*i:]) - binary.LittleEndian.Uint32(prev[4*i:]))
		or |= r[i]
	}
	return or
}

// putChunk writes the chunk with residuals r, whose OR is or, at
// out[pos:] and returns the position after it. out must have room for an
// incompressible chunk; a region sized by Bound does.
func putChunk(out []byte, pos int, r *[32]uint32, or uint32) int {
	bitmap := bits.Reverse32(or)
	binary.LittleEndian.PutUint32(out[pos:], bitmap)
	pos += 4
	if bitmap == 0 {
		return pos
	}
	if or < 1<<16 {
		// Every residual fits in 16 bits: the distance-16 stage would
		// leave rows 0..15 zero (planes the bitmap does not select) and
		// pack two residuals into each of rows 16..31.
		hi := (*[16]uint32)(r[16:])
		for k := range hi {
			hi[k] |= r[k] << 16
		}
		transposeHalf(hi)
	} else {
		transpose32(r)
	}
	end := pos + 4*bits.OnesCount32(bitmap)
	planes := out[pos:end]
	for b := bitmap; b != 0; b &= b - 1 {
		binary.LittleEndian.PutUint32(planes, r[bits.TrailingZeros32(b)&31])
		planes = planes[4:]
	}
	return end
}

// getChunk reads chunk c at comp[pos:] back into its residuals and
// returns its bitmap and the position after it. The plane bytes are
// checked once, against the bitmap's population count. A zero bitmap
// leaves r as it was: restore* does not read it then.
func getChunk(r *[32]uint32, comp []byte, pos, c int) (uint32, int, error) {
	if pos+4 > len(comp) {
		return 0, pos, fmt.Errorf("%w: truncated bitmap at chunk %d", ErrCorrupt, c)
	}
	bitmap := binary.LittleEndian.Uint32(comp[pos:])
	pos += 4
	if bitmap == 0 {
		return 0, pos, nil
	}
	end := pos + 4*bits.OnesCount32(bitmap)
	if end > len(comp) {
		return 0, pos, fmt.Errorf("%w: truncated plane at chunk %d", ErrCorrupt, c)
	}
	planes := comp[pos:end]
	*r = [32]uint32{}
	for b := bitmap; b != 0; b &= b - 1 {
		r[bits.TrailingZeros32(b)&31] = binary.LittleEndian.Uint32(planes)
		planes = planes[4:]
	}
	if bitmap&0xffff == 0 {
		// Planes 0..15 are absent, so every residual fits in 16 bits:
		// the mirror of putChunk's shortcut, distance-16 stage last.
		hi := (*[16]uint32)(r[16:])
		transposeHalf(hi)
		for k, w := range hi {
			r[k], hi[k] = w>>16, w&0xffff
		}
	} else {
		transpose32(r)
	}
	return bitmap, end, nil
}

// restoreWords writes the 32 words at dst[base:] from their residuals:
// un-zig-zag fused with the prefix sum over the word dim positions back.
// zero says every residual is zero and r is not to be read, which makes
// the chunk a copy of its predictors: the dim words before it, repeated.
func restoreWords(dst []uint32, base, dim int, r *[32]uint32, zero bool) {
	if base == 0 {
		// The stream's first chunk, restored after a chunk of zeros.
		var first [2 * ChunkWords]uint32
		restoreWords(first[:], ChunkWords, dim, r, zero)
		copy(dst, first[ChunkWords:])
		return
	}
	// prev overlaps cur when dim < 32, so both loops must run forward:
	// a word may be predicted by one this chunk has just written.
	cur, prev := (*[32]uint32)(dst[base:]), (*[32]uint32)(dst[base-dim:])
	if zero {
		copy(cur[:dim], prev[:dim])
		for n := dim; n < ChunkWords; n *= 2 {
			copy(cur[n:], cur[:n])
		}
		return
	}
	for i := range cur {
		cur[i] = unzigzag(r[i]) + prev[i]
	}
}

// restoreBytes is restoreWords onto the words' little-endian bytes.
func restoreBytes(dst []byte, base, dim int, r *[32]uint32, zero bool) {
	if base == 0 {
		var first [2 * 4 * ChunkWords]byte
		restoreBytes(first[:], ChunkWords, dim, r, zero)
		copy(dst, first[4*ChunkWords:])
		return
	}
	cur, prev := (*[128]byte)(dst[4*base:]), (*[128]byte)(dst[4*(base-dim):])
	if zero {
		copy(cur[:4*dim], prev[:4*dim])
		for n := 4 * dim; n < 4*ChunkWords; n *= 2 {
			copy(cur[n:], cur[:n])
		}
		return
	}
	for i := range r {
		binary.LittleEndian.PutUint32(cur[4*i:], unzigzag(r[i])+binary.LittleEndian.Uint32(prev[4*i:]))
	}
}

// reserve extends dst by n writable bytes and returns it with the
// position the new bytes start at.
func reserve(dst []byte, n int) ([]byte, int) {
	pos := len(dst)
	return slices.Grow(dst, n)[:pos+n], pos
}

// CompressWords compresses n=len(src) 32-bit words with the given
// dimensionality, appending to dst and returning the extended slice.
func CompressWords(dst []byte, src []uint32, dim int) ([]byte, error) {
	if err := checkDim(dim); err != nil {
		return dst, err
	}
	n := len(src)
	out, pos := reserve(dst, Bound(n))
	var r [32]uint32
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		pos = putChunk(out, pos, &r, residualsWords(&r, src, base, dim))
	}
	// Tail: stored verbatim.
	for _, w := range src[n-n%ChunkWords:] {
		binary.LittleEndian.PutUint32(out[pos:], w)
		pos += 4
	}
	return out[:pos], nil
}

// AppendCompressWords is the scratch-reuse entry point for hot paths: it
// compresses src into dst with no internal temporaries (the transpose
// chunk lives on the stack), so when the caller passes a reused buffer
// with cap(dst)-len(dst) >= Bound(len(src)) the call performs zero heap
// allocations. Output bytes are identical to CompressWords, which shares
// the implementation.
func AppendCompressWords(dst []byte, src []uint32, dim int) ([]byte, error) {
	return CompressWords(dst, src, dim)
}

// AppendCompressBytes is AppendCompressWords over the words' little-endian
// bytes — a message as it sits in a send buffer — and produces the same
// output as converting src to words first. len(src) must be a multiple
// of 4.
func AppendCompressBytes(dst, src []byte, dim int) ([]byte, error) {
	if err := checkDim(dim); err != nil {
		return dst, err
	}
	if len(src)%4 != 0 {
		return dst, fmt.Errorf("%w: %d source bytes", ErrUnaligned, len(src))
	}
	n := len(src) / 4
	out, pos := reserve(dst, Bound(n))
	var r [32]uint32
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		pos = putChunk(out, pos, &r, residualsBytes(&r, src, base, dim))
	}
	pos += copy(out[pos:], src[4*(n-n%ChunkWords):])
	return out[:pos], nil
}

// DecompressWordsInto decompresses comp into exactly len(dst) words,
// overwriting dst in place with no appends and no internal temporaries —
// the zero-allocation counterpart of DecompressWords for callers that
// pre-slice their destination (e.g. parallel partition decode writing
// disjoint ranges of one buffer). dim must match compression time. After
// an error the contents of dst are unspecified.
func DecompressWordsInto(dst []uint32, comp []byte, dim int) error {
	if err := checkDim(dim); err != nil {
		return err
	}
	full := len(dst) / ChunkWords
	var r [32]uint32
	pos := 0
	for c := 0; c < full; c++ {
		bitmap, next, err := getChunk(&r, comp, pos, c)
		if err != nil {
			return err
		}
		pos = next
		restoreWords(dst, c*ChunkWords, dim, &r, bitmap == 0)
	}
	tail := dst[full*ChunkWords:]
	if err := checkTail(comp, pos, len(tail)); err != nil {
		return err
	}
	for i := range tail {
		tail[i] = binary.LittleEndian.Uint32(comp[pos+4*i:])
	}
	return nil
}

// DecompressBytesInto is DecompressWordsInto onto the words' little-endian
// bytes — a receive buffer. len(dst) must be a multiple of 4.
func DecompressBytesInto(dst, comp []byte, dim int) error {
	if err := checkDim(dim); err != nil {
		return err
	}
	if len(dst)%4 != 0 {
		return fmt.Errorf("%w: %d destination bytes", ErrUnaligned, len(dst))
	}
	full := len(dst) / 4 / ChunkWords
	var r [32]uint32
	pos := 0
	for c := 0; c < full; c++ {
		bitmap, next, err := getChunk(&r, comp, pos, c)
		if err != nil {
			return err
		}
		pos = next
		restoreBytes(dst, c*ChunkWords, dim, &r, bitmap == 0)
	}
	tail := dst[4*full*ChunkWords:]
	if err := checkTail(comp, pos, len(tail)/4); err != nil {
		return err
	}
	copy(tail, comp[pos:])
	return nil
}

// checkTail checks that comp[pos:] is exactly the n verbatim tail words.
func checkTail(comp []byte, pos, n int) error {
	if rest := len(comp) - pos; rest < 4*n {
		return fmt.Errorf("%w: truncated tail", ErrCorrupt)
	} else if rest > 4*n {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, rest-4*n)
	}
	return nil
}

// DecompressWords decompresses comp into exactly n words, appending to dst.
// dim must match the value used at compression time.
func DecompressWords(dst []uint32, comp []byte, n, dim int) ([]uint32, error) {
	if err := checkDim(dim); err != nil {
		return dst, err
	}
	if n < 0 {
		n = 0 // no words: comp must be empty
	}
	// No stream is shorter than its bitmaps and tail, so a junk n cannot
	// make this allocate more than 32 times the payload it came with.
	if len(comp) < 4*(n/ChunkWords+n%ChunkWords) {
		return dst, fmt.Errorf("%w: %d bytes cannot hold %d words", ErrCorrupt, len(comp), n)
	}
	start := len(dst)
	out := slices.Grow(dst, n)[:start+n]
	if err := DecompressWordsInto(out[start:], comp, dim); err != nil {
		return dst, err
	}
	return out, nil
}

// CompressFloat32 compresses a float32 slice. The float bits are processed
// as 32-bit words; the transform is fully lossless.
func CompressFloat32(dst []byte, src []float32, dim int) ([]byte, error) {
	words := make([]uint32, len(src))
	for i, f := range src {
		words[i] = math.Float32bits(f)
	}
	return CompressWords(dst, words, dim)
}

// DecompressFloat32 decompresses comp into exactly n float32 values.
func DecompressFloat32(dst []float32, comp []byte, n, dim int) ([]float32, error) {
	words, err := DecompressWords(make([]uint32, 0, n), comp, n, dim)
	if err != nil {
		return dst, err
	}
	for _, w := range words {
		dst = append(dst, math.Float32frombits(w))
	}
	return dst, nil
}

// CompressedSize returns the compressed size in bytes of src at the given
// dimensionality without materializing the output buffer — and without
// transposing anything: a chunk costs its bitmap plus one plane word per
// set bit of its residual OR.
func CompressedSize(src []uint32, dim int) (int, error) {
	if err := checkDim(dim); err != nil {
		return 0, err
	}
	n := len(src)
	size := n % ChunkWords * 4
	var r [32]uint32
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		size += 4 + 4*bits.OnesCount32(residualsWords(&r, src, base, dim))
	}
	return size, nil
}

// CompressedSizeBytes is CompressedSize over the words' little-endian
// bytes. len(src) must be a multiple of 4.
func CompressedSizeBytes(src []byte, dim int) (int, error) {
	if err := checkDim(dim); err != nil {
		return 0, err
	}
	if len(src)%4 != 0 {
		return 0, fmt.Errorf("%w: %d source bytes", ErrUnaligned, len(src))
	}
	n := len(src) / 4
	size := n % ChunkWords * 4
	var r [32]uint32
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		size += 4 + 4*bits.OnesCount32(residualsBytes(&r, src, base, dim))
	}
	return size, nil
}

// Ratio reports the compression ratio (original/compressed) of src at the
// given dimensionality.
func Ratio(src []uint32, dim int) (float64, error) {
	cs, err := CompressedSize(src, dim)
	if err != nil {
		return 0, err
	}
	if cs == 0 {
		return 1, nil
	}
	return float64(len(src)*4) / float64(cs), nil
}

// TuneDim trials dimensionalities 1..maxDim on src and returns the one with
// the smallest compressed size, reproducing the paper's "fine-tuned
// dimensionality" per dataset (Table III). Ties favor the smaller dim.
func TuneDim(src []uint32, maxDim int) (int, error) {
	if maxDim < 1 || maxDim > MaxDim {
		return 0, checkDim(maxDim)
	}
	best, bestSize := 1, int(^uint(0)>>1)
	for d := 1; d <= maxDim; d++ {
		cs, err := CompressedSize(src, d)
		if err != nil {
			return 0, err
		}
		if cs < bestSize {
			best, bestSize = d, cs
		}
	}
	return best, nil
}

// TuneDimFloat32 is TuneDim over float32 data.
func TuneDimFloat32(src []float32, maxDim int) (int, error) {
	words := make([]uint32, len(src))
	for i, f := range src {
		words[i] = math.Float32bits(f)
	}
	return TuneDim(words, maxDim)
}
