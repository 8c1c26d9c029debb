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
//     one warp in the CUDA implementation.) The host coder holds the 32
//     rows as 16 uint64, two rows to a word, so every stage of the
//     block-swap network moves two rows per operation, and runs the last
//     three stages on registers. A chunk of zero residuals skips the
//     transpose: it decodes as its predictors, repeated. So does a chunk
//     with one nonzero residual, in row i: each of its planes is the one
//     bit 1<<(31-i), and the residual is the bitmap reversed.
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
	"bytes"
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

// The transpose works on a chunk's 32 rows held as 16 uint64: row k in the
// low half of word k, row k+16 in the high half. It is the Hacker's Delight
// block-swap network, MSB-first — bit j of row i lands at bit 31-i of plane
// 31-j (TestTransposeMovesBits) — so afterwards word p holds plane p in its
// low half and plane p+16 in its high half, and applying it twice is the
// identity. The distance-16 stage swaps between the halves of one word;
// the distance-8 to 1 stages pair whole words, and their masks have zero
// top bits in each half, so no bit crosses from one half to the other. The
// stages commute (each swaps one bit of the row index with the same bit
// of the column index), so any order gives the transpose.

// Masks of the distance-8, 4, 2 and 1 stages, one copy per half.
const (
	mask8 = 0x00ff00ff_00ff00ff
	mask4 = 0x0f0f0f0f_0f0f0f0f
	mask2 = 0x33333333_33333333
	mask1 = 0x55555555_55555555
)

// swap is one step of the network across two words: the bits of a under
// m trade places with the bits of b under m<<s.
func swap(a, b uint64, s uint, m uint64) (uint64, uint64) {
	t := (a ^ b>>s) & m
	return a ^ t, b ^ t<<s
}

// fold is one step of the network inside a word: the bits under m trade
// places with the bits under m<<s.
func fold(w uint64, s uint, m uint64) uint64 {
	t := (w ^ w>>s) & m
	return w ^ t ^ t<<s
}

// transpose64 transposes the 32 rows held in w in place.
func transpose64(w *[16]uint64) {
	for k := 0; k < 8; k++ {
		w[k], w[k+8] = swap(fold(w[k], 48, 0xffff), fold(w[k+8], 48, 0xffff), 8, mask8)
	}
	transpose8((*[8]uint64)(w[:8]))
	transpose8((*[8]uint64)(w[8:]))
}

// transpose8 runs the distance-4, 2 and 1 stages on eight words,
// straight-line on locals so that no step goes through memory.
func transpose8(a *[8]uint64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	a0, a4 = swap(a0, a4, 4, mask4)
	a1, a5 = swap(a1, a5, 4, mask4)
	a2, a6 = swap(a2, a6, 4, mask4)
	a3, a7 = swap(a3, a7, 4, mask4)
	a0, a2 = swap(a0, a2, 2, mask2)
	a1, a3 = swap(a1, a3, 2, mask2)
	a4, a6 = swap(a4, a6, 2, mask2)
	a5, a7 = swap(a5, a7, 2, mask2)
	a0, a1 = swap(a0, a1, 1, mask1)
	a2, a3 = swap(a2, a3, 1, mask1)
	a4, a5 = swap(a4, a5, 1, mask1)
	a6, a7 = swap(a6, a7, 1, mask1)
	*a = [8]uint64{a0, a1, a2, a3, a4, a5, a6, a7}
}

// When every residual fits in 16 bits, the distance-16 stage leaves rows
// 0..15 zero (planes the bitmap does not select) and packs rows k and k+16
// into row k+16 as r[k+16] | r[k]<<16. The chunk coder then runs the rest
// of the network on those 16 rows alone, held as 8 words — row k+16 low,
// row k+24 high — where the distance-8 stage is the one inside a word and
// word q ends up holding planes q+16 and q+24. halfPack and halfUnpack
// convert between that form and the 16-word one.

// halfPack packs w, whose rows are all below 1<<16, into the 8-word form
// and runs the distance-8 stage.
func halfPack(x *[8]uint64, w *[16]uint64) {
	for k := range x {
		lo, hi := w[k], w[k+8]
		x[k] = fold(lo>>32|lo<<16&0xffff_0000|hi&^0xffff_ffff|hi<<48, 40, 0x00ff00ff)
	}
}

// halfUnpack is halfPack's inverse, distance-8 stage first.
func halfUnpack(w *[16]uint64, x *[8]uint64) {
	for k, v := range x {
		v = fold(v, 40, 0x00ff00ff)
		w[k] = v>>16&0xffff | v&0xffff<<32
		w[k+8] = v>>48 | v&0xffff_0000_0000
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
// (residuals*) that fills the rows and the stores (restore*, fill*) that
// invert it.

// residualsWords fills w with the zig-zag residuals of the 32 words at
// src[base:], paired as transpose64 wants them, and returns their OR. w is
// unspecified when that is zero.
func residualsWords(w *[16]uint64, src []uint32, base, dim int) uint32 {
	if base == 0 {
		// The stream's first chunk is predicted from the zeros before it
		// (dim <= 32, so no later chunk reaches back that far).
		var first [2 * ChunkWords]uint32
		copy(first[ChunkWords:], src[:ChunkWords])
		return residualsWords(w, first[:], ChunkWords, dim)
	}
	cur, prev := (*[32]uint32)(src[base:]), (*[32]uint32)(src[base-dim:])
	if *cur == *prev {
		return 0
	}
	var or uint64
	for k := range w {
		w[k] = uint64(zigzag(cur[k]-prev[k])) | uint64(zigzag(cur[k+16]-prev[k+16]))<<32
		or |= w[k]
	}
	return uint32(or) | uint32(or>>32)
}

// residualsBytes is residualsWords over the words' little-endian bytes;
// base still counts words.
func residualsBytes(w *[16]uint64, src []byte, base, dim int) uint32 {
	if base == 0 {
		var first [2 * 4 * ChunkWords]byte
		copy(first[4*ChunkWords:], src[:4*ChunkWords])
		return residualsBytes(w, first[:], ChunkWords, dim)
	}
	cur, prev := (*[128]byte)(src[4*base:]), (*[128]byte)(src[4*(base-dim):])
	if *cur == *prev {
		return 0
	}
	var or uint64
	for k := range w {
		lo := zigzag(binary.LittleEndian.Uint32(cur[4*k:]) - binary.LittleEndian.Uint32(prev[4*k:]))
		hi := zigzag(binary.LittleEndian.Uint32(cur[4*k+64:]) - binary.LittleEndian.Uint32(prev[4*k+64:]))
		w[k] = uint64(lo) | uint64(hi)<<32
		or |= w[k]
	}
	return uint32(or) | uint32(or>>32)
}

// loneRow returns the one nonzero row of w, or -1 when two or more rows
// are nonzero. It stops at the first word that holds two nonzero rows, so
// a dense chunk costs one load.
func loneRow(w *[16]uint64) int {
	row := -1
	for k, v := range w {
		if v == 0 {
			continue
		}
		if row >= 0 || uint32(v) != 0 && v>>32 != 0 {
			return -1
		}
		row = k
		if uint32(v) == 0 {
			row += 16
		}
	}
	return row
}

// putChunk writes the chunk with rows w, whose OR is or, at out[pos:] and
// returns the position after it. out must have room for an incompressible
// chunk; a region sized by Bound does.
func putChunk(out []byte, pos int, w *[16]uint64, or uint32) int {
	bitmap := bits.Reverse32(or)
	binary.LittleEndian.PutUint32(out[pos:], bitmap)
	pos += 4
	if bitmap == 0 {
		return pos
	}
	end := pos + 4*bits.OnesCount32(bitmap)
	planes := out[pos:end]
	if i := loneRow(w); i >= 0 {
		// Every plane the bitmap selects is the one bit of row i.
		for p := uint32(1) << (31 - i); len(planes) > 0; planes = planes[4:] {
			binary.LittleEndian.PutUint32(planes, p)
		}
		return end
	}
	if or < 1<<16 {
		var x [8]uint64
		halfPack(&x, w)
		transpose8(&x)
		for b := bitmap; b != 0; b &= b - 1 {
			p := uint(bits.TrailingZeros32(b))
			binary.LittleEndian.PutUint32(planes, uint32(x[p&7]>>(p&8<<2)))
			planes = planes[4:]
		}
		return end
	}
	transpose64(w)
	for b := bitmap; b != 0; b &= b - 1 {
		p := uint(bits.TrailingZeros32(b))
		binary.LittleEndian.PutUint32(planes, uint32(w[p&15]>>(p&16<<1)))
		planes = planes[4:]
	}
	return end
}

// getChunk reads chunk c, whose bitmap at comp[pos:] is nonzero, back into
// its rows and returns the position after it. The plane bytes are checked
// once, against the bitmap's population count.
func getChunk(w *[16]uint64, comp []byte, pos, c int) (int, error) {
	if pos+4 > len(comp) {
		return pos, fmt.Errorf("%w: truncated bitmap at chunk %d", ErrCorrupt, c)
	}
	bitmap := binary.LittleEndian.Uint32(comp[pos:])
	pos += 4
	end := pos + 4*bits.OnesCount32(bitmap)
	if end > len(comp) {
		return pos, fmt.Errorf("%w: truncated plane at chunk %d", ErrCorrupt, c)
	}
	planes := comp[pos:end]
	p, last := binary.LittleEndian.Uint32(planes), binary.LittleEndian.Uint32(planes[len(planes)-4:])
	if p != 0 && p&(p-1)|(p^last) == 0 && bytes.Equal(planes[4:], planes[:len(planes)-4]) {
		// Every plane is the one bit 1<<(31-i): the lone row i is the
		// bitmap reversed. A zero plane word cannot get here. The last
		// plane, the densest, turns a dense chunk away in one branch.
		i := 31 - uint(bits.TrailingZeros32(p))
		*w = [16]uint64{}
		w[i&15] = uint64(bits.Reverse32(bitmap)) << (i & 16 << 1)
		return end, nil
	}
	if bitmap&0xffff == 0 {
		// Planes 0..15 are absent, so every residual fits in 16 bits:
		// the mirror of putChunk's half path.
		var x [8]uint64
		for b := bitmap; b != 0; b &= b - 1 {
			p := uint(bits.TrailingZeros32(b))
			x[p&7] |= uint64(binary.LittleEndian.Uint32(planes)) << (p & 8 << 2)
			planes = planes[4:]
		}
		transpose8(&x)
		halfUnpack(w, &x)
		return end, nil
	}
	*w = [16]uint64{}
	for b := bitmap; b != 0; b &= b - 1 {
		p := uint(bits.TrailingZeros32(b))
		w[p&15] |= uint64(binary.LittleEndian.Uint32(planes)) << (p & 16 << 1)
		planes = planes[4:]
	}
	transpose64(w)
	return end, nil
}

// zeroRun counts the zero bitmaps at comp[pos:], up to limit of them: a
// run of chunks that each repeat their predictors.
func zeroRun(comp []byte, pos, limit int) int {
	n := 0
	for n < limit && pos+4 <= len(comp) && binary.LittleEndian.Uint32(comp[pos:]) == 0 {
		n++
		pos += 4
	}
	return n
}

// restoreWords writes the 32 words at dst[base:] from their rows:
// un-zig-zag fused with the prefix sum over the word dim positions back.
func restoreWords(dst []uint32, base, dim int, w *[16]uint64) {
	if base == 0 {
		// The stream's first chunk, restored after a chunk of zeros.
		var first [2 * ChunkWords]uint32
		restoreWords(first[:], ChunkWords, dim, w)
		copy(dst, first[ChunkWords:])
		return
	}
	// prev overlaps cur when dim < 32, so the words must be written in
	// order: a word may be predicted by one this chunk has just written.
	cur, prev := (*[32]uint32)(dst[base:]), (*[32]uint32)(dst[base-dim:])
	for k, v := range w {
		cur[k] = unzigzag(uint32(v)) + prev[k]
	}
	for k, v := range w {
		cur[k+16] = unzigzag(uint32(v>>32)) + prev[k+16]
	}
}

// restoreBytes is restoreWords onto the words' little-endian bytes.
func restoreBytes(dst []byte, base, dim int, w *[16]uint64) {
	if base == 0 {
		var first [2 * 4 * ChunkWords]byte
		restoreBytes(first[:], ChunkWords, dim, w)
		copy(dst, first[4*ChunkWords:])
		return
	}
	cur, prev := (*[128]byte)(dst[4*base:]), (*[128]byte)(dst[4*(base-dim):])
	for k, v := range w {
		binary.LittleEndian.PutUint32(cur[4*k:], unzigzag(uint32(v))+binary.LittleEndian.Uint32(prev[4*k:]))
	}
	for k, v := range w {
		binary.LittleEndian.PutUint32(cur[4*k+64:], unzigzag(uint32(v>>32))+binary.LittleEndian.Uint32(prev[4*k+64:]))
	}
}

// fill writes run, which starts right after pattern in the same buffer, as
// pattern repeated: a run of chunks with every residual zero. Each copy
// doubles what is written, so a long run costs a few large copies and no
// step reads a word written in the same step.
func fill[T uint32 | byte](run, pattern []T) {
	for n := copy(run, pattern); n < len(run); {
		n += copy(run[n:], run[:n])
	}
}

// fillWords writes the n chunks at dst[base:] as copies of their
// predictors: the dim words before base, repeated, or zeros at the start
// of the stream.
func fillWords(dst []uint32, base, n, dim int) {
	run := dst[base : base+n*ChunkWords]
	if base == 0 {
		clear(run)
		return
	}
	fill(run, dst[base-dim:base])
}

// fillBytes is fillWords onto the words' little-endian bytes. At dim 1
// the pattern is one word, loaded once and stored two at a time.
func fillBytes(dst []byte, base, n, dim int) {
	run := dst[4*base : 4*(base+n*ChunkWords)]
	switch {
	case base == 0:
		clear(run)
	case dim == 1:
		p := uint64(binary.LittleEndian.Uint32(dst[4*base-4:])) * (1<<32 | 1)
		c := (*[128]byte)(run)
		for i := 0; i < 128; i += 8 {
			binary.LittleEndian.PutUint64(c[i:], p)
		}
		fill(run[128:], run[:128])
	default:
		fill(run, dst[4*(base-dim):4*base])
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
	var w [16]uint64
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		pos = putChunk(out, pos, &w, residualsWords(&w, src, base, dim))
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
	var w [16]uint64
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		pos = putChunk(out, pos, &w, residualsBytes(&w, src, base, dim))
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
	var w [16]uint64
	pos := 0
	for c := 0; c < full; {
		if run := zeroRun(comp, pos, full-c); run > 0 {
			fillWords(dst, c*ChunkWords, run, dim)
			c += run
			pos += 4 * run
			continue
		}
		next, err := getChunk(&w, comp, pos, c)
		if err != nil {
			return err
		}
		restoreWords(dst, c*ChunkWords, dim, &w)
		c++
		pos = next
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
	var w [16]uint64
	pos := 0
	for c := 0; c < full; {
		if run := zeroRun(comp, pos, full-c); run > 0 {
			fillBytes(dst, c*ChunkWords, run, dim)
			c += run
			pos += 4 * run
			continue
		}
		next, err := getChunk(&w, comp, pos, c)
		if err != nil {
			return err
		}
		restoreBytes(dst, c*ChunkWords, dim, &w)
		c++
		pos = next
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
	var w [16]uint64
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		size += 4 + 4*bits.OnesCount32(residualsWords(&w, src, base, dim))
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
	var w [16]uint64
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		size += 4 + 4*bits.OnesCount32(residualsBytes(&w, src, base, dim))
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
