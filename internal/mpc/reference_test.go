package mpc

import (
	"encoding/binary"
	"fmt"
)

// The loop coder mpc.go shipped before the chunk-coder fast path, kept
// verbatim (only the names carry a ref prefix) as the differential oracle:
// TestFastMatchesReference and FuzzMPCDifferential hold the production
// coder to these bytes, these decoded words and this error/no-error
// outcome. It is the format's definition; do not optimize it.

// refTranspose32 performs an in-place 32x32 bit-matrix transpose using the
// classic Hacker's Delight block-swap network. After the call, word j holds
// bit plane j of the original words (bit i of output word j = bit j of
// input word i).
func refTranspose32(a *[32]uint32) {
	var m uint32 = 0x0000ffff
	for j := uint(16); j != 0; j >>= 1 {
		for k := 0; k < 32; k = (k + int(j) + 1) &^ int(j) {
			t := (a[k] ^ (a[k+int(j)] >> j)) & m
			a[k] ^= t
			a[k+int(j)] ^= t << j
		}
		// The mask for the next (halved) swap distance.
		m ^= m << (j >> 1)
	}
}

// refCompressWords compresses n=len(src) 32-bit words with the given
// dimensionality, appending to dst and returning the extended slice.
func refCompressWords(dst []byte, src []uint32, dim int) ([]byte, error) {
	if err := checkDim(dim); err != nil {
		return dst, err
	}
	n := len(src)
	var chunk [32]uint32
	for base := 0; base+ChunkWords <= n; base += ChunkWords {
		// Stage 1+2: residuals for this chunk. The predictor may
		// reach into the previous chunk (base+i-dim >= 0).
		for i := 0; i < ChunkWords; i++ {
			idx := base + i
			var pred uint32
			if idx >= dim {
				pred = src[idx-dim]
			}
			chunk[i] = zigzag(src[idx] - pred)
		}
		// Stage 3: bit transpose.
		refTranspose32(&chunk)
		// Stage 4: zero-word elimination.
		var bitmap uint32
		for j := 0; j < ChunkWords; j++ {
			if chunk[j] != 0 {
				bitmap |= 1 << uint(j)
			}
		}
		dst = binary.LittleEndian.AppendUint32(dst, bitmap)
		for j := 0; j < ChunkWords; j++ {
			if chunk[j] != 0 {
				dst = binary.LittleEndian.AppendUint32(dst, chunk[j])
			}
		}
	}
	// Tail: stored verbatim.
	for i := n - n%ChunkWords; i < n; i++ {
		dst = binary.LittleEndian.AppendUint32(dst, src[i])
	}
	return dst, nil
}

// refDecompressWordsInto decompresses comp into exactly len(dst) words,
// overwriting dst in place. dim must match compression time.
func refDecompressWordsInto(dst []uint32, comp []byte, dim int) error {
	if err := checkDim(dim); err != nil {
		return err
	}
	n := len(dst)
	var chunk [32]uint32
	pos := 0
	full := n / ChunkWords
	for c := 0; c < full; c++ {
		if pos+4 > len(comp) {
			return fmt.Errorf("%w: truncated bitmap at chunk %d", ErrCorrupt, c)
		}
		bitmap := binary.LittleEndian.Uint32(comp[pos:])
		pos += 4
		for j := 0; j < ChunkWords; j++ {
			if bitmap&(1<<uint(j)) != 0 {
				if pos+4 > len(comp) {
					return fmt.Errorf("%w: truncated plane at chunk %d", ErrCorrupt, c)
				}
				chunk[j] = binary.LittleEndian.Uint32(comp[pos:])
				pos += 4
			} else {
				chunk[j] = 0
			}
		}
		refTranspose32(&chunk)
		base := c * ChunkWords
		for i := 0; i < ChunkWords; i++ {
			idx := base + i
			var pred uint32
			if idx >= dim {
				pred = dst[idx-dim]
			}
			dst[idx] = unzigzag(chunk[i]) + pred
		}
	}
	for i := full * ChunkWords; i < n; i++ {
		if pos+4 > len(comp) {
			return fmt.Errorf("%w: truncated tail", ErrCorrupt)
		}
		dst[i] = binary.LittleEndian.Uint32(comp[pos:])
		pos += 4
	}
	if pos != len(comp) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(comp)-pos)
	}
	return nil
}
