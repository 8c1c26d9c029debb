package mpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// loneWords returns chunks whole chunks and a three-word tail whose
// zig-zag residuals at dim are zero but for row of chunk at, which is r.
// The chunks before at draw random residuals.
func loneWords(chunks, at, row int, r uint32, dim int, rng *rand.Rand) []uint32 {
	res := make([]uint32, chunks*ChunkWords+3)
	for k := range res[:at*ChunkWords] {
		res[k] = rng.Uint32()
	}
	res[at*ChunkWords+row] = r
	return integrate(res, dim)
}

// integrate returns the words whose zig-zag residuals at dim are res.
func integrate(res []uint32, dim int) []uint32 {
	src := make([]uint32, len(res))
	for k, v := range res {
		var pred uint32
		if k >= dim {
			pred = src[k-dim]
		}
		src[k] = unzigzag(v) + pred
	}
	return src
}

// nearLone returns the wire form of one chunk: bitmap, then planes.
func nearLone(bitmap uint32, planes ...uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, bitmap)
	for _, p := range planes {
		b = binary.LittleEndian.AppendUint32(b, p)
	}
	return b
}

// repeat returns n copies of p.
func repeat(p uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = p
	}
	return out
}

// TestLoneChunkMatchesReference holds the lone-residual case of the chunk
// coder — one nonzero residual, coded without the transpose as one plane
// word 1<<(31-row) per set bit and decoded as Reverse32(bitmap) — to the
// loop coder: every row, residuals at both ends of the word and between,
// the stream's first chunk and a later one, through both entry points.
// Then streams that look lone but are not must leave the shortcut and
// decode as the loop coder does.
func TestLoneChunkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	residuals := []struct {
		name string
		r    func() uint32
	}{
		{"one-bit", func() uint32 { return 1 << uint(rng.Intn(32)) }},
		{"msb", func() uint32 { return 0x80000000 }},
		{"all-ones", func() uint32 { return 0xffffffff }},
		{"random", func() uint32 { return rng.Uint32() | 1<<uint(rng.Intn(32)) }},
		{"random-16-bit", func() uint32 { return 1 + rng.Uint32()%0xffff }},
	}
	for _, dim := range []int{1, 2, 5, 32} {
		for _, at := range []int{0, 2} {
			for _, res := range residuals {
				for row := 0; row < ChunkWords; row++ {
					r := res.r()
					src := loneWords(3, at, row, r, dim, rng)
					checkAgainstReference(t, src, dim, nil, rng)

					// The chunk on the wire is the identity the shortcut relies on.
					comp, _ := CompressWords(nil, src, dim)
					before, _ := CompressWords(nil, src[:at*ChunkWords], dim)
					want := nearLone(bits.Reverse32(r), repeat(1<<(31-row), bits.OnesCount32(r))...)
					if got := comp[len(before):]; !bytes.HasPrefix(got, want) {
						t.Fatalf("dim %d chunk %d row %d residual %08x: wire %x, want %x", dim, at, row, r, got[:len(want)], want)
					}
				}
			}
		}
	}

	// Two nonzero residuals, in one paired word or in two: the network's.
	for _, rows := range [][2]int{{0, 16}, {3, 7}, {31, 30}, {5, 21}, {0, 31}} {
		for _, dim := range []int{1, 5} {
			res := make([]uint32, 2*ChunkWords+3)
			res[ChunkWords+rows[0]], res[ChunkWords+rows[1]] = 1<<4, 0x80000001
			checkAgainstReference(t, integrate(res, dim), dim, nil, rng)
		}
	}

	// Near-lone chunks: each must fall through to the network.
	lone := nearLone(1<<30|1<<2, 1<<12, 1<<12)
	for _, c := range []struct {
		name  string
		chunk []byte
		tail  int // words after the chunk
	}{
		{"zero-planes", nearLone(0x00f0_0001, repeat(0, 5)...), 3},
		{"one-zero-plane", nearLone(1<<7, 0), 3},
		{"two-bit-planes", nearLone(0x8000_1101, repeat(1<<31|1<<4, 4)...), 3},
		{"last-plane-differs", nearLone(0x0001_0f00, 1<<9, 1<<9, 1<<9, 1<<9, 1<<10), 3},
		{"middle-plane-differs", nearLone(0xff00_0000, 1<<3, 1<<3, 1<<3, 1<<3, 1<<2, 1<<3, 1<<3, 1<<3), 3},
		{"first-plane-differs", nearLone(0x0000_0007, 1<<30, 1<<29, 1<<29), 3},
		{"truncated-last-plane", nearLone(0x0003_0300, repeat(1<<20, 4)...)[:4+4*4-2], 0},
		{"lone", nearLone(0x0003_0300, repeat(1<<20, 4)...), 3},
	} {
		tail := nearLone(0, repeat(7, c.tail)...)[4:]
		for _, dim := range []int{1, 2, 5, 32} {
			// The chunk first in the stream, and after a zero chunk and a
			// lone one.
			for chunks, stream := range map[int][]byte{
				1: append(append([]byte(nil), c.chunk...), tail...),
				3: append(append(append(make([]byte, 4), lone...), c.chunk...), tail...),
			} {
				t.Run(fmt.Sprintf("%s/dim=%d/chunks=%d", c.name, dim, chunks), func(t *testing.T) {
					checkDecode(t, stream, chunks*ChunkWords+c.tail, dim)
				})
			}
		}
	}
}
