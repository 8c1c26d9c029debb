package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"mpicomp/internal/gpusim"
	"mpicomp/internal/mpc"
	"mpicomp/internal/simtime"
	"mpicomp/internal/zfp"
)

// addSpecials are float32 operands whose sums need more than "the same
// float": NaNs with payloads and signs, infinities, denormals, both zeros
// and the extremes.
var addSpecials = []uint32{
	0x00000000, 0x80000000, 0x00000001, 0x807fffff, 0x3f800000, 0xff7fffff,
	0x7f800000, 0xff800000, 0x7fc00000, 0xffc00000, 0x7fc12345, 0x7fa00001,
}

// addWords returns n little-endian float32 words: a smooth walk (what the
// codecs compress well) with, when specials is set, every addSpecials value
// planted along the way.
func addWords(n int, seed int64, specials bool) []byte {
	b := FloatsToBytes(nil, smooth(n, seed))
	for i := 0; specials && i < n; i += 7 {
		binary.LittleEndian.PutUint32(b[4*i:], addSpecials[(i/7+int(seed))%len(addSpecials)])
	}
	return b
}

// mpcPayload compresses src the way a receiver with parts partitions
// expects it: one MPC stream per splitWordsInto range.
func mpcPayload(t testing.TB, src []byte, dim, parts int) ([]byte, Header) {
	t.Helper()
	hdr := Header{Algo: AlgoMPC, Compressed: true, OrigBytes: len(src), Dim: dim}
	var payload []byte
	for _, rg := range splitWordsInto(nil, len(src)/4, parts) {
		before := len(payload)
		var err error
		if payload, err = mpc.AppendCompressBytes(payload, src[4*rg[0]:4*rg[1]], dim); err != nil {
			t.Fatal(err)
		}
		hdr.PartBytes = append(hdr.PartBytes, len(payload)-before)
	}
	hdr.CompBytes = len(payload)
	return payload, hdr
}

func zfpPayload(t testing.TB, src []byte, rate int) ([]byte, Header) {
	t.Helper()
	payload, err := zfp.AppendCompressBytes(nil, src, rate)
	if err != nil {
		t.Fatal(err)
	}
	return payload, Header{Algo: AlgoZFP, Compressed: true, OrigBytes: len(src), CompBytes: len(payload), Rate: rate}
}

func rawPayload(src []byte) ([]byte, Header) {
	return src, Header{Algo: AlgoNone, OrigBytes: len(src), CompBytes: len(src)}
}

// addPair is two engines of one configuration: the oracle decodes, the
// other decodes into the sum. Both see the same calls, so their clocks and
// phase totals must agree after every one.
type addPair struct {
	oracle, eng *Engine
	oclk, clk   *simtime.Clock
}

func newAddPair(t testing.TB, cfg Config) addPair {
	oracle, _, oclk := newTestEngine(t, cfg)
	eng, _, clk := newTestEngine(t, cfg)
	return addPair{oracle, eng, oclk, clk}
}

// check holds DecompressAdd at packed offset off of a copy of acc to its
// definition: Decompress into a fresh buffer, then AddFloat32s into acc —
// the same error or none, the same bits (with sum_test.go's NaN+NaN rule:
// the sum is one of the two operands, quieted), not a byte written outside
// [off, off+OrigBytes), and the same simulated time, phases and counters.
func (p addPair) check(t testing.TB, label string, hdr Header, payload, acc []byte, off int) {
	t.Helper()
	dec := &gpusim.Buffer{Data: make([]byte, hdr.OrigBytes), Loc: gpusim.Device, Dev: p.oracle.Device()}
	werr := p.oracle.Decompress(p.oclk, hdr, payload, dec)
	want := append([]byte(nil), acc...)
	if werr == nil {
		AddFloat32s(want[off:off+hdr.OrigBytes], dec.Data)
	}
	got := &gpusim.Buffer{Data: append([]byte(nil), acc...), Loc: gpusim.Device, Dev: p.eng.Device()}
	err := p.eng.DecompressAdd(p.clk, hdr, payload, got, off)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: DecompressAdd error %v, Decompress error %v", label, err, werr)
	}
	if p.oclk.Now() != p.clk.Now() || p.oracle.Stats != p.eng.Stats || p.oracle.Decompressions != p.eng.Decompressions {
		t.Fatalf("%s: simulated side differs: clock %v vs %v, %d vs %d decompressions", label,
			p.clk.Now(), p.oclk.Now(), p.eng.Decompressions, p.oracle.Decompressions)
	}
	end := off + hdr.OrigBytes
	if !bytes.Equal(got.Data[:off], acc[:off]) || !bytes.Equal(got.Data[end:], acc[end:]) {
		t.Fatalf("%s: bytes outside [%d, %d) were written", label, off, end)
	}
	if err != nil {
		return
	}
	for i := off; i < end; i += 4 {
		g, w := binary.LittleEndian.Uint32(got.Data[i:]), binary.LittleEndian.Uint32(want[i:])
		a, b := binary.LittleEndian.Uint32(acc[i:]), binary.LittleEndian.Uint32(dec.Data[i-off:])
		if isNaN32(a) && isNaN32(b) {
			if g != a|0x00400000 && g != b|0x00400000 {
				t.Fatalf("%s: word %d = %08x, want the quieted form of %08x or %08x", label, (i-off)/4, g, a, b)
			}
			continue
		}
		if g != w {
			t.Fatalf("%s: word %d = %08x + %08x = %08x, decode-then-add gives %08x", label, (i-off)/4, a, b, g, w)
		}
	}
}

func isNaN32(x uint32) bool { return x&0x7fffffff > 0x7f800000 }

// TestDecompressAddMatchesDecompressThenAdd is the add landing's
// differential test over MPC dims 1-32 at 1/2/4/8 partitions on lengths
// that are not whole 32-word chunks, ZFP rates 4-32 (a few of them across
// a chunk-row boundary), uncompressed payloads, nonzero offsets and worker
// counts 1, 2 and 8.
func TestDecompressAddMatchesDecompressThenAdd(t *testing.T) {
	for _, workers := range workerCounts {
		p := newAddPair(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: workers})
		for _, words := range []int{1, 37, 1000, 4096 + 5} {
			src := addWords(words, int64(words), true)
			for _, off := range []int{0, 4 * 3} {
				acc := addWords(words+5, int64(words+1), true)
				for dim := 1; dim <= 32; dim++ {
					for _, parts := range []int{1, 2, 4, 8} {
						payload, hdr := mpcPayload(t, src, dim, parts)
						p.check(t, fmt.Sprintf("w%d mpc words=%d dim=%d parts=%d off=%d", workers, words, dim, parts, off), hdr, payload, acc, off)
					}
				}
				payload, hdr := rawPayload(src)
				p.check(t, fmt.Sprintf("w%d raw words=%d off=%d", workers, words, off), hdr, payload, acc, off)
			}
		}
		src, acc := addWords(1005, 3, false), addWords(1007, 4, false)
		for rate := 4; rate <= 32; rate++ {
			payload, hdr := zfpPayload(t, src, rate)
			p.check(t, fmt.Sprintf("w%d zfp rate=%d", workers, rate), hdr, payload, acc, 8)
		}
		// Two chunk rows, the second ragged.
		words := zfpChunkValues + 1000
		src, acc = addWords(words, 5, false), addWords(words+2, 6, false)
		for _, rate := range []int{4, 8, 16, 32} {
			payload, hdr := zfpPayload(t, src, rate)
			p.check(t, fmt.Sprintf("w%d zfp rows=2 rate=%d", workers, rate), hdr, payload, acc, 8)
		}
	}
}

// TestDecompressAddRefusesPartialWords: a message that is not whole words
// has no sum, and nothing is written.
func TestDecompressAddRefusesPartialWords(t *testing.T) {
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC})
	payload, hdr := rawPayload([]byte{1, 2, 3, 4, 5, 6})
	acc := &gpusim.Buffer{Data: make([]byte, 8), Loc: gpusim.Device, Dev: dev}
	if err := e.DecompressAdd(clk, hdr, payload, acc, 0); err == nil || !bytes.Equal(acc.Data, make([]byte, 8)) {
		t.Fatalf("a 6-byte message added (err %v, acc %v)", err, acc.Data)
	}
}

// TestDecompressAddFailedPartAddsNothing: with one MPC partition truncated,
// the call fails, the failed partition's words keep their value and the
// others hold their sum exactly once.
func TestDecompressAddFailedPartAddsNothing(t *testing.T) {
	src, acc := addWords(1000, 1, false), addWords(1000, 2, false)
	payload, hdr := mpcPayload(t, src, 1, 2)
	cut := hdr.PartBytes[0]
	payload = append(payload[:cut:cut], payload[cut:len(payload)-1]...)
	hdr.PartBytes[1]--
	hdr.CompBytes--
	e, dev, clk := newTestEngine(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 2})
	got := &gpusim.Buffer{Data: append([]byte(nil), acc...), Loc: gpusim.Device, Dev: dev}
	if err := e.DecompressAdd(clk, hdr, payload, got, 0); err == nil {
		t.Fatal("a truncated partition decoded")
	}
	rg := splitWordsInto(nil, 1000, 2)
	want := append([]byte(nil), acc...)
	AddFloat32s(want[:4*rg[0][1]], src[:4*rg[0][1]])
	if !bytes.Equal(got.Data, want) {
		t.Fatal("after a failed partition, the accumulator is not the first partition's sum and the second's old words")
	}
}

// FuzzDecompressAdd runs addPair.check on arbitrary words under a
// codec, partition count or rate, offset and worker count drawn from the
// input, with one payload byte optionally flipped (both forms must then
// fail alike or decode alike).
func FuzzDecompressAdd(f *testing.F) {
	f.Add([]byte{0, 0, 0x80, 0x3f, 0, 0, 0, 0x40, 0, 0, 0xc0, 0x7f}, uint8(0), uint8(1), uint8(1), uint8(0), uint16(0))
	f.Add(addWords(300, 5, true), uint8(0), uint8(7), uint8(3), uint8(1), uint16(17))
	f.Add(addWords(260, 6, false), uint8(1), uint8(8), uint8(0), uint8(2), uint16(0))
	f.Add(addWords(64, 7, true), uint8(2), uint8(0), uint8(0), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, codec, knob, skew, workers uint8, flip uint16) {
		src := data[:len(data)&^3]
		acc := addWords(len(src)/4+int(skew%4), int64(len(src)), true)
		off := 4 * int(skew%4)
		var payload []byte
		var hdr Header
		switch codec % 3 {
		case 0:
			payload, hdr = mpcPayload(t, src, 1+int(knob)%32, 1<<(knob%4))
		case 1:
			payload, hdr = zfpPayload(t, src, 4+int(knob)%29)
		default:
			payload, hdr = rawPayload(append([]byte(nil), src...))
		}
		if flip != 0 && len(payload) > 0 {
			payload = append([]byte(nil), payload...)
			payload[int(flip)%len(payload)] ^= byte(flip >> 8)
		}
		p := newAddPair(t, Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: workerCounts[int(workers)%len(workerCounts)]})
		p.check(t, "fuzz", hdr, payload, acc, off)
	})
}
