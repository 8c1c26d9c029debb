package core

import (
	"fmt"

	"mpicomp/internal/codecpool"
	"mpicomp/internal/mpc"
	"mpicomp/internal/zfp"
)

// This file is the host-parallel execution layer under the virtual clock:
// the engine keeps every kernel launch, stream sync, and copy charge on
// the caller's goroutine (so simulated time is identical for any worker
// count), and hands only the *real* codec work — already decomposed into
// independent units by the algorithms themselves — to the shared
// codecpool. Each job's parts write exclusively to pre-sliced disjoint
// regions whose positions depend only on the input, which makes the
// output bytes independent of scheduling. The persistent job structs and
// the engine arena exist so that a steady-state compress/decompress
// performs zero heap allocations (ISSUE 2's scratch-reuse requirement).

// zfpChunkValues is the number of float32 values per parallel ZFP chunk.
// It must be a multiple of 8 (two 4-value blocks), because every 2-block
// group codes to exactly 8*rate bits = rate bytes — a byte-aligned
// boundary for any rate — so each chunk's compressed offset is exactly
// i*chunkValues*rate/8 and workers can encode directly into place. The
// encoding of a block depends only on its 4 values, so chunked output is
// bit-identical to whole-message output (TestAppendCompressChunked).
const zfpChunkValues = 1 << 16

// arena is the engine's reusable per-message scratch. All fields grow to
// the high-water mark of the traffic they serve and are then reused
// allocation-free. Guarded by Engine.mu like everything else in the
// engine; workers never touch the arena directly, only the disjoint
// sub-slices their job hands them.
type arena struct {
	// sizeWord backs the 4-byte compressed-size readback that used to be
	// allocated per message.
	sizeWord [4]byte
	// comp stages per-part compressed output (MPC: bound-sized regions
	// per partition; ZFP: the exact-size stream).
	comp []byte
	// payload stages the assembled multi-partition MPC wire payload.
	payload []byte
	// ranges, partBytes, offs, outs, errs are the per-part bookkeeping
	// slices formerly allocated per message.
	ranges    [][2]int
	partBytes []int
	offs      []int
	outs      [][]byte
	errs      []error
	// packed stages the gathered bytes of a typed message that bypasses
	// compression (the typed analogue of the AlgoNone view of buf.Data).
	packed []byte
}

func (a *arena) compFor(n int) []byte {
	if cap(a.comp) < n {
		a.comp = make([]byte, n)
	}
	a.comp = a.comp[:n]
	return a.comp
}

func (a *arena) rangesFor(n, parts int) [][2]int {
	a.ranges = splitWordsInto(a.ranges[:0], n, parts)
	return a.ranges
}

func (a *arena) partBytesFor(n int) []int {
	if cap(a.partBytes) < n {
		a.partBytes = make([]int, n)
	}
	a.partBytes = a.partBytes[:n]
	return a.partBytes
}

func (a *arena) offsFor(n int) []int {
	if cap(a.offs) < n {
		a.offs = make([]int, n)
	}
	a.offs = a.offs[:n]
	return a.offs
}

func (a *arena) outsFor(n int) [][]byte {
	if cap(a.outs) < n {
		a.outs = make([][]byte, n)
	}
	a.outs = a.outs[:n]
	return a.outs
}

func (a *arena) packedFor(n int) []byte {
	if cap(a.packed) < n {
		a.packed = make([]byte, n)
	}
	a.packed = a.packed[:n]
	return a.packed
}

// errsFor returns a cleared length-n error slice (stale results from the
// previous message must not leak into this one).
func (a *arena) errsFor(n int) []error {
	if cap(a.errs) < n {
		a.errs = make([]error, n)
	}
	a.errs = a.errs[:n]
	for i := range a.errs {
		a.errs[i] = nil
	}
	return a.errs
}

// firstErr returns the lowest-indexed error, which is deterministic for
// any worker count because every part always runs.
func firstErr(errs []error) (int, error) {
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}

// mpcCompressJob compresses the partition ranges of one message
// concurrently. Part i encodes its own byte range of src — the codec
// reads the buffer's little-endian words in place — into outs[i], a
// region of the arena's comp buffer pre-sliced with cap
// mpc.Bound(partWords), so partitions cannot collide. A strided view first
// gathers the partition's packed bytes out of the layout into worker
// scratch (pack+compress fusion: one copy, no staging buffer).
type mpcCompressJob struct {
	src    []byte
	ranges [][2]int
	dim    int
	view   typedView
	outs   [][]byte
	errs   []error
}

func (j *mpcCompressJob) RunPart(i int, s *codecpool.Scratch) {
	lo, hi := 4*j.ranges[i][0], 4*j.ranges[i][1]
	part := j.src[lo:hi]
	if j.view.strided() {
		part = s.Bytes(hi - lo)
		j.view.plan.Gather(part, j.src, j.view.base+lo)
	}
	j.outs[i], j.errs[i] = mpc.AppendCompressBytes(j.outs[i][:0], part, j.dim)
}

// mpcDecompressJob decodes the partitions of one payload concurrently.
// Part i decodes payload[offs[i]:offs[i+1]] straight into its own byte
// range of dst. MPC's predictor is partition-relative (each compress call
// started a fresh stream), so partitions decode independently. A corrupt
// partition leaves its range partly written; a strided view decodes into
// worker scratch and scatters into the layout only on success, and an add
// view adds its scratch into its range only on success.
type mpcDecompressJob struct {
	payload []byte
	offs    []int // len(parts)+1 cumulative payload offsets
	ranges  [][2]int
	dim     int
	view    typedView
	dst     []byte
	errs    []error
}

func (j *mpcDecompressJob) RunPart(i int, s *codecpool.Scratch) {
	lo, hi := 4*j.ranges[i][0], 4*j.ranges[i][1]
	comp := j.payload[j.offs[i]:j.offs[i+1]]
	if j.view.inPlace() {
		j.errs[i] = mpc.DecompressBytesInto(j.dst[lo:hi], comp, j.dim)
		return
	}
	part := s.Bytes(hi - lo)
	switch j.errs[i] = mpc.DecompressBytesInto(part, comp, j.dim); {
	case j.errs[i] != nil:
	case j.view.add:
		AddFloat32s(j.dst[lo:hi], part)
	default:
		j.view.plan.Scatter(j.dst, j.view.base+lo, part)
	}
}

// zfpCompressJob encodes independent chunk rows of one message
// concurrently. Chunk i covers values [i*chunkVals, min(n, (i+1)*chunkVals))
// and writes exactly CompressedSize(chunkLen, rate) bytes at byte offset
// i*chunkVals*rate/8 of out (see zfpChunkValues for why that offset is
// always byte-exact). Like MPC, the coder reads a contiguous message's
// little-endian words in place and a strided one from worker scratch.
type zfpCompressJob struct {
	src   []byte
	out   []byte
	rate  int
	nVals int
	view  typedView
	errs  []error
}

func (j *zfpCompressJob) RunPart(i int, s *codecpool.Scratch) {
	v0 := i * zfpChunkValues
	v1 := v0 + zfpChunkValues
	if v1 > j.nVals {
		v1 = j.nVals
	}
	off := i * (zfpChunkValues * j.rate / 8)
	want, err := zfp.CompressedSize(v1-v0, j.rate)
	if err != nil {
		j.errs[i] = err
		return
	}
	part := j.src[4*v0 : 4*v1]
	if j.view.strided() {
		part = s.Bytes(4 * (v1 - v0))
		j.view.plan.Gather(part, j.src, j.view.base+4*v0)
	}
	out, err := zfp.AppendCompressBytes(j.out[off:off:off+want], part, j.rate)
	if err != nil {
		j.errs[i] = err
		return
	}
	if len(out) != want {
		j.errs[i] = fmt.Errorf("zfp chunk %d: encoded %d bytes, want %d", i, len(out), want)
	}
}

// zfpDecompressJob decodes independent chunk rows concurrently, the
// mirror of zfpCompressJob: straight into the chunk's bytes of dst, or
// into worker scratch and, once the chunk decoded, out through the layout
// or added into the chunk's bytes of dst.
type zfpDecompressJob struct {
	comp  []byte
	dst   []byte
	rate  int
	nVals int
	view  typedView
	errs  []error
}

func (j *zfpDecompressJob) RunPart(i int, s *codecpool.Scratch) {
	v0 := i * zfpChunkValues
	v1 := v0 + zfpChunkValues
	if v1 > j.nVals {
		v1 = j.nVals
	}
	off := i * (zfpChunkValues * j.rate / 8)
	want, err := zfp.CompressedSize(v1-v0, j.rate)
	if err != nil {
		j.errs[i] = err
		return
	}
	comp := j.comp[off : off+want]
	if j.view.inPlace() {
		j.errs[i] = zfp.DecompressBytesInto(j.dst[4*v0:4*v1], comp, j.rate)
		return
	}
	part := s.Bytes(4 * (v1 - v0))
	switch j.errs[i] = zfp.DecompressBytesInto(part, comp, j.rate); {
	case j.errs[i] != nil:
	case j.view.add:
		AddFloat32s(j.dst[4*v0:4*v1], part)
	default:
		j.view.plan.Scatter(j.dst, j.view.base+4*v0, part)
	}
}
