// Package dtype describes MPI-style derived datatypes over simulated
// device buffers: strided layouts whose elements are 4-byte words
// (float32, the only element type the codecs understand).
//
// A Type is a *layout*, independent of any particular buffer. The three
// concrete layouts mirror the derived datatypes TEMPI accelerates —
// MPI_Type_contiguous, MPI_Type_vector and MPI_Type_create_subarray —
// which between them cover the halo-exchange and Alltoallv patterns the
// paper's application study (AWP-ODC, §VII-A) exercises.
//
// The layout is consumed two ways:
//
//   - Plan canonicalises it, in O(1), into runs of contiguous bytes at up to
//     two levels of constant stride. Plan.Gather and Plan.Scatter move any
//     byte range of the packed stream through that form; the engine's fused
//     compress path calls them from each codec part, so packing costs no
//     extra pass, no staging allocation and no per-message table.
//   - Pack/Unpack are the plain reference path: an explicit gather into /
//     scatter from a contiguous buffer. The fused path must produce
//     bit-identical payloads to Pack-then-compress; tests enforce that.
package dtype

import (
	"errors"
	"fmt"
)

// ErrInvalid is the sentinel wrapped by all datatype validation errors.
// Callers test with errors.Is(err, dtype.ErrInvalid), mirroring the
// mpi.Err* sentinel convention.
var ErrInvalid = errors.New("dtype: invalid datatype")

// Type is a strided layout of 4-byte words over a byte buffer.
//
// All offsets and lengths produced by a Type are multiples of 4: the
// codec pipelines operate on whole words.
type Type interface {
	// Size returns the packed size in bytes (the wire size of one send).
	Size() int
	// Validate checks the layout against a buffer of bufLen bytes.
	// Errors wrap ErrInvalid.
	Validate(bufLen int) error
	// Signature returns a nonzero hash of the layout. Two Types with the
	// same signature select the same bytes from a buffer, so the
	// compress-once cache may key on (allocation, signature, epoch).
	Signature() uint64
	// Plan returns the layout's canonical strided form. It is computed
	// from the layout's few integers, so callers take a fresh one per
	// message instead of caching it. Only a layout that passed Validate
	// has a meaningful plan.
	Plan() Plan
}

// Contiguous is Words consecutive 4-byte words starting at offset 0 —
// the identity layout. Typed sends of a Contiguous view behave exactly
// like untyped sends of a Slice.
type Contiguous struct {
	Words int
}

// Size returns the packed size in bytes.
func (t Contiguous) Size() int { return 4 * t.Words }

// Validate checks the layout fits a buffer of bufLen bytes.
func (t Contiguous) Validate(bufLen int) error {
	if t.Words < 1 {
		return fmt.Errorf("%w: contiguous word count must be positive (got %d)", ErrInvalid, t.Words)
	}
	// Compared in words: 4*Words wraps for counts no buffer can hold.
	if t.Words > bufLen/4 {
		return fmt.Errorf("%w: contiguous extent of %d words exceeds buffer length %dB", ErrInvalid, t.Words, bufLen)
	}
	return nil
}

// Signature hashes the layout.
func (t Contiguous) Signature() uint64 {
	return sigFinish(sigMix(sigMix(sigSeed, 1), uint64(t.Words)))
}

// Plan is the single run.
func (t Contiguous) Plan() Plan {
	return newPlan(0, 4*t.Words, [2]int{1, 1}, [2]int{})
}

// Vector is Count blocks of BlockLen words, the start of consecutive
// blocks separated by Stride words — MPI_Type_vector with a float32
// base type. Stride == BlockLen degenerates to a contiguous layout.
type Vector struct {
	Count    int // number of blocks
	BlockLen int // words per block
	Stride   int // words between block starts (>= BlockLen)
}

// Size returns the packed size in bytes.
func (t Vector) Size() int { return 4 * t.Count * t.BlockLen }

// extentWords is the number of source words the layout spans.
func (t Vector) extentWords() int { return (t.Count-1)*t.Stride + t.BlockLen }

// Validate checks the layout fits a buffer of bufLen bytes.
func (t Vector) Validate(bufLen int) error {
	if t.Count < 1 {
		return fmt.Errorf("%w: vector count must be positive (got %d)", ErrInvalid, t.Count)
	}
	if t.BlockLen < 1 {
		return fmt.Errorf("%w: vector block length must be positive (got %d)", ErrInvalid, t.BlockLen)
	}
	if t.Stride < t.BlockLen {
		return fmt.Errorf("%w: vector stride %d must be >= block length %d (negative and overlapping strides are not supported)", ErrInvalid, t.Stride, t.BlockLen)
	}
	// Overflow guard: extentWords >= Count, Stride and BlockLen, so any
	// of them exceeding the buffer's word count proves the extent does
	// too — without evaluating the (possibly overflowing) product.
	words := bufLen / 4
	if t.Count > words || t.Stride > words || t.BlockLen > words {
		return fmt.Errorf("%w: vector extent exceeds buffer length %dB", ErrInvalid, bufLen)
	}
	if ext := 4 * t.extentWords(); ext > bufLen {
		return fmt.Errorf("%w: vector extent %dB exceeds buffer length %dB", ErrInvalid, ext, bufLen)
	}
	return nil
}

// Signature hashes the layout.
func (t Vector) Signature() uint64 {
	h := sigMix(sigSeed, 2)
	h = sigMix(h, uint64(t.Count))
	h = sigMix(h, uint64(t.BlockLen))
	h = sigMix(h, uint64(t.Stride))
	return sigFinish(h)
}

// Plan is one run per block; Stride == BlockLen collapses to a single run.
func (t Vector) Plan() Plan {
	return newPlan(0, 4*t.BlockLen, [2]int{t.Count, 1}, [2]int{4 * t.Stride, 0})
}

// Subarray3D selects the box Sub starting at Start out of a dense
// 3-D word array of shape Dims — MPI_Type_create_subarray with a
// float32 base type. The x axis varies fastest: word (x, y, z) lives at
// index (z*Dims[1]+y)*Dims[0]+x, and packed order iterates z outermost,
// then y, then x.
type Subarray3D struct {
	Dims  [3]int // full array shape {nx, ny, nz}
	Sub   [3]int // selected box shape
	Start [3]int // box origin
}

// Size returns the packed size in bytes.
func (t Subarray3D) Size() int { return 4 * t.Sub[0] * t.Sub[1] * t.Sub[2] }

// Validate checks the layout fits a buffer of bufLen bytes.
func (t Subarray3D) Validate(bufLen int) error {
	room := bufLen / 4
	for ax := 0; ax < 3; ax++ {
		if t.Dims[ax] < 1 {
			return fmt.Errorf("%w: subarray dim[%d] must be positive (got %d)", ErrInvalid, ax, t.Dims[ax])
		}
		if t.Sub[ax] < 1 {
			return fmt.Errorf("%w: subarray sub[%d] must be positive (got %d)", ErrInvalid, ax, t.Sub[ax])
		}
		if t.Start[ax] < 0 {
			return fmt.Errorf("%w: subarray start[%d] must be non-negative (got %d)", ErrInvalid, ax, t.Start[ax])
		}
		if t.Start[ax]+t.Sub[ax] > t.Dims[ax] {
			return fmt.Errorf("%w: subarray axis %d exceeds extent: start %d + sub %d > dim %d",
				ErrInvalid, ax, t.Start[ax], t.Sub[ax], t.Dims[ax])
		}
		// The extent check, axis by axis: room is how many times the
		// product of the axes so far still fits the buffer's words, so
		// Dims[0]*Dims[1]*Dims[2] <= bufLen/4 is decided exactly without
		// forming a product that could wrap.
		if t.Dims[ax] > room {
			return fmt.Errorf("%w: subarray full extent %dx%dx%d words exceeds buffer length %dB",
				ErrInvalid, t.Dims[0], t.Dims[1], t.Dims[2], bufLen)
		}
		room /= t.Dims[ax]
	}
	return nil
}

// Signature hashes the layout.
func (t Subarray3D) Signature() uint64 {
	h := sigMix(sigSeed, 3)
	for ax := 0; ax < 3; ax++ {
		h = sigMix(h, uint64(t.Dims[ax]))
		h = sigMix(h, uint64(t.Sub[ax]))
		h = sigMix(h, uint64(t.Start[ax]))
	}
	return sigFinish(h)
}

// Plan is one run per (y, z) row: rows at stride nx inside a plane, planes
// at stride nx*ny. Full rows and full planes collapse into longer runs, and
// a box spanning the whole y axis (an X halo face) into a single level.
func (t Subarray3D) Plan() Plan {
	nx, ny := t.Dims[0], t.Dims[1]
	base := 4 * ((t.Start[2]*ny+t.Start[1])*nx + t.Start[0])
	return newPlan(base, 4*t.Sub[0], [2]int{t.Sub[1], t.Sub[2]}, [2]int{4 * nx, 4 * nx * ny})
}

// Pack gathers the layout's words from src into dst in packed order —
// the reference path the fused codec must match byte for byte. dst must
// have at least t.Size() bytes and src must satisfy t.Validate.
func Pack(dst, src []byte, t Type) error {
	if err := t.Validate(len(src)); err != nil {
		return err
	}
	if len(dst) < t.Size() {
		return fmt.Errorf("%w: pack destination %dB shorter than packed size %dB", ErrInvalid, len(dst), t.Size())
	}
	t.Plan().Gather(dst[:t.Size()], src, 0)
	return nil
}

// Unpack scatters packed bytes from src back into the layout's positions
// in dst — the inverse of Pack. src must have at least t.Size() bytes
// and dst must satisfy t.Validate.
func Unpack(dst, src []byte, t Type) error {
	if err := t.Validate(len(dst)); err != nil {
		return err
	}
	if len(src) < t.Size() {
		return fmt.Errorf("%w: unpack source %dB shorter than packed size %dB", ErrInvalid, len(src), t.Size())
	}
	t.Plan().Scatter(dst, 0, src[:t.Size()])
	return nil
}

// FNV-1a-style layout hashing. sigSeed is the 64-bit FNV offset basis;
// sigMix folds one value in; sigFinish forces a nonzero result so 0 can
// mean "untyped" in cache keys.
const sigSeed = 0xcbf29ce484222325

func sigMix(h, v uint64) uint64 {
	h ^= v
	h *= 0x100000001b3
	return h
}

func sigFinish(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}
