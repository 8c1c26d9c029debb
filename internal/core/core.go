// Package core implements the paper's primary contribution: the
// GPU-based on-the-fly message compression framework (Section III) and the
// two optimized schemes MPC-OPT (Section IV) and ZFP-OPT (Section V).
//
// An Engine lives inside each MPI process. On the send side it compresses
// device-resident messages above a threshold and produces the header that
// the runtime piggybacks onto the rendezvous RTS packet (Algorithm 1); on
// the receive side it interprets that header, stages the incoming
// compressed data, and decompresses into the user buffer (Algorithm 2).
//
// Three integration modes are provided:
//
//   - ModeOff:   baseline, no compression (the "Baseline (No compression)"
//     series of every figure).
//   - ModeNaive: the straightforward integration of Section III — temporary
//     device buffers via cudaMalloc on every message, cudaMemcpy size
//     readback for MPC, cudaGetDeviceProperties per ZFP kernel launch.
//   - ModeOpt:   MPC-OPT / ZFP-OPT — pre-allocated buffer pools, GDRCopy
//     size readback, multi-stream kernel decomposition for MPC, cached
//     device attributes for ZFP.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Algorithm selects the compression codec.
type Algorithm uint8

const (
	// AlgoNone disables compression for the message.
	AlgoNone Algorithm = iota
	// AlgoMPC is the lossless Massively Parallel Compression codec.
	AlgoMPC
	// AlgoZFP is the fixed-rate lossy ZFP codec.
	AlgoZFP
)

// Mode selects the integration level.
type Mode uint8

const (
	// ModeOff disables the framework entirely.
	ModeOff Mode = iota
	// ModeNaive is the unoptimized integration of Section III.
	ModeNaive
	// ModeOpt enables the MPC-OPT / ZFP-OPT optimizations.
	ModeOpt
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNaive:
		return "naive"
	case ModeOpt:
		return "opt"
	default:
		return "off"
	}
}

// DefaultThreshold is the message size at which compression engages.
// The paper evaluates compression for large messages (its figures start at
// 256 KB, with benefits appearing between 512 KB and 2 MB depending on the
// interconnect).
const DefaultThreshold = 256 << 10

// DefaultPoolBuffers and DefaultPoolBufBytes size the pre-allocated device
// buffer pool built at initialization in ModeOpt.
const (
	DefaultPoolBuffers  = 8
	DefaultPoolBufBytes = 36 << 20 // fits a 32 MB message plus MPC expansion headroom
)

// DefaultCacheEntries and DefaultCacheBudgetBytes size the compress-once
// cache (cache.go): enough entries for every send block of a modest
// alltoall plus the fan-out roots, within a bounded payload budget (a
// payload larger than the whole budget is never cached).
const (
	DefaultCacheEntries     = 16
	DefaultCacheBudgetBytes = 64 << 20
)

// DefaultPipelineCredits is the chunk-granular flow-control window when
// Config.PipelineCredits is zero: the sender of a pipelined rendezvous may
// have at most this many chunks in flight before the receiver's staging
// slots (and their credits) return. It is clamped to PoolBuffers, since a
// credit is exactly a claim on one receive-side staging buffer.
const DefaultPipelineCredits = 4

// Config configures an Engine.
type Config struct {
	// Mode selects off / naive / optimized integration.
	Mode Mode
	// Algorithm selects the codec used for eligible messages.
	Algorithm Algorithm
	// ZFPRate is the fixed rate in bits per value (paper: 4, 8, 16).
	ZFPRate int
	// MPCDim is MPC's dimensionality control parameter.
	MPCDim int
	// Threshold is the minimum message size in bytes for compression;
	// zero means DefaultThreshold.
	Threshold int
	// MaxPartitions caps MPC-OPT's multi-stream decomposition (the
	// number of CUDA streams used); zero means 4.
	MaxPartitions int
	// PoolBuffers / PoolBufBytes size the ModeOpt buffer pool; zero
	// means the defaults.
	PoolBuffers  int
	PoolBufBytes int
	// Workers sets the host codec worker pool size for the real
	// (wall-clock) codec work. Zero selects the process-wide shared pool
	// sized to GOMAXPROCS; 1 forces serial execution on the caller's
	// goroutine (the reference path). The setting cannot affect results:
	// simulated time, payload bytes, and checksums are identical for any
	// value (see DESIGN.md §8).
	Workers int
	// PipelineChunkBytes sizes pipelined rendezvous (extension, modeled
	// on MVAPICH2-GDR's chunked large-message path): a message is
	// compressed and transferred chunk by chunk, overlapping chunk k's
	// transfer with chunk k+1's compression and the receiver's
	// decompression of earlier chunks. Above zero, every rendezvous
	// message of at least twice this size is cut into chunks of it.
	// Zero lets the cost model pick every send's form in ModeOpt
	// (Engine.SendForm): uncompressed, whole and compressed or, for a
	// point-to-point send, cut. Negative sends every message whole and
	// compresses every eligible one, as in the paper's Figure 4.
	PipelineChunkBytes int
	// PipelineCredits is the chunk-granular flow-control window of the
	// pipelined rendezvous path: at most this many chunks may be in
	// flight toward a receiver, each holding one of the receiver's
	// staging slots; the credit returns when the receiver drains the
	// slot. Zero selects DefaultPipelineCredits; values above PoolBuffers
	// are clamped to it (a credit is a staging buffer); negative disables
	// credit gating entirely (unlimited in-flight chunks).
	PipelineCredits int
	// CacheEntries caps the engine's compress-once cache (cache.go):
	// the number of recently compressed wire payloads retained for reuse
	// by fan-out collectives and warm benchmark iterations. Zero selects
	// DefaultCacheEntries; negative disables the cache.
	CacheEntries int
}

// Validate reports a control parameter the selected codec would reject at
// its first eligible message (zfp.ErrBadRate, mpc.ErrBadDim); zero selects
// the default.
func (c Config) Validate() error {
	cc := c.withDefaults()
	if k := codecFor(cc.Algorithm); k != nil {
		return k.check(cc)
	}
	return nil
}

func (c *Config) withDefaults() Config {
	cc := *c
	if cc.ZFPRate == 0 {
		cc.ZFPRate = 16
	}
	if cc.MPCDim == 0 {
		cc.MPCDim = 1
	}
	if cc.Threshold == 0 {
		cc.Threshold = DefaultThreshold
	}
	if cc.MaxPartitions == 0 {
		cc.MaxPartitions = 4
	}
	if cc.PoolBuffers == 0 {
		cc.PoolBuffers = DefaultPoolBuffers
	}
	if cc.PoolBufBytes == 0 {
		cc.PoolBufBytes = DefaultPoolBufBytes
	}
	if cc.PipelineCredits == 0 {
		cc.PipelineCredits = DefaultPipelineCredits
	}
	if cc.PipelineCredits > cc.PoolBuffers {
		cc.PipelineCredits = cc.PoolBuffers
	}
	if cc.CacheEntries == 0 {
		cc.CacheEntries = DefaultCacheEntries
	}
	return cc
}

// Header is the compression control information piggybacked onto the
// rendezvous RTS packet (the "A"/"B" fields of Figure 4): whether and how
// the payload is compressed, the original and compressed sizes, the codec
// control parameters, and — for MPC-OPT's multi-stream flow — the number
// of partitions and the compressed size of each.
type Header struct {
	Algo       Algorithm
	Compressed bool
	// OrigBytes is the size of the original message; CompBytes the size
	// of the transferred payload.
	OrigBytes int
	CompBytes int
	// Rate (ZFP) and Dim (MPC) are the codec control parameters.
	Rate int
	Dim  int
	// PartBytes holds the compressed byte count of each MPC partition
	// (Algorithm 3's [B1..BN]); len(PartBytes) is the partition count.
	PartBytes []int
	// Checksum is the CRC32-C of the wire payload, computed on the send
	// side during Compress and verified end-to-end by every receiver
	// before decompression. Because it rides in the header, collectives
	// that relay raw compressed payloads forward it unchanged and each
	// hop can verify integrity without recompressing.
	Checksum uint32
	// Fallback marks a payload the sender deliberately left uncompressed
	// because its codec circuit breaker is open for this peer — the
	// degradation-negotiation bit piggybacked on the RTS, telling the
	// receiver this was a policy decision rather than an ineligible
	// message.
	Fallback bool
}

// Ratio reports the achieved compression ratio of the message.
func (h Header) Ratio() float64 {
	if !h.Compressed || h.CompBytes == 0 {
		return 1
	}
	return float64(h.OrigBytes) / float64(h.CompBytes)
}

// wireSize is the serialized header size in bytes; it rides in the RTS
// control packet. 28 fixed bytes plus 4 per partition.
func (h Header) wireSize() int { return 28 + 4*len(h.PartBytes) }

// Header flag bits (byte 1 of the wire encoding). A header without
// Fallback encodes to exactly the pre-flag bytes (0 or 1), so enabling
// the breaker feature costs nothing on the healthy path.
const (
	hdrFlagCompressed = 1 << 0
	hdrFlagFallback   = 1 << 1
)

// Encode serializes the header (little-endian) for transport or storage.
func (h Header) Encode() []byte {
	var flags byte
	if h.Compressed {
		flags |= hdrFlagCompressed
	}
	if h.Fallback {
		flags |= hdrFlagFallback
	}
	buf := make([]byte, 0, h.wireSize())
	buf = append(buf, byte(h.Algo), flags, byte(h.Rate), byte(h.Dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.OrigBytes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(h.CompBytes))
	buf = binary.LittleEndian.AppendUint32(buf, h.Checksum)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.PartBytes)))
	for _, p := range h.PartBytes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	return buf
}

// DecodeHeader parses a header serialized by Encode, rejecting any header
// whose fields could not have been produced by a well-formed sender
// (negative sizes, absurd partition counts, truncated partition tables).
func DecodeHeader(buf []byte) (Header, error) {
	if len(buf) < 28 {
		return Header{}, fmt.Errorf("core: header too short (%d bytes)", len(buf))
	}
	var h Header
	h.Algo = Algorithm(buf[0])
	h.Compressed = buf[1]&hdrFlagCompressed != 0
	h.Fallback = buf[1]&hdrFlagFallback != 0
	h.Rate = int(buf[2])
	h.Dim = int(buf[3])
	h.OrigBytes = int(binary.LittleEndian.Uint64(buf[4:]))
	h.CompBytes = int(binary.LittleEndian.Uint64(buf[12:]))
	h.Checksum = binary.LittleEndian.Uint32(buf[20:])
	if h.OrigBytes < 0 || h.CompBytes < 0 {
		return Header{}, fmt.Errorf("core: corrupt header (orig=%d comp=%d)", h.OrigBytes, h.CompBytes)
	}
	nParts := int(binary.LittleEndian.Uint32(buf[24:]))
	if nParts < 0 || nParts > 1024 || len(buf) < 28+4*nParts {
		return Header{}, fmt.Errorf("core: corrupt header (nParts=%d, len=%d)", nParts, len(buf))
	}
	for i := 0; i < nParts; i++ {
		pb := int(binary.LittleEndian.Uint32(buf[28+4*i:]))
		if pb < 0 {
			return Header{}, fmt.Errorf("core: corrupt header (partition %d has %d bytes)", i, pb)
		}
		h.PartBytes = append(h.PartBytes, pb)
	}
	return h, nil
}

// DefaultPartitions is the fine-tuned partition count per message size for
// MPC-OPT's data-partitioning + multi-stream flow (Section IV-B): larger
// messages amortize more streams.
func DefaultPartitions(bytes, maxParts int) int {
	var p int
	switch {
	case bytes < 1<<20:
		p = 1
	case bytes < 4<<20:
		p = 2
	case bytes < 16<<20:
		p = 4
	default:
		p = 8
	}
	if p > maxParts {
		p = maxParts
	}
	if p < 1 {
		p = 1
	}
	return p
}

// --- byte/word/float conversions (device buffers hold raw bytes) ---

// BytesToWords reinterprets little-endian bytes as uint32 words.
func BytesToWords(b []byte) []uint32 {
	w := make([]uint32, len(b)/4)
	for i := range w {
		w[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return w
}

// WordsToBytes serializes uint32 words as little-endian bytes, appending
// to dst.
func WordsToBytes(dst []byte, w []uint32) []byte {
	for _, v := range w {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// BytesToFloats reinterprets little-endian bytes as float32 values.
func BytesToFloats(b []byte) []float32 {
	f := make([]float32, len(b)/4)
	for i := range f {
		f[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return f
}

// FloatsToBytes serializes float32 values as little-endian bytes,
// appending to dst.
func FloatsToBytes(dst []byte, f []float32) []byte {
	for _, v := range f {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(v))
	}
	return dst
}

// AddFloat32s is the host side of every reduction: dst[i] += src[i] over
// the little-endian float32 words of two equal-length slices, one IEEE
// addition per word as in the one-word loop mpi's sum_test.go keeps as the
// oracle (same bits: NaN payloads, signed zeros, denormals). Four words
// per re-sliced 16-byte window lets the compiler drop the bounds checks:
// 2.4x that loop. Bytes past the last whole word are left alone.
func AddFloat32s(dst, src []byte) {
	for len(dst) >= 16 && len(src) >= 16 {
		d, s := dst[:16], src[:16]
		storeF32(d[0:], loadF32(d[0:])+loadF32(s[0:]))
		storeF32(d[4:], loadF32(d[4:])+loadF32(s[4:]))
		storeF32(d[8:], loadF32(d[8:])+loadF32(s[8:]))
		storeF32(d[12:], loadF32(d[12:])+loadF32(s[12:]))
		dst, src = dst[16:], src[16:]
	}
	for len(dst) >= 4 && len(src) >= 4 {
		storeF32(dst, loadF32(dst)+loadF32(src))
		dst, src = dst[4:], src[4:]
	}
}

func loadF32(b []byte) float32     { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func storeF32(b []byte, f float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(f)) }
