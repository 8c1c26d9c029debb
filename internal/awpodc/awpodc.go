// Package awpodc is a proxy for AWP-ODC (Anelastic Wave Propagation,
// Olsen-Day-Cui), the GPU seismic code of the paper's application study
// (Section VII-A). It integrates a 3-D scalar wave equation on a grid
// decomposed over a 2-D X-Y process mesh — AWP-ODC's actual decomposition,
// one subdomain per GPU — and exchanges multi-field halo planes with
// CUDA-aware MPI every time step: the same communication pattern (2-16 MB
// messages of smooth floating-point field data) that makes AWP-ODC
// compression-friendly.
//
// The wave field is really integrated (finite differences in Go), so halo
// payloads are genuinely smooth and the compression ratios the engine
// achieves are real. GPU compute time is modeled from the FLOP count of
// the stencil; the paper's "GPU computing flops" metric is reproduced as
// aggregate sustained TFLOPS.
package awpodc

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mpicomp/internal/core"
	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
)

// Config sizes the simulation.
type Config struct {
	// NX, NY are the horizontal extents of every rank's subdomain and NZ
	// its full vertical extent (the Z axis is not decomposed, as in
	// AWP-ODC). Weak scaling: the global mesh is (NX*PX) x (NY*PY) x NZ,
	// mirroring the paper's 320x320x2048 input scaled by GPU count.
	NX, NY, NZ int
	// Fields is the number of wavefield components exchanged per halo
	// message (AWP-ODC exchanges 3 velocity + 6 stress components;
	// default 9). An X-face halo is NY*NZ*4*Fields bytes; a Y-face halo
	// is NX*NZ*4*Fields bytes.
	Fields int
	// Steps is the number of time steps to run.
	Steps int
	// HaloPacked selects the legacy staged halo path: each face is
	// packed into a contiguous staging buffer by a dedicated kernel,
	// sent, and the received halo unpacked by a second kernel. The
	// default (false) sends Subarray3D boundary views directly — the
	// gather rides the compression codec's read pass (DESIGN.md §13), so
	// no staging copy and no pack/unpack kernels exist. The original
	// staged implementation charged nothing for pack/unpack (a modeling
	// gap); this flag models the real kernels — one launch per wavefield
	// component (AWP-ODC keeps each in its own device array) plus
	// sector-amplified strided traffic — and is the honest "before" arm
	// of the fusion benchmark.
	HaloPacked bool
}

const (
	// flopsPerPoint is the stencil cost used for the GPU compute-time
	// model and the reported FLOPS.
	flopsPerPoint = 135
	// efficiency is the fraction of peak FP32 the stencil kernel sustains:
	// finite-difference seismic kernels are heavily memory-bound; this
	// lands per-GPU sustained performance in the paper's ~0.1-0.3 TFLOPS
	// regime and communication at the 30-50% share of Figure 2(b).
	efficiency = 0.05
	// courantNumber scales the time step (stable).
	courantNumber = 0.4
)

func (c Config) withDefaults() Config {
	if c.NX == 0 {
		c.NX = 320
	}
	if c.NY == 0 {
		c.NY = 320
	}
	if c.NZ == 0 {
		c.NZ = 128
	}
	if c.Fields == 0 {
		c.Fields = 9
	}
	if c.Steps == 0 {
		c.Steps = 4
	}
	return c
}

// ProcessGrid factors size into the near-square PX x PY mesh AWP-ODC's
// launcher would choose.
func ProcessGrid(size int) (px, py int) {
	px = int(math.Sqrt(float64(size)))
	for px > 1 && size%px != 0 {
		px--
	}
	if px < 1 {
		px = 1
	}
	return px, size / px
}

// HaloBytesX and HaloBytesY return the per-message halo sizes.
func (c Config) HaloBytesX() int {
	cc := c.withDefaults()
	return cc.NY * cc.NZ * 4 * cc.Fields
}

func (c Config) HaloBytesY() int {
	cc := c.withDefaults()
	return cc.NX * cc.NZ * 4 * cc.Fields
}

// Result summarizes one run.
type Result struct {
	Ranks int
	Steps int
	// TimePerStep is the simulated wall time per step (slowest rank).
	TimePerStep simtime.Duration
	// ComputeTime / CommTime split one average step (slowest rank).
	ComputeTime simtime.Duration
	CommTime    simtime.Duration
	// TFlops is the aggregate sustained GPU computing performance, the
	// paper's Figures 12/13(a) metric.
	TFlops float64
	// Ratio is the average achieved halo compression ratio.
	Ratio float64
	// Checksum is a deterministic digest of the final field, used by
	// tests to compare runs.
	Checksum float64
	// WireBytes is the total compressed halo bytes all ranks put on the
	// wire (zero when the engine never compresses). Equal across the
	// typed and staged paths: the fused gather is bit-transparent.
	WireBytes int64
	// StagingBytes counts bytes moved through explicit pack/unpack
	// staging copies. The typed path reports zero — its gathers and
	// scatters ride the codec passes instead of materializing packed
	// planes.
	StagingBytes int64
}

// subdomain holds one rank's wavefield with one ghost layer in X and Y.
type subdomain struct {
	cfg        Config
	nx, ny, nz int // interior extents
	sx, sy     int // strides including ghosts: sx = nx+2, sy = ny+2
	u, uprev   []float32
	coef       float32
}

func newSubdomain(cfg Config, rx, ry, px, py int) *subdomain {
	s := &subdomain{
		cfg: cfg, nx: cfg.NX, ny: cfg.NY, nz: cfg.NZ,
		sx: cfg.NX + 2, sy: cfg.NY + 2,
		coef: float32(courantNumber * courantNumber),
	}
	n := s.sx * s.sy * s.nz
	s.u = take[float32](&fields, n)
	s.uprev = take[float32](&fields, n)
	// Single moment source: a smooth Gaussian pulse at the global mesh
	// center, initialized by the rank owning it.
	if rx == px/2 && ry == py/2 {
		cx, cy, cz := s.nx/2, s.ny/2, s.nz/2
		sigma2 := float64(minInt(s.nx, minInt(s.ny, s.nz)))
		sigma2 = sigma2 * sigma2 / 25
		for z := 0; z < s.nz; z++ {
			for y := 1; y <= s.ny; y++ {
				for x := 1; x <= s.nx; x++ {
					dx, dy, dz := float64(x-cx), float64(y-cy), float64(z-cz)
					r2 := (dx*dx + dy*dy + dz*dz) / sigma2
					if r2 > gaussianCutoff {
						continue
					}
					v := float32(math.Exp(-r2))
					idx := s.index(x, y, z)
					s.u[idx] = v
					s.uprev[idx] = v
				}
			}
		}
	}
	return s
}

// gaussianCutoff is where the source pulse is exactly zero in float32:
// exp(-r2) rounds to 0 once it is below half the smallest denormal, 2^-150,
// which is r2 > 103.98, and the freshly allocated field already holds that
// zero — so most of the mesh skips math.Exp.
const gaussianCutoff = 104

// Run's wavefields and boundary mirrors outlive the call in these pools,
// so that repeated runs reuse them: a 320x320x32 field is 13 MB and every
// rank takes two. take hands a slice out zeroed, exactly as make would.
var fields, mirrors sync.Pool

// take returns a zeroed slice of length n, from p when p holds one large
// enough.
func take[T float32 | byte](p *sync.Pool, n int) []T {
	if s, ok := p.Get().(*[]T); ok && cap(*s) >= n {
		clear((*s)[:n])
		return (*s)[:n]
	}
	return make([]T, n)
}

// give returns s to p for a later take. Nothing may use s afterwards.
func give[T float32 | byte](p *sync.Pool, s []T) { p.Put(&s) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func (s *subdomain) index(x, y, z int) int { return (z*s.sy+y)*s.sx + x }

// step advances the interior one time step with a 7-point stencil:
// u_new = 2u - uprev + C*laplacian(u). X/Y ghosts hold neighbor data;
// the Z boundary is reflective: a missing neighbor plane reads as the
// point's own, which is decided once per row, not per point. Each (y, z)
// row takes its seven input rows and its output row as equal-length
// slices, so the inner loop indexes without bounds checks; the arithmetic
// is in the order of the per-point loop it replaces (stepReference in the
// tests), bit for bit.
func (s *subdomain) step() {
	sx, sy, nx := s.sx, s.sy, s.nx
	plane := sx * sy
	u, coef := s.u, s.coef
	for z := 0; z < s.nz; z++ {
		below, above := -plane, plane
		if z == 0 {
			below = 0
		}
		if z == s.nz-1 {
			above = 0
		}
		for y := 1; y <= s.ny; y++ {
			i := (z*sy+y)*sx + 1
			out := s.uprev[i:][:nx]
			c, w, e := u[i:][:nx], u[i-1:][:nx], u[i+1:][:nx]
			so, no := u[i-sx:][:nx], u[i+sx:][:nx]
			dn, up := u[i+below:][:nx], u[i+above:][:nx]
			for x := range out {
				cv := c[x]
				lap := w[x] + e[x] + so[x] + no[x] - 6*cv
				lap += dn[x]
				lap += up[x]
				out[x] = 2*cv - out[x] + coef*lap
			}
		}
	}
	s.u, s.uprev = s.uprev, s.u
}

// face identifiers for halo packing.
const (
	faceWest = iota
	faceEast
	faceSouth
	faceNorth
)

// faceSide maps a face to its slot in the 2-wide per-axis boundary
// mirror: low-coordinate faces (west, south) occupy side 0, high faces
// (east, north) side 1.
func faceSide(face int) int {
	if face == faceEast || face == faceNorth {
		return 1
	}
	return 0
}

// faceAmp is the DRAM sector amplification of the staged pack/unpack
// kernel for a face. X faces gather isolated 4-byte elements at plane
// stride, so every element drags a full 32-byte sector (8x); Y faces
// move contiguous nx-word rows (no amplification).
func faceAmp(face int) int {
	if face == faceWest || face == faceEast {
		return 8
	}
	return 1
}

// boundaryViewX describes one side of the X-axis boundary mirror, whose
// element order — x fastest over {side}, then y, then (field, z) fused
// into the outer dimension — packs to exactly the byte stream packHalo
// produces for that face: field-major, z, then y.
func (s *subdomain) boundaryViewX(side int) dtype.Subarray3D {
	return dtype.Subarray3D{
		Dims:  [3]int{2, s.ny, s.cfg.Fields * s.nz},
		Sub:   [3]int{1, s.ny, s.cfg.Fields * s.nz},
		Start: [3]int{side, 0, 0},
	}
}

// boundaryViewY is the Y-axis analogue: whole nx-word rows, packing to
// packHalo's field-major, z, then x order.
func (s *subdomain) boundaryViewY(side int) dtype.Subarray3D {
	return dtype.Subarray3D{
		Dims:  [3]int{s.nx, 2, s.cfg.Fields * s.nz},
		Sub:   [3]int{s.nx, 1, s.cfg.Fields * s.nz},
		Start: [3]int{0, side, 0},
	}
}

// fieldScale is the affine factor of wavefield component f: each stands in
// for one of AWP-ODC's velocity/stress components (all smooth, all
// distinct), and field 0 is the unscaled plane the ghosts are restored from.
func fieldScale(f int) float32 { return float32(1 + 0.125*float64(f)) }

// fillBoundary writes the face's multi-field plane into its side of the
// per-axis boundary mirror — the device-resident face data a fused
// stencil kernel would leave behind, and the source the typed send's
// gather reads. Same values as packHalo, interleaved by side instead of
// packed. It walks the mirror a row at a time: an X face takes one word
// per wavefield row, a Y face a whole one.
func (s *subdomain) fillBoundary(buf []byte, face int) {
	side := faceSide(face)
	switch face {
	case faceWest, faceEast:
		x := 1
		if face == faceEast {
			x = s.nx
		}
		for z := 0; z < s.nz; z++ {
			col := s.u[s.index(x, 1, z):]
			for f := 0; f < s.cfg.Fields; f++ {
				scale := fieldScale(f)
				row := buf[4*((f*s.nz+z)*s.ny*2+side):]
				for y := 0; y < s.ny; y++ {
					putFloat(row[8*y:], col[y*s.sx]*scale)
				}
			}
		}
	case faceSouth, faceNorth:
		y := 1
		if face == faceNorth {
			y = s.ny
		}
		for z := 0; z < s.nz; z++ {
			src := s.u[s.index(1, y, z):][:s.nx]
			for f := 0; f < s.cfg.Fields; f++ {
				scale := fieldScale(f)
				row := buf[4*((f*s.nz+z)*2+side)*s.nx:][:4*s.nx]
				for x, v := range src {
					putFloat(row[4*x:], v*scale)
				}
			}
		}
	}
}

// restoreGhost refreshes the primary field's ghost layer from the
// received boundary mirror (field 0 carries the unscaled plane),
// mirroring unpackHalo for the typed path.
func (s *subdomain) restoreGhost(buf []byte, face int) {
	side := faceSide(face)
	switch face {
	case faceWest, faceEast:
		x := 0
		if face == faceEast {
			x = s.nx + 1
		}
		for z := 0; z < s.nz; z++ {
			col := s.u[s.index(x, 1, z):]
			row := buf[4*(z*s.ny*2+side):]
			for y := 0; y < s.ny; y++ {
				col[y*s.sx] = getFloat(row[8*y:])
			}
		}
	case faceSouth, faceNorth:
		y := 0
		if face == faceNorth {
			y = s.ny + 1
		}
		for z := 0; z < s.nz; z++ {
			dst := s.u[s.index(1, y, z):][:s.nx]
			row := buf[4*(z*2+side)*s.nx:][:4*s.nx]
			for x := range dst {
				dst[x] = getFloat(row[4*x:])
			}
		}
	}
}

// packHalo builds a multi-field halo message from the boundary plane whose
// field indices are idxs (faceIndices, ghost=false). It is the staging copy
// of the legacy HaloPacked arm; the typed path never materializes it.
func (s *subdomain) packHalo(buf []byte, idxs []int) {
	for f := 0; f < s.cfg.Fields; f++ {
		scale := fieldScale(f)
		plane := buf[4*f*len(idxs):]
		for i, idx := range idxs {
			putFloat(plane[4*i:], s.u[idx]*scale)
		}
	}
}

// unpackHalo restores the primary field's ghost layer, whose field indices
// are idxs (faceIndices, ghost=true), from a received halo (field 0 carries
// the unscaled plane).
func (s *subdomain) unpackHalo(buf []byte, idxs []int) {
	for i, idx := range idxs {
		s.u[idx] = getFloat(buf[4*i:])
	}
}

// faceIndices lists the field indices of the face's boundary (ghost=false)
// or ghost (ghost=true) plane, z outermost — the staged arm's gather and
// scatter table, built once per neighbor and run.
func (s *subdomain) faceIndices(face int, ghost bool) []int {
	var out []int
	switch face {
	case faceWest, faceEast:
		x := 1
		if face == faceEast {
			x = s.nx
		}
		if ghost {
			if face == faceWest {
				x = 0
			} else {
				x = s.nx + 1
			}
		}
		out = make([]int, 0, s.ny*s.nz)
		for z := 0; z < s.nz; z++ {
			for y := 1; y <= s.ny; y++ {
				out = append(out, s.index(x, y, z))
			}
		}
	case faceSouth, faceNorth:
		y := 1
		if face == faceNorth {
			y = s.ny
		}
		if ghost {
			if face == faceSouth {
				y = 0
			} else {
				y = s.ny + 1
			}
		}
		out = make([]int, 0, s.nx*s.nz)
		for z := 0; z < s.nz; z++ {
			for x := 1; x <= s.nx; x++ {
				out = append(out, s.index(x, y, z))
			}
		}
	}
	return out
}

func putFloat(b []byte, v float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(v)) }

func getFloat(b []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }

// Run executes the simulation on an existing world and reports the
// performance metrics of the paper's application study.
func Run(w *mpi.World, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	size := w.Size()
	px, py := ProcessGrid(size)
	type rankOut struct {
		compute, comm simtime.Duration
		checksum      float64
		staging       int64
	}
	outs := make([]rankOut, size)

	times, err := w.Run(func(r *mpi.Rank) error {
		me := r.ID()
		rx, ry := me%px, me/px
		s := newSubdomain(cfg, rx, ry, px, py)
		dev := r.Dev

		// Neighbor table: {peer rank, my face, tag pair}. Tags encode
		// the receiver's face so reciprocal messages never cross.
		type nb struct {
			peer, face int
			sendTag    int
			recvTag    int
			bytes      int
		}
		var nbs []nb
		hx, hy := cfg.HaloBytesX(), cfg.HaloBytesY()
		if rx > 0 {
			nbs = append(nbs, nb{me - 1, faceWest, 0, 1, hx})
		}
		if rx < px-1 {
			nbs = append(nbs, nb{me + 1, faceEast, 1, 0, hx})
		}
		if ry > 0 {
			nbs = append(nbs, nb{me - px, faceSouth, 2, 3, hy})
		}
		if ry < py-1 {
			nbs = append(nbs, nb{me + px, faceNorth, 3, 2, hy})
		}
		// Typed path: one tracked 2-wide boundary mirror per axis (both
		// sides share an allocation; the compress-once cache keys each
		// side by its Subarray3D signature). Staged path: one contiguous
		// staging pair per neighbor, as the original implementation.
		var sendBufs, recvBufs []*gpusim.Buffer
		var sendIdx, recvIdx [][]int
		var sbx, rbx, sby, rby *gpusim.Buffer
		if cfg.HaloPacked {
			sendBufs = make([]*gpusim.Buffer, len(nbs))
			recvBufs = make([]*gpusim.Buffer, len(nbs))
			sendIdx = make([][]int, len(nbs))
			recvIdx = make([][]int, len(nbs))
			for i, n := range nbs {
				sendBufs[i] = &gpusim.Buffer{Data: make([]byte, n.bytes), Loc: gpusim.Device, Dev: dev}
				recvBufs[i] = &gpusim.Buffer{Data: make([]byte, n.bytes), Loc: gpusim.Device, Dev: dev}
				sendIdx[i] = s.faceIndices(n.face, false)
				recvIdx[i] = s.faceIndices(n.face, true)
			}
		} else {
			mirror := func(n int) *gpusim.Buffer {
				return (&gpusim.Buffer{Data: take[byte](&mirrors, n), Loc: gpusim.Device, Dev: dev}).Track()
			}
			if rx > 0 || rx < px-1 {
				sbx, rbx = mirror(2*hx), mirror(2*hx)
			}
			if ry > 0 || ry < py-1 {
				sby, rby = mirror(2*hy), mirror(2*hy)
			}
		}
		xAxis := func(face int) bool { return face == faceWest || face == faceEast }
		sendBuf := func(face int) *gpusim.Buffer {
			if xAxis(face) {
				return sbx
			}
			return sby
		}
		recvBuf := func(face int) *gpusim.Buffer {
			if xAxis(face) {
				return rbx
			}
			return rby
		}
		view := func(face int) dtype.Subarray3D {
			if xAxis(face) {
				return s.boundaryViewX(faceSide(face))
			}
			return s.boundaryViewY(faceSide(face))
		}
		// stagedCopy charges the pack or unpack kernels of the legacy
		// path. The wavefield components stand for AWP-ODC's separate
		// velocity/stress device arrays, so a staged exchange launches
		// one pack kernel per field — the per-datatype-op launch train
		// the fusion deletes — then synchronizes the stream once before
		// handing the staging buffer to MPI. Traffic: the contiguous
		// side of the copy plus the sector-amplified strided side, at
		// memory bandwidth.
		stagedCopy := func(n, amp int) {
			per := (amp + 1) * n / cfg.Fields
			for f := 0; f < cfg.Fields; f++ {
				dev.LaunchKernel(r.Clock, dev.Stream(0), gpusim.KernelSpec{
					Blocks:         dev.Spec.SMs,
					Bytes:          per,
					ThroughputGbps: dev.Spec.MemBWGBps * 8,
				})
			}
			dev.StreamSync(r.Clock, dev.Stream(0))
		}

		flopsPerStep := float64(s.nx*s.ny*s.nz) * flopsPerPoint
		computeDur := simtime.FromSeconds(flopsPerStep / (dev.Spec.FP32TFlops * 1e12 * efficiency))

		var compute, comm simtime.Duration
		var staging int64
		reqs := make([]*mpi.Request, 0, 2*len(nbs))
		for step := 0; step < cfg.Steps; step++ {
			// GPU compute phase: the stencil kernel.
			t0 := r.Clock.Now()
			s.step()
			dev.LaunchKernel(r.Clock, dev.Stream(0), gpusim.KernelSpec{Blocks: dev.Spec.SMs, Bytes: 0})
			r.Clock.Advance(computeDur)
			compute += r.Clock.Now().Sub(t0)

			// Halo exchange (CUDA-aware Isend/Irecv of device buffers,
			// as the paper's modified AWP-ODC does).
			t0 = r.Clock.Now()
			reqs = reqs[:0]
			if cfg.HaloPacked {
				for i, n := range nbs {
					rq, err := r.Irecv(n.peer, n.recvTag, recvBufs[i])
					if err != nil {
						return err
					}
					reqs = append(reqs, rq)
				}
				for i, n := range nbs {
					s.packHalo(sendBufs[i].Data, sendIdx[i])
					stagedCopy(n.bytes, faceAmp(n.face))
					staging += int64(n.bytes)
					sq, err := r.Isend(n.peer, n.sendTag, sendBufs[i])
					if err != nil {
						return err
					}
					reqs = append(reqs, sq)
				}
				if err := r.Waitall(reqs...); err != nil {
					return err
				}
				for i, n := range nbs {
					stagedCopy(n.bytes, faceAmp(n.face))
					staging += int64(n.bytes)
					s.unpackHalo(recvBufs[i].Data, recvIdx[i])
				}
			} else {
				// Typed path: receives scatter straight into the mirror,
				// sends gather straight out of it. No staging copies, no
				// pack/unpack kernels — the strided access rides the
				// codec passes.
				for _, n := range nbs {
					rq, err := r.IrecvTyped(n.peer, n.recvTag, recvBuf(n.face), view(n.face))
					if err != nil {
						return err
					}
					reqs = append(reqs, rq)
				}
				for _, n := range nbs {
					s.fillBoundary(sendBuf(n.face).Data, n.face)
				}
				for _, b := range []*gpusim.Buffer{sbx, sby} {
					if b != nil {
						b.MarkDirty()
					}
				}
				for _, n := range nbs {
					sq, err := r.IsendTyped(n.peer, n.sendTag, sendBuf(n.face), view(n.face))
					if err != nil {
						return err
					}
					reqs = append(reqs, sq)
				}
				if err := r.Waitall(reqs...); err != nil {
					return err
				}
				for _, n := range nbs {
					s.restoreGhost(recvBuf(n.face).Data, n.face)
				}
			}
			comm += r.Clock.Now().Sub(t0)
		}
		var sum float64
		for _, v := range s.u {
			sum += float64(v) * float64(v)
		}
		give(&fields, s.u)
		give(&fields, s.uprev)
		for _, b := range []*gpusim.Buffer{sbx, rbx, sby, rby} {
			if b != nil {
				give(&mirrors, b.Data)
			}
		}
		outs[me] = rankOut{compute: compute, comm: comm, checksum: sum, staging: staging}
		return nil
	})
	if err != nil {
		return Result{}, err
	}

	makespan := mpi.MaxTime(times)
	var worst rankOut
	var checksum float64
	for _, o := range outs {
		if o.compute+o.comm > worst.compute+worst.comm {
			worst = o
		}
		checksum += o.checksum
	}
	flopsTotal := float64(cfg.NX*cfg.NY*cfg.NZ) * flopsPerPoint * float64(cfg.Steps) * float64(size)
	res := Result{
		Ranks:       size,
		Steps:       cfg.Steps,
		TimePerStep: simtime.Duration(makespan) / simtime.Duration(cfg.Steps),
		ComputeTime: worst.compute / simtime.Duration(cfg.Steps),
		CommTime:    worst.comm / simtime.Duration(cfg.Steps),
		TFlops:      flopsTotal / simtime.Duration(makespan).Seconds() / 1e12,
		Checksum:    checksum,
	}
	for _, o := range outs {
		res.StagingBytes += o.staging
	}
	var in, out float64
	for i := 0; i < size; i++ {
		in += float64(w.Rank(i).Engine.BytesIn)
		out += float64(w.Rank(i).Engine.BytesOut)
	}
	res.WireBytes = int64(out)
	if out > 0 {
		res.Ratio = in / out
	} else {
		res.Ratio = 1
	}
	return res, nil
}

// WeakScaling runs the proxy at each GPU count with a fixed per-rank
// subdomain (the paper's weak-scaling methodology: Figures 12 and 13) and
// returns one Result per point.
func WeakScaling(cluster hw.Cluster, ppn int, gpuCounts []int, engine core.Config, cfg Config) ([]Result, error) {
	var out []Result
	for _, gpus := range gpuCounts {
		p := ppn
		nodes := gpus / p
		if nodes < 1 {
			nodes, p = 1, gpus
		}
		w, err := mpi.NewWorld(mpi.Options{Cluster: cluster, Nodes: nodes, PPN: p, Engine: engine})
		if err != nil {
			return nil, fmt.Errorf("awpodc: world for %d GPUs: %w", gpus, err)
		}
		r, err := Run(w, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
