package dtype

import "encoding/binary"

// Plan is a layout in canonical strided form (TEMPI's commit-time
// canonicalisation): Count[1] x Count[0] runs of Run contiguous bytes.
// Packed order walks level 0 fastest, and run (i, j) — i over level 0, j
// over level 1 — starts at byte Base + j*Stride[1] + i*Stride[0] of the
// buffer. A level the layout does not need has Count 1 and Stride 0.
//
// A plan is three to seven integers derived from the layout's own, so
// locating packed byte p is a division (run p/Run, byte p%Run of it)
// rather than a search over a per-message table of runs.
type Plan struct {
	Base, Run     int
	Count, Stride [2]int
}

// newPlan canonicalises runs of run bytes at two levels of (count, stride),
// level 0 innermost, to the fewest levels and the longest run:
//
//   - a level of one run drops;
//   - an innermost level whose runs abut (stride == run) is one longer run —
//     a Vector with Stride == BlockLen, a subarray of full rows, and on top
//     of those full planes;
//   - a level that continues the progression of the one below it (its stride
//     is that level's count times stride) extends that level's count — a
//     subarray spanning the whole y axis.
func newPlan(base, run int, count, stride [2]int) Plan {
	p := Plan{Base: base, Run: run, Count: [2]int{1, 1}}
	kept := 0
	for l, c := range count {
		switch {
		case c == 1:
		case kept == 0 && stride[l] == p.Run:
			p.Run *= c
		case kept == 1 && stride[l] == p.Count[0]*p.Stride[0]:
			p.Count[0] *= c
		default:
			p.Count[kept], p.Stride[kept] = c, stride[l]
			kept++
		}
	}
	return p
}

// seek locates packed byte off: the buffer offset of the run containing it,
// the byte's offset inside that run, and how many runs remain in the run's
// level-0 row (itself included).
func (p Plan) seek(off int) (start, within, rowLeft int) {
	r := off / p.Run
	i, j := r%p.Count[0], r/p.Count[0]
	return p.Base + j*p.Stride[1] + i*p.Stride[0], off % p.Run, p.Count[0] - i
}

// Gather copies packed bytes [off, off+len(dst)) of the layout's stream out
// of the strided buffer src into dst. The range is byte-granular at both
// ends: it may start and stop inside a run.
func (p Plan) Gather(dst, src []byte, off int) {
	for len(dst) > 0 {
		start, within, rowLeft := p.seek(off)
		n := 0
		if within != 0 || len(dst) < p.Run {
			n = copy(dst, src[start+within:start+p.Run])
		} else {
			runs := min(rowLeft, len(dst)/p.Run)
			n = runs * p.Run
			gatherRow(dst[:n], src[start:], p.Run, p.Stride[0], runs)
		}
		dst, off = dst[n:], off+n
	}
}

// Scatter copies src into packed bytes [off, off+len(src)) of the layout's
// positions in the strided buffer dst — the mirror of Gather. Bytes the
// layout does not select are never written.
func (p Plan) Scatter(dst []byte, off int, src []byte) {
	for len(src) > 0 {
		start, within, rowLeft := p.seek(off)
		n := 0
		if within != 0 || len(src) < p.Run {
			n = copy(dst[start+within:start+p.Run], src)
		} else {
			runs := min(rowLeft, len(src)/p.Run)
			n = runs * p.Run
			scatterRow(dst[start:], p.Run, p.Stride[0], runs, src[:n])
		}
		src, off = src[n:], off+n
	}
}

// gatherRow packs n whole runs of run bytes, stride apart in src, into dst.
// The loop is chosen by shape: one 32-bit or 64-bit load and store per run
// for the one- and two-word runs of an X face, where a memmove call per run
// would cost more than the word it moves, and a copy per run otherwise.
func gatherRow(dst, src []byte, run, stride, n int) {
	switch run {
	case 4:
		for k, o := 0, 0; k < n; k, o = k+1, o+stride {
			binary.LittleEndian.PutUint32(dst[4*k:], binary.LittleEndian.Uint32(src[o:]))
		}
	case 8:
		for k, o := 0, 0; k < n; k, o = k+1, o+stride {
			binary.LittleEndian.PutUint64(dst[8*k:], binary.LittleEndian.Uint64(src[o:]))
		}
	default:
		for k, o := 0, 0; k < n; k, o = k+1, o+stride {
			copy(dst[k*run:(k+1)*run], src[o:o+run])
		}
	}
}

// scatterRow is the mirror of gatherRow: n whole runs out of src into
// positions stride apart in dst.
func scatterRow(dst []byte, run, stride, n int, src []byte) {
	switch run {
	case 4:
		for k, o := 0, 0; k < n; k, o = k+1, o+stride {
			binary.LittleEndian.PutUint32(dst[o:], binary.LittleEndian.Uint32(src[4*k:]))
		}
	case 8:
		for k, o := 0, 0; k < n; k, o = k+1, o+stride {
			binary.LittleEndian.PutUint64(dst[o:], binary.LittleEndian.Uint64(src[8*k:]))
		}
	default:
		for k, o := 0, 0; k < n; k, o = k+1, o+stride {
			copy(dst[o:o+run], src[k*run:(k+1)*run])
		}
	}
}
