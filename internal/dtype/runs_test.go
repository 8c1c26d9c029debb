package dtype

// The run table the engine used to rebuild for every message — each
// layout flattened into its maximal contiguous byte runs — kept here as the
// oracle Plan.Gather and Plan.Scatter are tested against.

// AppendRuns appends the single contiguous run.
func (t Contiguous) AppendRuns(dst [][2]int) [][2]int {
	return appendRun(dst, 0, 4*t.Words)
}

// AppendRuns appends one run per block, coalescing when Stride == BlockLen.
func (t Vector) AppendRuns(dst [][2]int) [][2]int {
	for i := 0; i < t.Count; i++ {
		dst = appendRun(dst, 4*i*t.Stride, 4*t.BlockLen)
	}
	return dst
}

// AppendRuns appends one run per (y, z) row, coalescing full planes and
// full rows into longer runs.
func (t Subarray3D) AppendRuns(dst [][2]int) [][2]int {
	nx, ny := t.Dims[0], t.Dims[1]
	for z := t.Start[2]; z < t.Start[2]+t.Sub[2]; z++ {
		for y := t.Start[1]; y < t.Start[1]+t.Sub[1]; y++ {
			off := 4 * ((z*ny+y)*nx + t.Start[0])
			dst = appendRun(dst, off, 4*t.Sub[0])
		}
	}
	return dst
}

// appendRun appends {off, n}, merging with the previous run when the two
// are contiguous in the source. Merging preserves packed order because
// runs are appended in packed order.
func appendRun(dst [][2]int, off, n int) [][2]int {
	if k := len(dst); k > 0 && dst[k-1][0]+dst[k-1][1] == off {
		dst[k-1][1] += n
		return dst
	}
	return append(dst, [2]int{off, n})
}

// runsOf is the oracle for any layout.
func runsOf(t Type) [][2]int {
	return t.(interface{ AppendRuns([][2]int) [][2]int }).AppendRuns(nil)
}
