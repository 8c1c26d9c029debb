package mpi

import (
	"fmt"

	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
)

// Typed point-to-point: the public derived-datatype API and its boundary
// validation (TEMPI-style pack+compress fusion, DESIGN.md §13). There is
// no typed send path: a layout is an optional argument of isend, which
// hands it to the engine, where the strided runs are gathered during the
// codec's own read pass — so the wire carries exactly the bytes
// Pack-then-Isend would have produced (bit-identical payloads, headers,
// and checksums) minus the pack kernel and the staging allocation, and
// every protocol tier, the breaker, the cache, inflight tracking and the
// watchdog treat the send like any other. A typed receive is an
// ordinary posted receive that remembers its layout; decoded words
// scatter into the layout's positions during the decoder's write-back
// pass.

// SendTyped is the blocking form of IsendTyped.
func (r *Rank) SendTyped(dst, tag int, buf *gpusim.Buffer, t dtype.Type) error {
	return r.await(r.IsendTyped(dst, tag, buf, t))
}

// RecvTyped is the blocking form of IrecvTyped.
func (r *Rank) RecvTyped(src, tag int, buf *gpusim.Buffer, t dtype.Type) error {
	return r.await(r.IrecvTyped(src, tag, buf, t))
}

// IsendTyped starts a nonblocking send of the words t selects from buf.
// The layout is validated against the buffer here, at the API boundary:
// invalid layouts (negative stride, zero block length, subarray
// exceeding the buffer extent) surface a wrapped dtype.ErrInvalid
// before any protocol state is created.
func (r *Rank) IsendTyped(dst, tag int, buf *gpusim.Buffer, t dtype.Type) (*Request, error) {
	if tag < 0 {
		return nil, fmt.Errorf("mpi: user tags must be non-negative (got %d)", tag)
	}
	if buf == nil {
		return nil, fmt.Errorf("mpi: typed send to rank %d: nil buffer", dst)
	}
	if err := t.Validate(buf.Len()); err != nil {
		return nil, fmt.Errorf("mpi: typed send to rank %d: %w", dst, err)
	}
	return r.isend(dst, tag, buf, t)
}

// IrecvTyped starts a nonblocking receive that scatters the incoming
// packed words into the positions t selects in buf. Validation matches
// IsendTyped.
func (r *Rank) IrecvTyped(src, tag int, buf *gpusim.Buffer, t dtype.Type) (*Request, error) {
	if tag < 0 && tag != AnyTag {
		return nil, fmt.Errorf("mpi: user tags must be non-negative or AnyTag (got %d)", tag)
	}
	if buf == nil {
		return nil, fmt.Errorf("mpi: typed receive from rank %d: nil buffer", src)
	}
	if err := t.Validate(buf.Len()); err != nil {
		return nil, fmt.Errorf("mpi: typed receive from rank %d: %w", src, err)
	}
	req, err := r.irecv(src, tag, buf)
	if err != nil {
		return nil, err
	}
	req.typ = t
	return req, nil
}

// SendrecvTyped is the typed simultaneous exchange — the halo-exchange
// primitive: each side sends one face view and receives into another.
func (r *Rank) SendrecvTyped(dst, sendTag int, sendBuf *gpusim.Buffer, st dtype.Type,
	src, recvTag int, recvBuf *gpusim.Buffer, rt dtype.Type) error {
	rreq, err := r.IrecvTyped(src, recvTag, recvBuf, rt)
	if err != nil {
		return err
	}
	sreq, err := r.IsendTyped(dst, sendTag, sendBuf, st)
	if err != nil {
		return err
	}
	return r.Waitall(sreq, rreq)
}
