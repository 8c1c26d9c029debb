// Package errwrap is the golden test for the analyzer of the same
// name: mpi.Err* sentinels must be wrapped with %w and tested with
// errors.Is.
package errwrap

import (
	"errors"
	"fmt"

	"golden/mpi"
)

func compare(err error) bool {
	if err == mpi.ErrDeliveryFailed { // want "== comparison against sentinel ErrDeliveryFailed"
		return true
	}
	return err != mpi.ErrPeerFailed // want "!= comparison against sentinel ErrPeerFailed"
}

func classify(err error) int {
	switch err {
	case nil:
		return 0
	case mpi.ErrPeerFailed: // want "switch case compares sentinel ErrPeerFailed"
		return 1
	}
	return 2
}

func rewrap(rank int) error {
	return fmt.Errorf("rank %d: %v", rank, mpi.ErrPeerFailed) // want "sentinel ErrPeerFailed formatted without %w"
}

func stringify(attempt int) error {
	return fmt.Errorf("%s after %d attempts", mpi.ErrDeliveryFailed, attempt) // want "sentinel ErrDeliveryFailed formatted without %w"
}

// wrapped is the blessed shape: %w keeps errors.Is seeing the sentinel
// through any number of annotation layers.
func wrapped(kind string, src, dst int, attempt int) error {
	return fmt.Errorf("mpi: %s %d->%d lost after %d attempts: %w",
		kind, src, dst, attempt, mpi.ErrDeliveryFailed)
}

func tested(err error) bool {
	return errors.Is(err, mpi.ErrDeliveryFailed) || errors.Is(err, mpi.ErrPeerFailed)
}

// nilAndOthers: nil comparisons and non-sentinel errors stay untouched.
func nilAndOthers(err error) bool {
	if err == nil {
		return false
	}
	return err == mpi.NotASentinel
}

// starWidth checks the verb scanner: the * consumes an operand, so the
// sentinel still lines up with its %w.
func starWidth(pad int) error {
	return fmt.Errorf("%*d %w", pad, 7, mpi.ErrPeerFailed)
}
