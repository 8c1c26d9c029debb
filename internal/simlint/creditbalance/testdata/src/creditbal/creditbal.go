// Package creditbal is the golden input for the creditbalance
// analyzer: leaks on some paths, balanced pairs, hand-offs, loop
// leaks, interprocedural wrappers (intra- and cross-package), and
// directive suppressions.
package creditbal

import (
	"gpusim"
	"stagecore"
)

var pool *gpusim.BufferPool
var dev *gpusim.GPUDevice
var clk *gpusim.Clock

func cond() bool { return true }

func use([]byte) {}

// --- leaks ----------------------------------------------------------

func leakOnEarlyReturn() {
	b := pool.Get(clk, 64) // want "not released on every path"
	if cond() {
		return
	}
	pool.Put(b)
}

func leakAtEnd() {
	b := dev.Malloc(clk, 64) // want "not released on every path"
	use(b.Data)
}

func leakReservation() {
	b := dev.Reserve(clk, 64) // want "not released on every path"
	if cond() {
		return
	}
	dev.Free(clk, b)
}

func loopLeak() {
	for cond() {
		b := pool.Get(clk, 8) // want "acquired inside the loop"
		if cond() {
			continue
		}
		pool.Put(b)
	}
}

func reacquire() {
	b := pool.Get(clk, 8) // want "reacquired while the previous buffer is still held"
	b = pool.Get(clk, 8)
	pool.Put(b)
}

// --- balanced -------------------------------------------------------

func balancedBranches() {
	b := dev.Malloc(clk, 128)
	if cond() {
		dev.Free(clk, b)
		return
	}
	dev.Free(clk, b)
}

func balancedDefer() {
	b := pool.Get(clk, 64)
	defer pool.Put(b)
	if cond() {
		return
	}
	use(b.Data)
}

func balancedDeferClosure() {
	b := pool.Get(clk, 64)
	defer func() { pool.Put(b) }()
	use(b.Data)
}

func balancedLoop() {
	for cond() {
		b := pool.Get(clk, 8)
		if cond() {
			pool.Put(b)
			continue
		}
		pool.Put(b)
	}
}

func fatalPath() {
	b := pool.Get(clk, 8)
	if cond() {
		panic("corrupt staging header")
	}
	pool.Put(b)
}

func switchBalanced() {
	b := pool.Get(clk, 8)
	switch {
	case cond():
		pool.Put(b)
	default:
		dev.Free(clk, b)
	}
}

// --- interprocedural ------------------------------------------------

func relHelper(b *gpusim.Buffer) {
	pool.Put(b)
}

func viaHelper() {
	b := pool.Get(clk, 8)
	relHelper(b)
}

func stage() *gpusim.Buffer {
	return pool.Get(clk, 16)
}

func wrapperLeak() {
	b := stage() // want "not released on every path"
	if cond() {
		return
	}
	pool.Put(b)
}

func crossLeak() {
	b := stagecore.StageRecv(clk, 32) // want "not released on every path"
	if cond() {
		return
	}
	stagecore.Release(clk, b)
}

func crossBalanced() {
	b := stagecore.StageRecv(clk, 32)
	stagecore.Release(clk, b)
}

// --- hand-offs ------------------------------------------------------

type holder struct{ b *gpusim.Buffer }

func handoffs(h *holder, ch chan *gpusim.Buffer, all []*gpusim.Buffer) []*gpusim.Buffer {
	a := pool.Get(clk, 8)
	h.b = a // stored: obligation moves to the holder
	b := pool.Get(clk, 8)
	all = append(all, b) // appended: obligation moves to the slice
	c := pool.Get(clk, 8)
	ch <- c // sent: obligation moves to the receiver
	d := pool.Get(clk, 8)
	return append(all, d) // returned: obligation moves to the caller
}

// --- suppressions ---------------------------------------------------

// suppressedDoc parks its buffer in a global harness on purpose.
//
//simlint:creditok harness keeps the buffer for the whole run
func suppressedDoc() {
	b := pool.Get(clk, 8)
	use(b.Data)
}

func suppressedLine() {
	b := pool.Get(clk, 8) //simlint:creditok ownership documented at the call site
	use(b.Data)
}
