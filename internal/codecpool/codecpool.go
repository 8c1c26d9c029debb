// Package codecpool runs host-side codec work — MPC partition
// compression, ZFP block rows, per-hop decompress work in collectives —
// across a pool of worker goroutines with per-worker reusable scratch
// arenas.
//
// The simulation models the paper's multi-stream kernel decomposition in
// *virtual* time (package gpusim charges concurrent kernels to overlapping
// stream timelines), but until this package existed the *real* codec work
// backing those kernels ran serially on one goroutine, so wall-clock was
// bottlenecked on a single core. The pool executes the real work of
// already-independent units (MPC partitions, ZFP blocks) concurrently,
// exactly as FZ-GPU and cuSZ+ execute chunk-parallel (de)compression with
// preallocated workspaces. It is a wall-clock optimization only: callers
// keep all virtual-clock accounting on their own goroutine, and outputs
// are bit-identical for any pool size because every part writes to state
// it alone owns, at a position that depends only on the input.
//
// Invariants the engine relies on:
//
//   - Run(n, job) executes job.RunPart(i, scratch) exactly once for every
//     i in [0, n), with no ordering guarantee, and returns after all parts
//     finish.
//   - A part may use its *Scratch freely during RunPart but must not
//     retain it: the same arena is handed to whatever part the worker
//     executes next.
//   - Run performs no heap allocations, so steady-state compression over
//     a warmed pool allocates nothing.
//   - Jobs must not call back into the pool (Run does not nest).
package codecpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Scratch is one worker's reusable arena. Buffers grow to the high-water
// mark of the work they serve and are then reused allocation-free; the
// contents are garbage on entry to every part.
type Scratch struct {
	bytes []byte
}

// Bytes returns a length-n byte buffer, reusing capacity when possible.
func (s *Scratch) Bytes(n int) []byte {
	if cap(s.bytes) < n {
		s.bytes = make([]byte, n)
	}
	s.bytes = s.bytes[:n]
	return s.bytes
}

// Job is one parallelizable codec operation, split into independent parts.
// RunPart(i, s) must touch only state owned by part i (plus the worker
// scratch); that is what makes outputs independent of scheduling.
//
// Hot paths keep a persistent Job value (a pointer to a reused struct) so
// that submitting work allocates nothing; building a fresh closure per
// message would put an allocation back on every send.
type Job interface {
	RunPart(part int, s *Scratch)
}

// JobFunc adapts a function to Job. Note that a closure capturing
// per-message state generally heap-allocates; use persistent Job structs
// on allocation-sensitive paths.
type JobFunc func(part int, s *Scratch)

// RunPart implements Job.
func (f JobFunc) RunPart(part int, s *Scratch) { f(part, s) }

// Pool is a fixed set of worker goroutines, each owning a Scratch.
// Concurrent Run calls from different engines serialize on an internal
// mutex: each Run already fans its parts across every worker, so
// admitting one batch at a time preserves total throughput while keeping
// Run allocation-free (the batch state is pool-owned and reused).
type Pool struct {
	scratches []*Scratch
	wake      chan struct{}

	runMu  sync.Mutex // one batch at a time; protects cur/n
	cur    Job
	n      int32
	next   atomic.Int32
	wg     sync.WaitGroup
	inline Scratch // used when a batch runs on the caller's goroutine
}

// New creates a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS. A one-worker pool executes every batch inline on
// the caller's goroutine — the serial reference path.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{wake: make(chan struct{}, workers)}
	for i := 0; i < workers; i++ {
		s := &Scratch{}
		p.scratches = append(p.scratches, s)
		go p.worker(s)
	}
	return p
}

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool, sized to GOMAXPROCS at first use.
// Engines default to it so that many simulated ranks on one host share
// one set of workers instead of oversubscribing the machine.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(0) })
	return sharedPool
}

var (
	sizedMu sync.Mutex
	sized   = map[int]*Pool{}
)

// Sized returns a process-wide pool with exactly the given worker count,
// creating it on first use; workers <= 0 returns Shared. Engines
// configured with an explicit worker count share one pool per count
// instead of spawning goroutines per engine (many simulated ranks are
// built and torn down over a test run; pools are never torn down).
func Sized(workers int) *Pool {
	if workers <= 0 {
		return Shared()
	}
	sizedMu.Lock()
	defer sizedMu.Unlock()
	if p := sized[workers]; p != nil {
		return p
	}
	p := New(workers)
	sized[workers] = p
	return p
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return len(p.scratches) }

func (p *Pool) worker(s *Scratch) {
	for range p.wake {
		// cur and n are stable for the whole batch: they were stored
		// before the wake-up send (channel happens-before) and are not
		// touched again until after wg.Wait returns.
		job, n := p.cur, p.n
		for {
			i := p.next.Add(1) - 1
			if i >= n {
				break
			}
			job.RunPart(int(i), s)
		}
		p.wg.Done()
	}
}

// Run executes job's n parts across the workers and returns when all have
// finished. Batches of one part, and every batch on a one-worker pool,
// run inline on the caller's goroutine (no handoff latency). Run must not
// be called from within a RunPart.
func (p *Pool) Run(n int, job Job) {
	if n <= 0 {
		return
	}
	p.runMu.Lock()
	defer p.runMu.Unlock()
	if n == 1 || len(p.scratches) == 1 {
		for i := 0; i < n; i++ {
			job.RunPart(i, &p.inline)
		}
		return
	}
	p.cur = job
	p.n = int32(n)
	p.next.Store(0)
	k := len(p.scratches)
	if n < k {
		k = n
	}
	p.wg.Add(k)
	for i := 0; i < k; i++ {
		p.wake <- struct{}{}
	}
	p.wg.Wait()
	p.cur = nil
}
