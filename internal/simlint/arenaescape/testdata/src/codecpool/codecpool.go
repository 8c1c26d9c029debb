// Package codecpool is a shim of the real mpicomp/internal/codecpool
// API surface, just enough for the arenaescape golden tests to
// type-check: the analyzer matches the Scratch accessors by package
// base name, receiver type, and method name.
package codecpool

// Scratch is one worker's reusable arena.
type Scratch struct {
	bytes []byte
}

// Bytes returns a length-n byte buffer.
func (s *Scratch) Bytes(n int) []byte {
	if cap(s.bytes) < n {
		s.bytes = make([]byte, n)
	}
	s.bytes = s.bytes[:n]
	return s.bytes
}

// Job is one parallelizable codec operation.
type Job interface {
	RunPart(part int, s *Scratch)
}

// Pool runs job parts across workers.
type Pool struct{}

// Run executes job's n parts.
func (p *Pool) Run(n int, job Job) {}
