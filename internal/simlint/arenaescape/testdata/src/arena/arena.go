// Package arena is the golden test for the arenaescape analyzer: a
// part may use its codecpool scratch freely but must not retain it.
package arena

import "codecpool"

type job struct {
	held  []byte
	parts [][]byte
}

var global []byte

func (j *job) RunPart(part int, s *codecpool.Scratch) {
	buf := s.Bytes(64)
	j.held = buf // want "codecpool scratch buffer stored in field j.held"
	sub := buf[2:8]
	j.held = sub // want "codecpool scratch buffer stored in field j.held"
}

func (j *job) stash(part int, s *codecpool.Scratch) {
	global = s.Bytes(16)       // want "codecpool scratch buffer stored in package variable global"
	j.parts[part] = s.Bytes(8) // want "codecpool scratch buffer stored in element of j.parts"
}

func leakByReturn(s *codecpool.Scratch) []byte {
	f := s.Bytes(32)
	return f // want "codecpool scratch buffer returned"
}

func leakByChannel(s *codecpool.Scratch, ch chan []byte) {
	ch <- s.Bytes(4) // want "codecpool scratch buffer sent on a channel"
}

func leakToGoroutine(s *codecpool.Scratch, sink func([]byte)) {
	buf := s.Bytes(8)
	go func() {
		sink(buf) // want "codecpool scratch buffer captured by a goroutine"
	}()
}

func leakIntoCallerSlice(s *codecpool.Scratch, results [][]byte, part int) {
	results[part] = s.Bytes(16) // want "codecpool scratch buffer stored in element of results"
}

// transientUse is the contract-respecting shape: scratch is used as
// workspace and only copies of its contents leave the part.
func transientUse(s *codecpool.Scratch, dst []byte, out [][]byte, part int) []byte {
	buf := s.Bytes(128)
	for i := range buf {
		buf[i] = byte(i)
	}
	copy(dst, buf)
	out[part] = append([]byte(nil), buf...) // a copy, not the arena
	local := make(map[int][]byte)
	local[part] = buf // dies with the part
	return dst
}

// annotated is blessed: the pool call's own dispatch plumbing may hold
// a scratch reference by design.
func annotated(s *codecpool.Scratch, hold *[][]byte) {
	(*hold)[0] = s.Bytes(4) //simlint:arenaok dispatch plumbing owns the arena lifecycle
}
