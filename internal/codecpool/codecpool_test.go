package codecpool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// countJob records which parts ran and how often.
type countJob struct {
	hits []atomic.Int32
}

func (j *countJob) RunPart(i int, s *Scratch) { j.hits[i].Add(1) }

func TestRunExecutesEveryPartOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			p := New(workers)
			j := &countJob{hits: make([]atomic.Int32, n)}
			p.Run(n, j)
			for i := range j.hits {
				if got := j.hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: part %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// sumJob writes a deterministic value into a disjoint slot per part.
type sumJob struct {
	out []int
}

func (j *sumJob) RunPart(i int, s *Scratch) {
	w := s.Bytes(64)
	for k := range w {
		w[k] = byte(i + k)
	}
	total := 0
	for _, v := range w {
		total += int(v)
	}
	j.out[i] = total
}

// TestDeterministicAcrossPoolSizes runs the same job on pools of size
// 1, 2 and 8 and requires identical results: parts own disjoint output
// slots, so scheduling cannot perturb the outcome.
func TestDeterministicAcrossPoolSizes(t *testing.T) {
	const n = 137
	var ref []int
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		j := &sumJob{out: make([]int, n)}
		p.Run(n, j)
		if ref == nil {
			ref = j.out
			continue
		}
		for i := range ref {
			if ref[i] != j.out[i] {
				t.Fatalf("workers=%d: part %d = %d, serial = %d", workers, i, j.out[i], ref[i])
			}
		}
	}
}

func TestScratchReuse(t *testing.T) {
	var s Scratch
	x := s.Bytes(100)
	y := s.Bytes(50)
	if &x[0] != &y[0] {
		t.Fatal("Bytes did not reuse capacity")
	}
	if len(y) != 50 {
		t.Fatalf("Bytes(50) has len %d", len(y))
	}
}

// TestRunZeroAlloc asserts the steady-state guarantee the engine builds
// on: after warm-up, submitting a batch allocates nothing.
func TestRunZeroAlloc(t *testing.T) {
	p := New(4)
	j := &sumJob{out: make([]int, 16)}
	p.Run(16, j) // warm worker scratches
	allocs := testing.AllocsPerRun(50, func() {
		p.Run(16, j)
	})
	if allocs != 0 {
		t.Fatalf("Run allocated %.1f objects per batch, want 0", allocs)
	}
}

// TestConcurrentRuns hammers one pool from many goroutines (the shape of
// several ranks compressing at once); correctness under -race is the
// point.
func TestConcurrentRuns(t *testing.T) {
	p := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				j := &sumJob{out: make([]int, 33)}
				p.Run(33, j)
				for i, v := range j.out {
					want := 0
					for k := 0; k < 64; k++ {
						want += i + k
					}
					if v != want {
						t.Errorf("goroutine %d iter %d part %d: got %d want %d", g, iter, i, v, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSharedPoolSingleton(t *testing.T) {
	if Shared() != Shared() {
		t.Fatal("Shared returned different pools")
	}
	if Shared().Workers() < 1 {
		t.Fatal("shared pool has no workers")
	}
}

func TestJobFunc(t *testing.T) {
	p := New(2)
	var hits [8]atomic.Int32
	p.Run(8, JobFunc(func(i int, s *Scratch) { hits[i].Add(1) }))
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("part %d ran %d times", i, hits[i].Load())
		}
	}
}
