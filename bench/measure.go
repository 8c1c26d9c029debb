package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mpicomp/internal/core"
	"mpicomp/internal/mpi"
	"mpicomp/internal/trace"
)

// Run-length rules. A run measures until its time budget is spent and at
// least minOps operations are in; by default setupReps whole set-ups are
// timed and their median reported, so one slow set-up does not read as a
// regression.
const (
	minOps    = 8
	warmOps   = 2
	setupReps = 3
	// The Mode-off arm runs whole rotations until refBudget is spent.
	maxRefRotations = 3
	refBudget       = time.Second
)

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// highPercentile returns the highest percentile that still has ten
// samples beyond it, and which percentile that is. With too few samples
// for any such percentile it falls back to the median.
func highPercentile(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 11
	if i < len(s)/2 {
		return median(s), 50
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// ready is a workload after set-up: the warmed compressed arm and what
// the Mode-off arm produced, which is both the baseline of
// sim_gain_vs_off and the oracle the outputs are checked against.
type ready struct {
	spec     spec
	scale    int
	on, off  *arm
	ref      [rotations]opOut
	offSimUs float64 // Mode-off simulated latency per op, mean over its operations
	algo     mpi.AllreduceAlgo
}

// buildOn builds the compressed arm, lets its tuner converge and runs
// the warm-up operations.
func buildOn(s spec, p params, tr *trace.Collector) (*arm, mpi.AllreduceAlgo, error) {
	on, err := s.build(p, s.codec, mpi.AllreduceAuto, tr)
	if err != nil {
		return nil, 0, err
	}
	algo := mpi.AllreduceAuto
	if on.tuner != nil {
		if algo, err = on.converge(); err != nil {
			return nil, 0, err
		}
	}
	for i := 0; i < warmOps; i++ {
		if _, err := on.op(i, nil, 0); err != nil {
			return nil, 0, err
		}
	}
	for q := 0; q < on.world.Size(); q++ {
		on.world.Rank(q).Engine.ResetCounters()
	}
	return on, algo, nil
}

// setUp is everything a run does before its first timed operation:
// dataset generation, both worlds, tuner convergence, the Mode-off
// reference arm (one to three operations per rotation) and the warm-up
// operations.
func setUp(s spec, p params) (*ready, error) {
	on, algo, err := buildOn(s, p, nil)
	if err != nil {
		return nil, err
	}
	off, err := s.build(p, core.Config{Mode: core.ModeOff}, algo, nil)
	if err != nil {
		return nil, err
	}
	rd := &ready{spec: s, scale: p.scale, on: on, off: off, algo: algo}
	// The first rotation is the oracle. Cheap reference operations get
	// more rotations: where co-located ranks share an adapter the
	// Mode-off simulated time of one operation takes one of two values
	// (DESIGN.md section 13), and the baseline is their mean.
	var sim []float64
	for r, start := 0, time.Now(); r < maxRefRotations && (r == 0 || time.Since(start) < refBudget); r++ {
		for k := 0; k < rotations; k++ {
			out, err := off.op(k, nil, 0)
			if err != nil {
				return nil, fmt.Errorf("Mode-off arm: %w", err)
			}
			sim = append(sim, out.sim.Microseconds())
			if r == 0 {
				off.digest(&out)
				out.crcs = append([]uint32(nil), out.crcs...)
				rd.ref[k] = out
			}
			// The Mode-off arm snapshots every payload. Collected now,
			// those copies do not pile up into a peak RSS that depends
			// on when the collector happened to start.
			runtime.GC()
		}
	}
	rd.offSimUs = mean(sim)
	return rd, nil
}

// accuracyCap is what accuracy_bits reads when outputs are identical:
// the mantissa width of the float64 the comparison is made in.
const accuracyCap = 52

func bitsOf(relErr float64) float64 {
	if relErr <= 0 {
		return accuracyCap
	}
	return math.Min(accuracyCap, -math.Log2(relErr))
}

// verify checks operation i's outputs against the Mode-off arm's and
// returns the accuracy they reach.
func (rd *ready) verify(i int, out opOut) (bits float64, err error) {
	ref := rd.ref[i%rotations]
	switch {
	case rd.spec.lossless:
		if out.pick != rd.algo {
			// The tuner moved to a schedule that adds in another order
			// than the reference arm's; bit identity is not defined.
			return accuracyCap, nil
		}
		if len(out.crcs) != len(ref.crcs) {
			return 0, fmt.Errorf("op %d: %d receive buffers, reference has %d", i, len(out.crcs), len(ref.crcs))
		}
		for j := range ref.crcs {
			if out.crcs[j] != ref.crcs[j] {
				return 0, fmt.Errorf("op %d: receive buffer %d differs from the Mode-off arm's (crc %08x, want %08x)", i, j, out.crcs[j], ref.crcs[j])
			}
		}
		return accuracyCap, nil
	case rd.spec.field: // lossy halos, judged by the field they produce
		rel := math.Abs(out.value-ref.value) / math.Abs(ref.value)
		if math.IsNaN(rel) || rel > 1e-2 {
			return 0, fmt.Errorf("op %d: field checksum %g strays from the Mode-off arm's %g", i, out.value, ref.value)
		}
		return bitsOf(rel), nil
	default: // lossy message, compared value by value
		if math.IsInf(out.value, 1) || math.IsNaN(out.value) {
			return 0, fmt.Errorf("op %d: received values are outside zfp.MaxError", i)
		}
		return bitsOf(out.value), nil
	}
}

// The host clock of a shared box drifts: when a neighbour is busy, memory
// contention slows the benchmark by 15-30 % for tens of seconds, on a
// time scale of a whole run. The timed run therefore times, every 250 ms,
// a fixed piece of the benchmark's own work, and reports host times at
// the speed the box has when it is quiet: each operation's time is
// multiplied by calibQuiet / the calibration nearest to it. Over sets of
// ten runs this halved the spread of every host metric on every workload
// (README.md). The program under test is not involved: a change to it
// cannot move the calibration.

// calibBuf is streamed through by calibrate: larger than the caches, so
// that the kernel feels memory contention as the workloads do.
var calibBuf = make([]uint32, 4<<20)

// calibQuiet is calibrate's median on the quiet 2-core reference box.
const calibQuiet = 2250 * time.Microsecond

// calibrate returns the median time of three passes over calibBuf, one
// stream per processor. The median keeps one descheduled pass, or the
// first pass's page faults, out of the scale of everything near it.
func calibrate() time.Duration {
	var passes [3]float64
	for i := range passes {
		passes[i] = float64(calibPass())
	}
	return time.Duration(median(passes[:]))
}

func calibPass() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	procs := runtime.GOMAXPROCS(0)
	part := len(calibBuf) / procs
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(b []uint32) {
			defer wg.Done()
			x := uint32(1)
			for i := range b {
				x = b[i]*2654435761 + x>>7
				b[i] = x
			}
		}(calibBuf[g*part : (g+1)*part])
	}
	wg.Wait()
	return time.Since(t0)
}

// atQuietSpeed scales a measured duration by what the calibration read
// when it was measured.
func atQuietSpeed(d, calib time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(calibQuiet) / float64(calib))
}

// opSample is one timed operation.
type opSample struct {
	wall, cpu time.Duration
	calib     time.Duration // the calibration nearest before the operation
	out       opOut
	bits      float64
}

// timed is a closed loop of operations on the compressed arm.
type timed struct {
	samples []opSample
	failed  int
	firstEr error
	wall    time.Duration // sum of the operations' wall times
	mem     runtime.MemStats
	mem0    runtime.MemStats
}

// measure runs operations one after another until budget is spent and
// atLeast are done (or exactly ops when ops > 0), checking every output
// after its operation, outside the timed interval.
func (rd *ready) measure(budget time.Duration, atLeast, ops int, rec *recorder) *timed {
	t := &timed{}
	runtime.GC()
	runtime.ReadMemStats(&t.mem0)
	start := time.Now()
	var lastCalib time.Time
	var calib time.Duration
	for i := 0; ; i++ {
		if time.Since(lastCalib) > 250*time.Millisecond {
			calib = calibrate()
			lastCalib = time.Now()
		}
		id := rec.begin(0, "driver", "op", i, 0)
		cpu0, t0 := cpuTime(), time.Now()
		out, err := rd.on.op(i, rec, id)
		smp := opSample{wall: time.Since(t0), cpu: cpuTime() - cpu0, calib: calib}
		rec.end(id)
		if err == nil {
			rd.on.digest(&out)
			smp.bits, err = rd.verify(i, out)
		}
		if err != nil {
			t.failed++
			if t.firstEr == nil {
				t.firstEr = err
			}
		}
		smp.out = out
		smp.out.crcs = nil
		t.samples = append(t.samples, smp)
		t.wall += smp.wall
		if ops > 0 && i+1 == ops {
			break
		}
		if ops == 0 && i+1 >= atLeast && time.Since(start) >= budget {
			break
		}
	}
	runtime.ReadMemStats(&t.mem)
	return t
}

func (t *timed) calibMs() []float64 {
	out := make([]float64, len(t.samples))
	for i, s := range t.samples {
		out[i] = ms(s.calib)
	}
	return out
}

// quietMs returns the operations' wall times at the box's quiet speed.
func (t *timed) quietMs() []float64 {
	out := make([]float64, len(t.samples))
	for i, s := range t.samples {
		out[i] = ms(atQuietSpeed(s.wall, s.calib))
	}
	return out
}

func (t *timed) wallMs() []float64 {
	out := make([]float64, len(t.samples))
	for i, s := range t.samples {
		out[i] = ms(s.wall)
	}
	return out
}

// simUs returns the simulated latency of each operation of the whole
// rotations run, so that the mean does not depend on where the time
// budget happened to end.
func (t *timed) simUs() []float64 {
	n := len(t.samples)
	if n >= rotations {
		n -= n % rotations
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = t.samples[i].out.sim.Microseconds()
	}
	return out
}

// release drops a finished set-up's worlds and returns their memory, so
// that the next set-up does not add to the peak.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}
