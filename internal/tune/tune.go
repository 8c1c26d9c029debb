// Package tune implements a deterministic online autotuner for the
// collective algorithm space mpi.AllreduceSum dispatches over, the
// schedule table of internal/sched. One Tuner instance is shared by every
// rank in a world (it is the concrete mpi.CollTuner); picks are pure
// functions of a committed epoch snapshot, and the latencies observed
// during an epoch sit in a pending set that folds into the snapshot only
// at Advance, in sorted order, so the tuner's state after N epochs is
// independent of goroutine scheduling, codec worker count, and the order
// ranks happen to report in.
//
// The selector keys on (size class, rank count, topology class) and
// scores each candidate schedule with an EMA of measured virtual-time
// latency; it prices nothing. Until every candidate for a key has at
// least one folded sample the tuner explores: unsampled candidates are
// tried in schedule-table order, with the configured seed rotating the
// starting point. From then on the pick is the argmin of the measured
// EMAs, so on flat layouts the committed state is the same for every seed
// (TestTunerMatchesOracleOnFlatWorlds). Warm-started keys (loaded from a
// persisted Table) arrive with samples, so they do not re-explore.
package tune

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"mpicomp/internal/hw"
	"mpicomp/internal/netsim"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// latQuantum quantizes folded latency observations. Ragged compressed
// transfers racing a shared adapter calendar can swap sub-microsecond
// interval assignments between ranks (see DESIGN.md §13); quantizing
// before the EMA fold keeps scores — and therefore future picks —
// stable across those swaps.
const latQuantum = 1024 // nanoseconds

// emaShift is the EMA decay: new = old + (sample-old)/2^emaShift.
const emaShift = 2

// Key identifies one tuning-table bucket.
type Key struct {
	// SizeClass is ceil(log2(bytes)): messages within a power-of-two
	// band share a bucket.
	SizeClass int
	// Ranks is the communicator size.
	Ranks int
	// Topo is the netsim topology class of the world's node grouping.
	Topo netsim.TopoClass
}

// sizeClass buckets a byte count: 0 for <=1 byte, else ceil(log2 n).
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

func keyOf(p sched.TunePoint) Key {
	return Key{SizeClass: sizeClass(p.Bytes), Ranks: p.Ranks, Topo: netsim.ClassifyTopo(p.Nodes, p.PPN)}
}

// score is one candidate's committed standing within a key.
type score struct {
	emaNanos int64
	samples  int64
}

// entry is the committed state for one key: each sampled candidate's score.
type entry map[sched.AllreduceAlgo]*score

// latObs is one rank's pending latency report.
type latObs struct {
	key   Key
	algo  sched.AllreduceAlgo
	op    uint64
	nanos int64
}

// Options configures NewTuner.
type Options struct {
	// Seed rotates the starting point of the exploration walk. Any
	// fixed seed is exactly reproducible.
	Seed int64
	// Cluster is not read: the tuner prices nothing. It is kept for the
	// frozen bench/ alone and goes in ROADMAP item 1's [benchmark] PR.
	Cluster hw.Cluster
	// Table, when non-nil, warm-starts the tuner: its entries become
	// the committed snapshot, so loaded keys skip the exploration phase.
	Table *Table
}

// Tuner is a deterministic online selector for AllreduceSum schedules.
// One instance is shared across all ranks of a world; it satisfies
// mpi.CollTuner.
type Tuner struct {
	mu   sync.Mutex
	seed int64

	// Committed snapshot: the only state Pick reads.
	entries   map[Key]entry
	epochs    int64
	pickCount map[sched.AllreduceAlgo]int64

	// Pending: appended during an epoch, folded at Advance.
	pendLat []latObs
}

// NewTuner builds a tuner, optionally warm-started from a table. The
// table must already have passed Validate (ParseTable guarantees it).
func NewTuner(opt Options) *Tuner {
	t := &Tuner{
		seed:      opt.Seed,
		entries:   make(map[Key]entry),
		pickCount: make(map[sched.AllreduceAlgo]int64),
	}
	if opt.Table != nil {
		for _, te := range opt.Table.Entries {
			e := make(entry)
			for _, s := range te.Scores {
				a, err := parseAlgoName(s.Algo)
				if err != nil {
					continue // Validate rejects unknown names; belt and braces
				}
				e[a] = &score{emaNanos: s.EmaNanos, samples: s.Samples}
			}
			t.entries[Key{SizeClass: te.SizeClass, Ranks: te.Ranks, Topo: netsim.TopoClass(te.Topo)}] = e
		}
	}
	return t
}

// candidatesFor returns the schedule space for a point, in tie-break
// order: the table's tuner candidates, two-level among them on hierarchical
// topologies only. The historical reduce+broadcast and the blocking ring
// oracle are not contenders.
func candidatesFor(p sched.TunePoint) []sched.AllreduceAlgo {
	return sched.AllreduceCandidates(netsim.ClassifyTopo(p.Nodes, p.PPN) == netsim.TopoHierarchical)
}

// PickAllreduce selects the schedule for one collective call. It reads
// only the committed snapshot, so every rank of the same op computes
// the same answer regardless of interleaving.
func (t *Tuner) PickAllreduce(p sched.TunePoint) sched.AllreduceAlgo {
	t.mu.Lock()
	defer t.mu.Unlock()
	cands := candidatesFor(p)
	e := t.entries[keyOf(p)]

	// Exploration phase: while any candidate lacks a folded sample, walk
	// the unsampled set in table order from a seed-rotated offset.
	var unsampled []sched.AllreduceAlgo
	for _, a := range cands {
		if e[a] == nil || e[a].samples == 0 {
			unsampled = append(unsampled, a)
		}
	}
	if len(unsampled) > 0 {
		return unsampled[int(uint64(t.seed)%uint64(len(unsampled)))]
	}

	// Exploitation: argmin committed EMA, enum order breaking ties.
	best := cands[0]
	bestScore := e[best].emaNanos
	for _, a := range cands[1:] {
		if s := e[a].emaNanos; s < bestScore {
			best, bestScore = a, s
		}
	}
	return best
}

// ObserveAllreduce queues one rank's measured latency; it is folded at
// the next Advance.
func (t *Tuner) ObserveAllreduce(p sched.TunePoint, algo sched.AllreduceAlgo, elapsed simtime.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pendLat = append(t.pendLat, latObs{key: keyOf(p), algo: algo, op: p.Op, nanos: int64(elapsed)})
}

// Advance folds everything pending into the committed snapshot. Call
// it only at world-synchronous points (between World.Run invocations);
// the fold sorts the pending set first, so the committed state is
// independent of the order observations arrived in.
func (t *Tuner) Advance() {
	t.mu.Lock()
	defer t.mu.Unlock()

	// Latencies: group by (key, algo, op), take the max across ranks
	// (a collective is as slow as its slowest rank), quantize, and
	// EMA-fold groups in ascending op order.
	sort.Slice(t.pendLat, func(i, j int) bool { return latLess(t.pendLat[i], t.pendLat[j]) })
	for i := 0; i < len(t.pendLat); {
		o := t.pendLat[i]
		j := i
		var maxNanos int64
		for ; j < len(t.pendLat) && t.pendLat[j].key == o.key && t.pendLat[j].algo == o.algo && t.pendLat[j].op == o.op; j++ {
			if t.pendLat[j].nanos > maxNanos {
				maxNanos = t.pendLat[j].nanos
			}
		}
		x := maxNanos - maxNanos%latQuantum
		e := t.entries[o.key]
		if e == nil {
			e = make(entry)
			t.entries[o.key] = e
		}
		s := e[o.algo]
		if s == nil {
			s = &score{}
			e[o.algo] = s
		}
		if s.samples == 0 {
			s.emaNanos = x
		} else {
			s.emaNanos += (x - s.emaNanos) >> emaShift
		}
		s.samples++
		t.pickCount[o.algo]++
		i = j
	}
	t.pendLat = t.pendLat[:0]
	t.epochs++
}

func latLess(a, b latObs) bool {
	if a.key != b.key {
		return keyLess(a.key, b.key)
	}
	if a.algo != b.algo {
		return a.algo < b.algo
	}
	if a.op != b.op {
		return a.op < b.op
	}
	return a.nanos < b.nanos
}

func keyLess(a, b Key) bool {
	if a.SizeClass != b.SizeClass {
		return a.SizeClass < b.SizeClass
	}
	if a.Ranks != b.Ranks {
		return a.Ranks < b.Ranks
	}
	return a.Topo < b.Topo
}

// Snapshot exports the committed state as a canonical Table (entries
// and scores sorted), suitable for Marshal and a later warm start.
func (t *Tuner) Snapshot() *Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]Key, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	tab := &Table{Version: TableVersion}
	for _, k := range keys {
		e := t.entries[k]
		te := Entry{SizeClass: k.SizeClass, Ranks: k.Ranks, Topo: string(k.Topo)}
		algos := make([]sched.AllreduceAlgo, 0, len(e))
		for a := range e {
			algos = append(algos, a)
		}
		// Canonical order is by name, matching ParseTable, so Marshal
		// of a snapshot is already the fixpoint form.
		sort.Slice(algos, func(i, j int) bool { return algos[i].String() < algos[j].String() })
		for _, a := range algos {
			s := e[a]
			te.Scores = append(te.Scores, Score{Algo: a.String(), EmaNanos: s.emaNanos, Samples: s.samples})
		}
		tab.Entries = append(tab.Entries, te)
	}
	return tab
}

// StatsLine renders the deterministic one-line summary ombrun prints
// as "# tune: ...": epochs folded, table size and per-algo folded pick
// counts (enum order).
func (t *Tuner) StatsLine() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	picks := ""
	for _, a := range sched.AllreduceAlgos() {
		if n := t.pickCount[a]; n > 0 {
			if picks != "" {
				picks += " "
			}
			picks += fmt.Sprintf("%s:%d", a, n)
		}
	}
	if picks == "" {
		picks = "-"
	}
	return fmt.Sprintf("# tune: epochs=%d entries=%d picks={%s}", t.epochs, len(t.entries), picks)
}
