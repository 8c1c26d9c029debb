// Package tune implements a deterministic online autotuner for the
// collective algorithm space mpi.AllreduceSum dispatches over. One
// Tuner instance is shared by every rank in a world (it is the
// concrete mpi.CollTuner); picks are pure functions of a committed
// epoch snapshot, and everything learned during an epoch — latency
// observations, compressibility probe samples, engine counters — sits
// in a pending set that folds into the snapshot only at Advance, in
// sorted order, so the tuner's state after N epochs is independent of
// goroutine scheduling, codec worker count, and the order ranks happen
// to report in.
//
// The selector keys on (size class, rank count, topology class) and
// scores each candidate schedule with an EMA of measured virtual-time
// latency, seeded by an alpha-beta cost model whose effective
// bandwidth term is discounted by the measured compressibility (a
// cheap first-touch probe: XOR-delta leading-zero-byte coding over a
// bounded sample, the same value locality MPC exploits) and by the
// fraction of traffic that actually compressed (pool fallbacks and
// breaker bypasses shrink the effective ratio toward 1). Until every
// candidate for a key has at least one folded sample the tuner
// explores: unsampled candidates are tried in ascending predicted
// cost, with the configured seed rotating the starting point, so
// different seeds walk the space in different orders while any fixed
// seed is exactly reproducible. Warm-started keys (loaded from a
// persisted Table) arrive with samples and a ratio, so they neither
// re-probe nor re-explore.
package tune

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/netsim"
	"mpicomp/internal/simtime"
)

// chunkCandidates is the pipeline chunk-size menu RecommendChunk
// scores with the cost model.
var chunkCandidates = []int{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20}

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

func keyOf(p mpi.TunePoint) Key {
	return Key{SizeClass: sizeClass(p.Bytes), Ranks: p.Ranks, Topo: netsim.ClassifyTopo(p.Nodes, p.PPN)}
}

// score is one candidate's committed standing within a key.
type score struct {
	emaNanos int64
	samples  int64
}

// entry is the committed state for one key.
type entry struct {
	ratioMilli int64 // measured compressibility x1000; 0 = not yet probed
	scores     map[mpi.AllreduceAlgo]*score
}

// latObs is one rank's pending latency report.
type latObs struct {
	key   Key
	algo  mpi.AllreduceAlgo
	op    uint64
	nanos int64
}

// probeObs is one pending compressibility sample, reduced to the two
// integers whose sums the fold needs (sums commute, so arrival order
// cannot matter).
type probeObs struct {
	key       Key
	origBytes int64
	estBytes  int64
}

// Counters carries engine activity the tuner adapts from: the
// compressed/fallback split discounts the effective ratio the cost
// model uses, and cache/pipeline figures ride into the stats line.
type Counters struct {
	Compressions    int64
	Bypasses        int64
	PoolFallbacks   int64
	CacheHits       int64
	CacheMisses     int64
	PipelinedChunks int64
}

func (c *Counters) add(d Counters) {
	c.Compressions += d.Compressions
	c.Bypasses += d.Bypasses
	c.PoolFallbacks += d.PoolFallbacks
	c.CacheHits += d.CacheHits
	c.CacheMisses += d.CacheMisses
	c.PipelinedChunks += d.PipelinedChunks
}

// WorldCounters sums the engine activity the tuner adapts from across every
// rank of w — what a driver hands NoteCounters before each Advance. All
// counters derive from program order and seeded fates, so the sum is
// deterministic.
func WorldCounters(w *mpi.World) Counters {
	var c Counters
	for r := 0; r < w.Size(); r++ {
		e := w.Rank(r).Engine
		c.add(Counters{
			Compressions: int64(e.Compressions), Bypasses: int64(e.Bypasses),
			PoolFallbacks: int64(e.PoolFallbacks), CacheHits: int64(e.CacheHits),
			CacheMisses: int64(e.CacheMisses), PipelinedChunks: int64(e.PipelinedChunks),
		})
	}
	return c
}

// Options configures NewTuner.
type Options struct {
	// Seed rotates the exploration order among candidates whose
	// predicted costs tie. Any fixed seed is exactly reproducible.
	Seed int64
	// Cluster supplies the link parameters the cost model prices
	// schedules with.
	Cluster hw.Cluster
	// Table, when non-nil, warm-starts the tuner: its entries become
	// the committed snapshot, so loaded keys skip both the ratio probe
	// and the exploration phase.
	Table *Table
}

// Tuner is a deterministic online selector for AllreduceSum schedules.
// One instance is shared across all ranks of a world; it satisfies
// mpi.CollTuner.
type Tuner struct {
	mu      sync.Mutex
	seed    int64
	cluster hw.Cluster

	// Committed snapshot: the only state Pick and NeedProbe read.
	entries       map[Key]*entry
	ctr           Counters
	fallbackMilli int64 // fraction (x1000) of messages that fell back uncompressed
	epochs        int64
	probeCount    int64
	pickCount     map[mpi.AllreduceAlgo]int64

	// Pending: appended during an epoch, folded at Advance.
	pendLat   []latObs
	pendProbe []probeObs
	pendCtr   Counters
}

// NewTuner builds a tuner, optionally warm-started from a table. The
// table must already have passed Validate (ParseTable guarantees it).
func NewTuner(opt Options) *Tuner {
	t := &Tuner{
		seed:      opt.Seed,
		cluster:   opt.Cluster,
		entries:   make(map[Key]*entry),
		pickCount: make(map[mpi.AllreduceAlgo]int64),
	}
	if opt.Table != nil {
		for _, te := range opt.Table.Entries {
			e := &entry{ratioMilli: te.RatioMilli, scores: make(map[mpi.AllreduceAlgo]*score)}
			for _, s := range te.Scores {
				a, err := parseAlgoName(s.Algo)
				if err != nil {
					continue // Validate rejects unknown names; belt and braces
				}
				e.scores[a] = &score{emaNanos: s.EmaNanos, samples: s.Samples}
			}
			t.entries[Key{SizeClass: te.SizeClass, Ranks: te.Ranks, Topo: netsim.TopoClass(te.Topo)}] = e
		}
	}
	return t
}

// candidatesFor returns the schedule space for a point, in tie-break
// order: mpi's tuner candidates, two-level among them on hierarchical
// topologies only. The historical reduce+broadcast and the blocking ring
// oracle are not contenders.
func candidatesFor(p mpi.TunePoint) []mpi.AllreduceAlgo {
	return mpi.AllreduceCandidates(netsim.ClassifyTopo(p.Nodes, p.PPN) == netsim.TopoHierarchical)
}

// PickAllreduce selects the schedule for one collective call. It reads
// only the committed snapshot, so every rank of the same op computes
// the same answer regardless of interleaving.
func (t *Tuner) PickAllreduce(p mpi.TunePoint) mpi.AllreduceAlgo {
	t.mu.Lock()
	defer t.mu.Unlock()
	cands := candidatesFor(p)
	e := t.entries[keyOf(p)]
	ratio := int64(1000)
	if e != nil && e.ratioMilli > 0 {
		ratio = t.effRatioMilliLocked(e.ratioMilli)
	}

	// Exploration phase: while any candidate lacks a folded sample,
	// walk the unsampled set in ascending predicted cost, starting at
	// a seed-rotated offset.
	var unsampled []mpi.AllreduceAlgo
	for _, a := range cands {
		if e == nil || e.scores[a] == nil || e.scores[a].samples == 0 {
			unsampled = append(unsampled, a)
		}
	}
	if len(unsampled) > 0 {
		sort.SliceStable(unsampled, func(i, j int) bool {
			ci := t.predictNanos(unsampled[i], p, ratio)
			cj := t.predictNanos(unsampled[j], p, ratio)
			if ci != cj {
				return ci < cj
			}
			return unsampled[i] < unsampled[j]
		})
		idx := int(uint64(t.seed) % uint64(len(unsampled)))
		return unsampled[idx]
	}

	// Exploitation: argmin committed EMA, enum order breaking ties.
	best := cands[0]
	bestScore := e.scores[best].emaNanos
	for _, a := range cands[1:] {
		if s := e.scores[a].emaNanos; s < bestScore {
			best, bestScore = a, s
		}
	}
	return best
}

// ObserveAllreduce queues one rank's measured latency; it is folded at
// the next Advance.
func (t *Tuner) ObserveAllreduce(p mpi.TunePoint, algo mpi.AllreduceAlgo, elapsed simtime.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pendLat = append(t.pendLat, latObs{key: keyOf(p), algo: algo, op: p.Op, nanos: int64(elapsed)})
}

// NeedProbe reports whether the point's key still lacks a
// compressibility estimate. Warm-started keys arrive with one, so they
// never re-probe.
func (t *Tuner) NeedProbe(p mpi.TunePoint) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[keyOf(p)]
	return e == nil || e.ratioMilli == 0
}

// ObserveProbeSample reduces a first-touch sample to (original,
// estimated) byte sums and queues them; the ratio commits at Advance.
func (t *Tuner) ObserveProbeSample(p mpi.TunePoint, sample []byte) {
	orig, est := estimateSample(sample)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pendProbe = append(t.pendProbe, probeObs{key: keyOf(p), origBytes: orig, estBytes: est})
}

// NoteCounters queues engine activity totals (summed over all ranks'
// engines by the caller) for folding at Advance.
func (t *Tuner) NoteCounters(c Counters) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.pendCtr.add(c)
}

// Advance folds everything pending into the committed snapshot. Call
// it only at world-synchronous points (between World.Run invocations);
// the fold sorts each pending set first, so the committed state is
// independent of the order observations arrived in.
func (t *Tuner) Advance() {
	t.mu.Lock()
	defer t.mu.Unlock()

	// Probes: per-key integer sums (commutative), then one ratio.
	sort.Slice(t.pendProbe, func(i, j int) bool { return probeLess(t.pendProbe[i], t.pendProbe[j]) })
	for i := 0; i < len(t.pendProbe); {
		j := i
		var orig, est int64
		for ; j < len(t.pendProbe) && t.pendProbe[j].key == t.pendProbe[i].key; j++ {
			orig += t.pendProbe[j].origBytes
			est += t.pendProbe[j].estBytes
		}
		e := t.entryLocked(t.pendProbe[i].key)
		if e.ratioMilli == 0 && est > 0 {
			e.ratioMilli = orig * 1000 / est
			if e.ratioMilli < 1000 {
				e.ratioMilli = 1000 // estimator overhead never expands on the wire: bypass floor
			}
		}
		t.probeCount += int64(j - i)
		i = j
	}
	t.pendProbe = t.pendProbe[:0]

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
		e := t.entryLocked(o.key)
		s := e.scores[o.algo]
		if s == nil {
			s = &score{}
			e.scores[o.algo] = s
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

	// Counters: running totals plus the fallback fraction the cost
	// model discounts compressibility by.
	t.ctr.add(t.pendCtr)
	t.pendCtr = Counters{}
	if total := t.ctr.Compressions + t.ctr.PoolFallbacks; total > 0 {
		t.fallbackMilli = t.ctr.PoolFallbacks * 1000 / total
	}
	t.epochs++
}

func probeLess(a, b probeObs) bool {
	if a.key != b.key {
		return keyLess(a.key, b.key)
	}
	if a.origBytes != b.origBytes {
		return a.origBytes < b.origBytes
	}
	return a.estBytes < b.estBytes
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

func (t *Tuner) entryLocked(k Key) *entry {
	e := t.entries[k]
	if e == nil {
		e = &entry{scores: make(map[mpi.AllreduceAlgo]*score)}
		t.entries[k] = e
	}
	return e
}

// effRatioMilliLocked discounts a measured ratio by the fraction of
// traffic that fell back uncompressed (pool exhaustion): wire bytes
// saved only apply to the messages that actually compressed.
func (t *Tuner) effRatioMilliLocked(ratioMilli int64) int64 {
	return 1000 + (ratioMilli-1000)*(1000-t.fallbackMilli)/1000
}

// estimateSample prices a buffer prefix under an XOR-delta
// leading-zero-byte code — the same word-neighbor value locality MPC
// exploits — using only integer ops. Returns (original, estimated)
// byte counts for commutative sum-folding.
func estimateSample(sample []byte) (orig, est int64) {
	words := len(sample) / 4
	if words < 2 {
		return int64(len(sample)), int64(len(sample))
	}
	prev := binary.LittleEndian.Uint32(sample[0:4])
	est = 5 // first word: tag byte + raw word
	for i := 1; i < words; i++ {
		w := binary.LittleEndian.Uint32(sample[4*i:])
		lzBytes := bits.LeadingZeros32(w^prev) / 8
		est += int64(1 + 4 - lzBytes)
		prev = w
	}
	return int64(words * 4), est
}

// predictNanos prices one schedule with the alpha-beta model.
// ratioMilli is the effective compression ratio (x1000) applied to
// wire bytes on the compressed (inter-node, or only) link.
func (t *Tuner) predictNanos(algo mpi.AllreduceAlgo, p mpi.TunePoint, ratioMilli int64) int64 {
	link := t.cluster.InterNode
	if netsim.ClassifyTopo(p.Nodes, p.PPN) == netsim.TopoSingleNode {
		link = t.cluster.IntraNode
	}
	alpha := int64(link.Latency + link.PerMsgOverhead)
	n := int64(p.Bytes)
	nw := n * 1000 / ratioMilli
	pp := int64(p.Ranks)
	if pp < 2 {
		return alpha
	}
	logP := int64(bits.Len(uint(pp - 1))) // ceil(log2 P)
	wire := func(bytes int64) int64 {
		if bytes <= 0 {
			return 0
		}
		return int64(simtime.TransferTime(int(bytes), link.BandwidthGBps))
	}
	switch algo {
	case mpi.AllreduceRing:
		return 2*(pp-1)*alpha + wire(2*nw*(pp-1)/pp)
	case mpi.AllreduceRecursiveDoubling:
		return logP * (alpha + wire(nw))
	case mpi.AllreduceRabenseifner:
		return 2*logP*alpha + wire(2*nw*(pp-1)/pp)
	case mpi.AllreduceTwoLevel:
		intra := t.cluster.IntraNode
		ai := int64(intra.Latency + intra.PerMsgOverhead)
		ppn := int64(p.PPN)
		nodes := int64(p.Nodes)
		if ppn < 1 {
			ppn = 1
		}
		if nodes < 1 {
			nodes = 1
		}
		intraWire := func(bytes int64) int64 {
			if bytes <= 0 {
				return 0
			}
			return int64(simtime.TransferTime(int(bytes), intra.BandwidthGBps))
		}
		local := 2 * (ppn - 1) * (ai + intraWire(n))
		logN := int64(bits.Len(uint(nodes - 1)))
		return local + logN*(alpha+wire(nw))
	default:
		// Historical reduce+broadcast: two binomial trees moving the
		// whole vector per hop.
		return 2 * logP * (alpha + wire(nw))
	}
}

// PredictNanos exposes the cost model for benches and the recommend
// helpers: the schedule's predicted latency at the tuner's current
// effective ratio for the point's key.
func (t *Tuner) PredictNanos(algo mpi.AllreduceAlgo, p mpi.TunePoint) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ratio := int64(1000)
	if e := t.entries[keyOf(p)]; e != nil && e.ratioMilli > 0 {
		ratio = t.effRatioMilliLocked(e.ratioMilli)
	}
	return t.predictNanos(algo, p, ratio)
}

// RecommendChunk scores the pipeline chunk-size menu for a point with
// the cost model: chunks pay a per-chunk alpha but overlap the wire,
// so the winner balances (P-1+numChunks) pipeline stages against
// per-stage cost. Ties go to the smaller chunk.
func (t *Tuner) RecommendChunk(p mpi.TunePoint) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	ratio := int64(1000)
	if e := t.entries[keyOf(p)]; e != nil && e.ratioMilli > 0 {
		ratio = t.effRatioMilliLocked(e.ratioMilli)
	}
	return t.recommendChunkLocked(p, ratio)
}

func (t *Tuner) recommendChunkLocked(p mpi.TunePoint, ratioMilli int64) int {
	link := t.cluster.InterNode
	if netsim.ClassifyTopo(p.Nodes, p.PPN) == netsim.TopoSingleNode {
		link = t.cluster.IntraNode
	}
	alpha := int64(link.Latency + link.PerMsgOverhead)
	pp := int64(p.Ranks)
	if pp < 2 {
		pp = 2
	}
	per := int64(p.Bytes) / pp // ring block each stage relays
	if per < 1 {
		per = 1
	}
	perWire := per * 1000 / ratioMilli
	best, bestCost := chunkCandidates[0], int64(-1)
	for _, c := range chunkCandidates {
		chunks := (perWire + int64(c) - 1) / int64(c)
		if chunks < 1 {
			chunks = 1
		}
		stage := alpha + int64(simtime.TransferTime(int(minInt64(perWire, int64(c))), link.BandwidthGBps))
		cost := (pp - 1 + chunks) * stage
		if bestCost < 0 || cost < bestCost {
			best, bestCost = c, cost
		}
	}
	return best
}

// codecHint names the codec the measured ratio justifies: below ~5%
// savings the compression pipeline is pure overhead.
func codecHint(ratioMilli int64) string {
	if ratioMilli >= 1050 {
		return "mpc"
	}
	return "none"
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
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
	tab := &Table{Version: TableVersion, Seed: t.seed}
	for _, k := range keys {
		e := t.entries[k]
		te := Entry{
			SizeClass:  k.SizeClass,
			Ranks:      k.Ranks,
			Topo:       string(k.Topo),
			RatioMilli: e.ratioMilli,
			ChunkBytes: t.recommendChunkForKeyLocked(k, e),
			CodecHint:  codecHint(e.ratioMilli),
		}
		algos := make([]mpi.AllreduceAlgo, 0, len(e.scores))
		for a := range e.scores {
			algos = append(algos, a)
		}
		// Canonical order is by name, matching ParseTable, so Marshal
		// of a snapshot is already the fixpoint form.
		sort.Slice(algos, func(i, j int) bool { return algos[i].String() < algos[j].String() })
		for _, a := range algos {
			s := e.scores[a]
			te.Scores = append(te.Scores, Score{Algo: a.String(), EmaNanos: s.emaNanos, Samples: s.samples})
		}
		tab.Entries = append(tab.Entries, te)
	}
	return tab
}

// recommendChunkForKeyLocked reconstructs a representative point from
// the key (2^sizeClass bytes, flat vs hierarchical shape) and scores
// the chunk menu for the snapshot's chunk_bytes column.
func (t *Tuner) recommendChunkForKeyLocked(k Key, e *entry) int {
	bytes := 1
	if k.SizeClass > 0 && k.SizeClass < 31 {
		bytes = 1 << k.SizeClass
	}
	nodes, ppn := k.Ranks, 1
	switch k.Topo {
	case netsim.TopoSingleNode:
		nodes, ppn = 1, k.Ranks
	case netsim.TopoHierarchical:
		if k.Ranks%2 == 0 {
			nodes, ppn = k.Ranks/2, 2
		}
	}
	p := mpi.TunePoint{Bytes: bytes, Ranks: k.Ranks, Nodes: nodes, PPN: ppn}
	ratio := int64(1000)
	if e.ratioMilli > 0 {
		ratio = t.effRatioMilliLocked(e.ratioMilli)
	}
	return t.recommendChunkLocked(p, ratio)
}

// StatsLine renders the deterministic one-line summary ombrun prints
// as "# tune: ...": epochs folded, probes taken, table size, per-algo
// folded pick counts (enum order), and the fallback discount.
func (t *Tuner) StatsLine() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	picks := ""
	for _, a := range mpi.AllreduceAlgos() {
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
	return fmt.Sprintf("# tune: epochs=%d probes=%d entries=%d picks={%s} fallback_milli=%d",
		t.epochs, t.probeCount, len(t.entries), picks, t.fallbackMilli)
}
