// Package faults is the deterministic fault-injection fabric for the
// simulated cluster. A real deployment of the paper's library rides on
// InfiniBand retransmission and MVAPICH2's progress engine for reliability;
// the simulation has neither, so this package supplies the adversary those
// layers defend against: dropped control/data messages, bit flips on wire
// payloads, and transient link-bandwidth degradation.
//
// Every decision is a pure function of (seed, event identity) — a hash of
// the message kind, endpoints, per-sender sequence number, and transmission
// attempt — never a draw from a shared sequential RNG. Rank goroutines
// reach the injector in arbitrary wall-clock order, so sequential draws
// would make fault placement depend on the host scheduler; hashing keeps
// every run bit-for-bit reproducible from the seed alone, which is what
// lets the chaos soak tests assert exact outcomes.
package faults

import (
	"fmt"
	"sync/atomic"

	"mpicomp/internal/simtime"
)

// Kind identifies the class of wire event a decision applies to. Distinct
// kinds hash independently, so (for example) an RTS and the data transfer
// of the same message attempt see independent fates.
type Kind uint8

const (
	// KindRTS is the rendezvous ready-to-send control packet.
	KindRTS Kind = iota + 1
	// KindCTS is the rendezvous clear-to-send control packet.
	KindCTS
	// KindData is the rendezvous payload transfer.
	KindData
	// KindEager is an eager-protocol message (header + payload in one).
	KindEager
	// KindCrash is a crash-stop process failure: the rank halts at a
	// seeded onset instant and never communicates again.
	KindCrash
	// KindSilence is a silent-peer failure: the rank's process survives
	// but from the onset instant none of its traffic reaches the fabric
	// (a partitioned NIC, a wedged progress thread).
	KindSilence
	// KindCodec is a compression-path fault: the compressed payload of a
	// transfer attempt is corrupted by the codec stage itself (a flaky
	// compression engine), so falling back to the uncompressed path
	// genuinely avoids it — unlike wire corruption, which hits any bytes.
	KindCodec
	// KindChunk is one chunk of a pipelined (or chunked-relay) transfer.
	// Chunk decisions carry the chunk index as its own hash field
	// (eventKey), so chunk fates never alias each other or any
	// whole-message event regardless of how large the sequence number or
	// chunk count grows.
	KindChunk
	// KindChunkFate covers the chunk-specific delivery fates — duplicate
	// and reorder — drawn once per chunk (not per attempt).
	KindChunkFate
	// KindLink is a link-level fabric fate: a node pair's link flaps with
	// a seeded phase — periodically down for a duty fraction of each
	// cycle. Link fates are drawn once per unordered node pair.
	KindLink
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRTS:
		return "RTS"
	case KindCTS:
		return "CTS"
	case KindData:
		return "data"
	case KindEager:
		return "eager"
	case KindCrash:
		return "crash"
	case KindSilence:
		return "silence"
	case KindCodec:
		return "codec"
	case KindChunk:
		return "chunk"
	case KindChunkFate:
		return "chunk-fate"
	case KindLink:
		return "link"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultDegradeFactor is the bandwidth multiplier applied during a
// degraded window when Config.DegradeFactor is zero.
const DefaultDegradeFactor = 0.25

// DegradeWindow is the duration of one degrade decision window on the
// virtual clock: the link's fate is re-rolled per window.
const DegradeWindow = simtime.Millisecond

// MaxFlips bounds the bit flips applied to one corrupted payload.
const MaxFlips = 4

// DefaultFailWindow is the virtual-time horizon within which a fated
// rank's crash/silence onset is drawn when Config.FailWindow is zero.
const DefaultFailWindow = 2 * simtime.Millisecond

// Config describes the fault model of one run. The zero value injects
// nothing (Enabled reports false).
type Config struct {
	// Seed drives every decision; two runs with equal seeds and equal
	// communication plans see identical faults.
	Seed int64
	// CorruptRate is the per-attempt probability that a payload transfer
	// (rendezvous data or eager message) arrives with flipped bits.
	CorruptRate float64
	// DropRate is the per-attempt probability that a message (RTS, CTS,
	// data, or eager) is lost on the wire.
	DropRate float64
	// DegradeRate is the per-window probability that a node pair's link
	// runs at DegradeFactor of its nominal bandwidth.
	DegradeRate float64
	// DegradeFactor is the bandwidth multiplier inside a degraded window
	// (0 means DefaultDegradeFactor).
	DegradeFactor float64
	// CrashRate is the per-rank probability of a crash-stop failure: the
	// rank halts at a seeded onset instant within FailWindow.
	CrashRate float64
	// SilentRate is the per-rank probability of a silent-peer failure
	// (evaluated only for ranks that did not draw a crash): the rank's
	// traffic stops reaching the fabric at the onset instant.
	SilentRate float64
	// FailWindow is the virtual-time horizon for crash/silence onsets
	// (0 means DefaultFailWindow).
	FailWindow simtime.Duration
	// CodecRate is the per-attempt probability that the codec stage
	// corrupts a *compressed* payload transfer. Uncompressed payloads are
	// immune, which is what makes circuit-breaker fallback effective.
	CodecRate float64
	// CodecUntil, when positive, limits codec faults to transfer attempts
	// whose ready instant is before this virtual time — a flaky codec
	// that heals, used to exercise breaker half-open -> closed.
	CodecUntil simtime.Duration
	// ChunkDropRate / ChunkCorruptRate are the per-attempt probabilities
	// that one chunk of a pipelined transfer is lost or bit-flipped.
	// Zero falls back to DropRate / CorruptRate, so a generic lossy-wire
	// config exercises the chunked path too; a non-zero value targets
	// chunks specifically.
	ChunkDropRate    float64
	ChunkCorruptRate float64
	// ChunkDuplicateRate is the per-chunk probability that the fabric
	// delivers a chunk twice: the duplicate burns wire bandwidth but the
	// receiver discards it by (seq, chunk) identity.
	ChunkDuplicateRate float64
	// ChunkReorderRate is the per-chunk probability that a chunk is held
	// back in the fabric by ReorderDelay, landing after its successors —
	// the receiver must reassemble out of order.
	ChunkReorderRate float64
	// LinkFlapRate is the per-node-pair probability the link flaps:
	// periodically down for FlapDuty of each FlapPeriod cycle, with a
	// seeded phase. Intra-node "links" (a rank pair on one node) never
	// flap.
	LinkFlapRate float64
	// FlapPeriod is the flap cycle length (0 means DefaultFlapPeriod).
	FlapPeriod simtime.Duration
	// FlapDuty is the down fraction of each flap cycle, clamped to
	// (0, 1); 0 means DefaultFlapDuty.
	FlapDuty float64
	// PartitionGroups, when non-empty, is an explicit partition plan over
	// node ids: during [PartitionAt, PartitionHeal) every link between
	// nodes in *different* groups is down. Nodes absent from every group
	// keep all their links (only listed cross-group pairs sever). A hard
	// outage of one link is a plan over two single-node groups.
	PartitionGroups [][]int
	// PartitionAt / PartitionHeal bound the partition window. A heal at
	// or before the onset gets DefaultPartitionSpan added at the onset.
	PartitionAt   simtime.Duration
	PartitionHeal simtime.Duration
}

// ReorderDelay is the fabric holdback of a reordered chunk: long enough to
// land a chunk after several successors at realistic chunk transfer times.
const ReorderDelay = 200 * simtime.Microsecond

// DefaultFlapPeriod is the flap cycle length when Config.FlapPeriod is zero.
const DefaultFlapPeriod = 400 * simtime.Microsecond

// DefaultFlapDuty is the down fraction of a flap cycle when Config.FlapDuty
// is zero or out of range: down 1/4 of every cycle.
const DefaultFlapDuty = 0.25

// DefaultPartitionSpan is the partition window length when the configured
// heal instant does not lie after the onset.
const DefaultPartitionSpan = simtime.Millisecond

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.CorruptRate > 0 || c.DropRate > 0 || c.DegradeRate > 0 ||
		c.CrashRate > 0 || c.SilentRate > 0 || c.CodecRate > 0 ||
		c.ChunkDropRate > 0 || c.ChunkCorruptRate > 0 ||
		c.ChunkDuplicateRate > 0 || c.ChunkReorderRate > 0 ||
		c.LinkFlapRate > 0 || len(c.PartitionGroups) > 0
}

// LinkFaults reports whether the configuration can take links down at all
// (flaps or an explicit partition plan). The transport only
// consults the link model — and collectives only build a non-identity
// routing view — when this is set, so fault-free runs stay bit-identical.
func (c Config) LinkFaults() bool {
	return c.LinkFlapRate > 0 || len(c.PartitionGroups) > 0
}

func (c Config) withDefaults() Config {
	if c.DegradeFactor <= 0 || c.DegradeFactor > 1 {
		c.DegradeFactor = DefaultDegradeFactor
	}
	if c.FailWindow <= 0 {
		c.FailWindow = DefaultFailWindow
	}
	if c.FlapPeriod <= 0 {
		c.FlapPeriod = DefaultFlapPeriod
	}
	if c.FlapDuty <= 0 || c.FlapDuty >= 1 {
		c.FlapDuty = DefaultFlapDuty
	}
	if len(c.PartitionGroups) > 0 && c.PartitionHeal <= c.PartitionAt {
		c.PartitionHeal = c.PartitionAt + DefaultPartitionSpan
	}
	return c
}

// Stats is a snapshot of injected-fault counters.
type Stats struct {
	// Drops / Corruptions / Degrades count injected faults by class.
	Drops       int64
	Corruptions int64
	Degrades    int64
	// BitsFlipped totals the flipped bits over all corruptions (wire and
	// codec alike).
	BitsFlipped int64
	// Crashes / Silences count ranks fated to crash-stop or go silent
	// this run (counted when RankFate assigns the fate, once per rank,
	// so the counters are identical for any host scheduling or worker-
	// pool size).
	Crashes  int64
	Silences int64
	// CodecCorruptions counts compressed-payload corruptions injected by
	// the codec fault path.
	CodecCorruptions int64
	// Duplicates / Reorders count the chunk-specific delivery fates:
	// chunks the fabric delivered twice, and chunks held back to land
	// after their successors.
	Duplicates int64
	Reorders   int64
	// LinkDrops counts transmission attempts refused because the link was
	// down at the attempt's ready instant (flap window or partition
	// alike). Per-event, so ResetStats zeroes it.
	LinkDrops int64
}

// Injector makes the per-event fault decisions. All methods are safe for
// concurrent use and are nil-safe: a nil *Injector injects nothing, so
// call sites need no guards.
type Injector struct {
	cfg Config

	drops       atomic.Int64
	corruptions atomic.Int64
	degrades    atomic.Int64
	bitsFlipped atomic.Int64
	crashes     atomic.Int64
	silences    atomic.Int64
	codecCorr   atomic.Int64
	duplicates  atomic.Int64
	reorders    atomic.Int64
	linkDrops   atomic.Int64
}

// New builds an injector for cfg. It returns nil when cfg injects nothing,
// which callers treat as "fault injection off".
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration (zero value for nil).
func (i *Injector) Config() Config {
	if i == nil {
		return Config{}
	}
	return i.cfg
}

// Stats snapshots the fault counters (zero for nil).
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return Stats{
		Drops:            i.drops.Load(),
		Corruptions:      i.corruptions.Load(),
		Degrades:         i.degrades.Load(),
		BitsFlipped:      i.bitsFlipped.Load(),
		Crashes:          i.crashes.Load(),
		Silences:         i.silences.Load(),
		CodecCorruptions: i.codecCorr.Load(),
		Duplicates:       i.duplicates.Load(),
		Reorders:         i.reorders.Load(),
		LinkDrops:        i.linkDrops.Load(),
	}
}

// ResetStats zeroes the fault counters (between benchmark repetitions).
// Decisions are stateless, so resetting counters does not change outcomes.
func (i *Injector) ResetStats() {
	if i == nil {
		return
	}
	i.drops.Store(0)
	i.corruptions.Store(0)
	i.degrades.Store(0)
	i.bitsFlipped.Store(0)
	i.codecCorr.Store(0)
	i.duplicates.Store(0)
	i.reorders.Store(0)
	i.linkDrops.Store(0)
	// Crashes/Silences are per-run fate counts, not per-event counters,
	// so they survive a reset: a benchmark repetition does not re-roll
	// fates.
}

// NoChunk is the chunk index of a whole-message event. An event's identity
// is (kind, src rank, dst rank, seq, chunk): NoChunk for an RTS, CTS, eager
// or whole-message data event, the chunk's index for one chunk of a
// pipelined or chunked-relay transfer. The index is its own hash field
// (eventKey), never packed into the sequence number — the old
// seq<<16|index packing aliased (seq=0, chunk=65536) with (seq=1, chunk=0)
// — so chunk fates are collision-free and independent of every
// whole-message event of the same message.
const NoChunk = -1

// rate picks the probability an event rolls against: a chunk uses its own
// rate when one is configured and the generic one otherwise, so a plain
// lossy-wire config exercises the chunked path too.
func rate(chunk int, chunkRate, generic float64) float64 {
	if chunk != NoChunk && chunkRate > 0 {
		return chunkRate
	}
	return generic
}

// ShouldDrop decides whether transmission attempt `attempt` of the event
// (kind, src, dst, seq, chunk) is lost, counting the drop when it is.
func (i *Injector) ShouldDrop(kind Kind, src, dst int, seq uint64, chunk, attempt int) bool {
	if i == nil {
		return false
	}
	p := rate(chunk, i.cfg.ChunkDropRate, i.cfg.DropRate)
	if p > 0 && i.uniform(eventKey(uint64(kind), 0x7d0b, src, dst, seq, chunk, attempt)) < p {
		i.drops.Add(1)
		return true
	}
	return false
}

// Corrupt decides whether attempt `attempt` of the payload transfer
// (src, dst, seq, chunk) is corrupted; when it is, it returns a copy of
// payload with 1..MaxFlips deterministic bit flips and true. Otherwise it
// returns payload unchanged and false. The original slice is never
// modified — the intact bytes must survive for the retransmission.
func (i *Injector) Corrupt(payload []byte, src, dst int, seq uint64, chunk, attempt int) ([]byte, bool) {
	if i == nil {
		return payload, false
	}
	return i.flipAt(payload, eventKey(0xc0, 0x1232, src, dst, seq, chunk, attempt),
		rate(chunk, i.cfg.ChunkCorruptRate, i.cfg.CorruptRate), &i.corruptions)
}

// CorruptCodec decides whether the codec stage corrupts attempt `attempt`
// of the *compressed* payload transfer (src, dst, seq, chunk) whose
// transmission starts at `at` on the virtual clock; when it does, it
// returns a flipped copy and true. Callers must only invoke it for
// compressed payloads — the uncompressed path bypasses the codec entirely,
// which is exactly the escape hatch the circuit breaker exploits. With
// Config.CodecUntil set, faults stop once `at` passes it (the codec
// "heals").
func (i *Injector) CorruptCodec(payload []byte, src, dst int, seq uint64, chunk, attempt int, at simtime.Time) ([]byte, bool) {
	if i == nil || i.cfg.CodecUntil > 0 && at >= simtime.Time(i.cfg.CodecUntil) {
		return payload, false
	}
	return i.flipAt(payload, eventKey(uint64(KindCodec), 0x5ec7, src, dst, seq, chunk, attempt),
		i.cfg.CodecRate, &i.codecCorr)
}

// flipAt rolls the event key against p and, on a hit, returns a copy of
// payload with 1..MaxFlips deterministic bit flips derived from the key,
// counting the corruption in hits. Shared by the wire-corruption and
// codec-corruption decisions.
func (i *Injector) flipAt(payload []byte, key uint64, p float64, hits *atomic.Int64) ([]byte, bool) {
	if p <= 0 || len(payload) == 0 || i.uniform(key) >= p {
		return payload, false
	}
	wire := append([]byte(nil), payload...)
	h := splitmix64(uint64(i.cfg.Seed) ^ key ^ 0x9e3779b97f4a7c15)
	flips := 1 + int(h%MaxFlips)
	for f := 0; f < flips; f++ {
		h = splitmix64(h)
		bit := h % uint64(len(wire)*8)
		wire[bit/8] ^= 1 << (bit % 8)
	}
	hits.Add(1)
	i.bitsFlipped.Add(int64(flips))
	return wire, true
}

// RankFate draws rank's process-failure fate: failed=false for a healthy
// rank; otherwise the rank crash-stops (silent=false) or goes silent
// (silent=true) at the returned onset instant, drawn uniformly within
// Config.FailWindow. The crash roll is evaluated first; silence only for
// ranks that did not draw a crash. Fate assignment IS the injection, so
// the Crashes/Silences counters are bumped here — call it exactly once
// per rank per run (mpi.NewWorld does).
func (i *Injector) RankFate(rank int) (onset simtime.Time, silent, failed bool) {
	if i == nil {
		return 0, false, false
	}
	window := i.cfg.FailWindow
	if i.cfg.CrashRate > 0 &&
		i.uniform(eventKey(uint64(KindCrash), 0xc4a5, rank, 0, 0, NoChunk, 0)) < i.cfg.CrashRate {
		u := i.uniform(eventKey(uint64(KindCrash), 0x0a5e, rank, 0, 1, NoChunk, 0))
		i.crashes.Add(1)
		return simtime.Time(float64(window) * u), false, true
	}
	if i.cfg.SilentRate > 0 &&
		i.uniform(eventKey(uint64(KindSilence), 0x511e, rank, 0, 0, NoChunk, 0)) < i.cfg.SilentRate {
		u := i.uniform(eventKey(uint64(KindSilence), 0x0a5e, rank, 0, 1, NoChunk, 0))
		i.silences.Add(1)
		return simtime.Time(float64(window) * u), true, true
	}
	return 0, false, false
}

// BandwidthFactor returns the link-bandwidth multiplier for a transfer
// between srcNode and dstNode starting at `at`: 1 on a healthy window,
// Config.DegradeFactor inside a degraded one. Windows are DegradeWindow
// long on the virtual clock, so degradation is transient and, like every
// other decision, reproducible from the seed.
func (i *Injector) BandwidthFactor(srcNode, dstNode int, at simtime.Time) float64 {
	if i == nil || i.cfg.DegradeRate <= 0 {
		return 1
	}
	window := uint64(at / simtime.Time(DegradeWindow))
	if i.uniform(eventKey(0xde, 0x6a3d, srcNode, dstNode, window, NoChunk, 0)) < i.cfg.DegradeRate {
		i.degrades.Add(1)
		return i.cfg.DegradeFactor
	}
	return 1
}

// ChunkFate draws chunk (src, dst, seq, chunk)'s delivery fate, once per
// chunk (not per attempt): duplicate means the fabric delivers the chunk
// twice (the copy burns bandwidth; the receiver discards it by identity);
// reorder means the chunk is held back by ReorderDelay so it lands
// after its successors. The fates are independent rolls and may combine.
// A whole message (NoChunk) has neither.
func (i *Injector) ChunkFate(src, dst int, seq uint64, chunk int) (duplicate, reorder bool) {
	if i == nil || chunk == NoChunk {
		return false, false
	}
	if i.cfg.ChunkDuplicateRate > 0 &&
		i.uniform(eventKey(uint64(KindChunkFate), 0xd0b1, src, dst, seq, chunk, 0)) < i.cfg.ChunkDuplicateRate {
		i.duplicates.Add(1)
		duplicate = true
	}
	if i.cfg.ChunkReorderRate > 0 &&
		i.uniform(eventKey(uint64(KindChunkFate), 0x0ede, src, dst, seq, chunk, 0)) < i.cfg.ChunkReorderRate {
		i.reorders.Add(1)
		reorder = true
	}
	return duplicate, reorder
}

// --- link-level fates ---
//
// Link fates are per unordered node pair and, like rank fates, static: the
// draw is a pure hash of (seed, pair), and the flap and partition windows
// are pure arithmetic on the virtual clock. Whether a transfer attempt
// sees a dead link therefore depends only on the plan — never on host
// scheduling — which is what lets the self-healing collectives promise
// bit-identical recovery across worker counts.

// LinkFate describes a node pair's static link fate: a flapping link is
// down whenever ((at - Phase) mod Period) < Duty*Period.
type LinkFate struct {
	Flap   bool
	Period simtime.Duration
	Duty   float64
	Phase  simtime.Duration
}

// linkFate draws the static fate of the (a, b) node link. Intra-node pairs
// (a == b) and nil injectors are always healthy.
func (i *Injector) linkFate(a, b int) LinkFate {
	if i == nil || a == b {
		return LinkFate{}
	}
	if a > b {
		a, b = b, a
	}
	var f LinkFate
	if i.cfg.LinkFlapRate > 0 &&
		i.uniform(eventKey(uint64(KindLink), 0xf1a9, a, b, 0, NoChunk, 0)) < i.cfg.LinkFlapRate {
		u := i.uniform(eventKey(uint64(KindLink), 0x9a5e, a, b, 1, NoChunk, 0))
		f.Flap = true
		f.Period = i.cfg.FlapPeriod
		f.Duty = i.cfg.FlapDuty
		f.Phase = simtime.Duration(float64(f.Period) * u)
	}
	return f
}

// IsDown reports whether the fate makes the link dead at instant `at`.
func (f LinkFate) IsDown(at simtime.Time) bool {
	if !f.Flap {
		return false
	}
	pos := (simtime.Duration(at) - f.Phase) % f.Period
	if pos < 0 {
		pos += f.Period
	}
	return float64(pos) < f.Duty*float64(f.Period)
}

// partitioned reports whether the explicit partition plan severs the (a, b)
// node link at instant `at`: both nodes listed, in different groups, inside
// the [PartitionAt, PartitionHeal) window.
func (c Config) partitioned(a, b int, at simtime.Time) bool {
	if len(c.PartitionGroups) == 0 ||
		at < simtime.Time(c.PartitionAt) || at >= simtime.Time(c.PartitionHeal) {
		return false
	}
	ga, gb := -1, -1
	for g, nodes := range c.PartitionGroups {
		for _, n := range nodes {
			if n == a {
				ga = g
			}
			if n == b {
				gb = g
			}
		}
	}
	return ga >= 0 && gb >= 0 && ga != gb
}

// LinkDown reports whether the (a, b) node link is down at instant `at` —
// flap down-phase or explicit partition. Pure query: no counters move, so
// routing views and tests can probe freely.
func (i *Injector) LinkDown(a, b int, at simtime.Time) bool {
	if i == nil || a == b {
		return false
	}
	if i.cfg.partitioned(a, b, at) {
		return true
	}
	return i.linkFate(a, b).IsDown(at)
}

// LinkFaulted reports whether the (a, b) node link is fated to go down at
// any point this run — it flaps, or the partition plan severs it.
// Static (no time argument): this is what routing views are rebuilt from,
// so a rebuilt route is itself a pure function of the seed.
func (i *Injector) LinkFaulted(a, b int) bool {
	if i == nil || a == b {
		return false
	}
	return i.linkFate(a, b).Flap || i.cfg.partitioned(a, b, simtime.Time(i.cfg.PartitionAt))
}

// LinkLost is LinkDown for an actual transmission attempt: when the link is
// down it counts the refused attempt in Stats.LinkDrops and returns true.
// The transport calls this, treats true as a wire drop, and retries after
// backoff — deterministic heal times mean the retry schedule can ride out
// a flap or a partition.
func (i *Injector) LinkLost(a, b int, at simtime.Time) bool {
	if i != nil && i.LinkDown(a, b, at) {
		i.linkDrops.Add(1)
		return true
	}
	return false
}

// uniform maps an event key to [0, 1) under the injector's seed.
func (i *Injector) uniform(key uint64) float64 {
	h := splitmix64(uint64(i.cfg.Seed) ^ key)
	return float64(h>>11) / float64(1<<53)
}

// eventKey packs an event's identity into one well-mixed 64-bit value. A
// chunk index is mixed as a field of its own; NoChunk contributes nothing,
// so whole-message events hash as they did before chunks existed.
func eventKey(kind, salt uint64, src, dst int, seq uint64, chunk, attempt int) uint64 {
	h := splitmix64(kind ^ salt<<8)
	h = splitmix64(h ^ uint64(uint32(src)))
	h = splitmix64(h ^ uint64(uint32(dst)))
	h = splitmix64(h ^ seq)
	if chunk != NoChunk {
		h = splitmix64(h ^ uint64(uint32(chunk)))
	}
	h = splitmix64(h ^ uint64(uint32(attempt)))
	return h
}

// splitmix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit
// mixing function (Steele, Lea, Flood — "Fast splittable pseudorandom
// number generators", OOPSLA 2014).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
