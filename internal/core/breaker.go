package core

import (
	"sync"

	"mpicomp/internal/simtime"
)

// DefaultBreakerCooldown is the open-state hold time when
// BreakerPolicy.Cooldown is zero.
const DefaultBreakerCooldown = 2 * simtime.Millisecond

// BreakerPolicy configures the per-peer codec circuit breaker. The breaker
// watches consecutive codec-path delivery failures (checksum mismatches,
// decompress errors) toward each destination and, past Threshold, stops
// compressing for that peer pair: messages take the uncompressed path until
// a cooldown expires, then a single half-open probe decides whether the
// codec has recovered. Production compression-enabled transports treat a
// misbehaving compressor exactly this way — keep traffic moving
// uncompressed rather than burn retry budgets on a path that cannot
// deliver.
//
// The zero value disables the breaker (Enabled reports false).
type BreakerPolicy struct {
	// Threshold is the number of consecutive codec-path failures toward
	// one destination that trips the breaker open. Zero disables the
	// breaker entirely.
	Threshold int
	// Cooldown is how long (virtual time) an open breaker rejects the
	// compressed path before allowing a half-open probe; zero means
	// DefaultBreakerCooldown.
	Cooldown simtime.Duration
}

// Enabled reports whether the policy activates the breaker.
func (p BreakerPolicy) Enabled() bool { return p.Threshold > 0 }

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Cooldown <= 0 {
		p.Cooldown = DefaultBreakerCooldown
	}
	return p
}

// breaker states. Transitions:
//
//	closed --Threshold consecutive failures--> open
//	open --cooldown expires, next Allow--> half-open (that call is the probe)
//	half-open --probe succeeds--> closed
//	half-open --probe fails--> open (fresh cooldown)
type breakerState uint8

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// peerBreaker is the per-destination state.
type peerBreaker struct {
	state breakerState
	// fails counts consecutive failures while closed.
	fails int
	// until is the virtual instant the open state holds to.
	until simtime.Time
}

// BreakerStats is a snapshot of one breaker's activity counters.
type BreakerStats struct {
	// Opens / Closes count trip and recovery transitions; Probes counts
	// half-open trial messages.
	Opens  int64
	Closes int64
	Probes int64
	// FallbackSends counts messages forced onto the uncompressed path by
	// an open (or probing) breaker.
	FallbackSends int64
}

// Add accumulates another snapshot (for aggregating across ranks).
func (s *BreakerStats) Add(o BreakerStats) {
	s.Opens += o.Opens
	s.Closes += o.Closes
	s.Probes += o.Probes
	s.FallbackSends += o.FallbackSends
}

// Breaker is the per-engine codec circuit breaker, tracking one state
// machine per destination rank. All methods are nil-safe (a nil *Breaker
// always allows compression and records nothing) and safe for concurrent
// use: failures are recorded from transport contexts that may run on other
// ranks' goroutines.
type Breaker struct {
	mu    sync.Mutex
	pol   BreakerPolicy
	peers map[int]*peerBreaker
	stats BreakerStats
}

// NewBreaker builds a breaker for pol, or nil when pol disables it.
func NewBreaker(pol BreakerPolicy) *Breaker {
	if !pol.Enabled() {
		return nil
	}
	return &Breaker{pol: pol.withDefaults(), peers: make(map[int]*peerBreaker)}
}

// peer returns dst's state, creating it closed. Called with b.mu held.
func (b *Breaker) peer(dst int) *peerBreaker {
	p := b.peers[dst]
	if p == nil {
		p = &peerBreaker{}
		b.peers[dst] = p
	}
	return p
}

// Allow reports whether a message to dst may take the compressed path at
// virtual instant now. It drives the open -> half-open transition: the
// first Allow after the cooldown expires becomes the probe (and returns
// true); further sends while the probe is in flight stay uncompressed.
func (b *Breaker) Allow(dst int, now simtime.Time) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peer(dst)
	switch p.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now < p.until {
			b.stats.FallbackSends++
			return false
		}
		p.state = breakerHalfOpen
		b.stats.Probes++
		return true
	default: // half-open: one probe in flight, everyone else falls back
		b.stats.FallbackSends++
		return false
	}
}

// IsOpen reports whether dst's compressed path is currently rejected,
// without driving any transition — the pure query the transport uses to
// decide a mid-message fallback swap. (Allow, which can start a probe, is
// only called at deterministic send instants.)
func (b *Breaker) IsOpen(dst int, now simtime.Time) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peers[dst]
	return p != nil && p.state == breakerOpen && now < p.until
}

// RecordFailure notes a codec-path delivery failure toward dst observed at
// virtual instant now. Threshold consecutive failures trip the breaker;
// a failed half-open probe re-opens it for a fresh cooldown.
func (b *Breaker) RecordFailure(dst int, now simtime.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peer(dst)
	switch p.state {
	case breakerClosed:
		p.fails++
		if p.fails >= b.pol.Threshold {
			b.openLocked(p, now)
		}
	case breakerHalfOpen:
		b.openLocked(p, now)
	}
	// Already open: the failure belongs to a message sent before the trip;
	// the cooldown already covers it.
}

// ProbeAborted rearms a half-open breaker whose probe message could not
// actually exercise the codec (it was bypassed for unrelated reasons such
// as dynamic gating or pool exhaustion): the state returns to open with
// the cooldown already expired, so the next Allow probes again. A no-op
// in every other state.
func (b *Breaker) ProbeAborted(dst int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peers[dst]
	if p != nil && p.state == breakerHalfOpen {
		p.state = breakerOpen
		b.stats.Probes--
	}
}

// RecordSuccess notes a codec-path delivery success toward dst. A success
// while closed clears the consecutive-failure count; a successful
// half-open probe closes the breaker.
func (b *Breaker) RecordSuccess(dst int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	p := b.peers[dst]
	if p == nil {
		return
	}
	switch p.state {
	case breakerClosed:
		p.fails = 0
	case breakerHalfOpen:
		p.state = breakerClosed
		p.fails = 0
		b.stats.Closes++
	}
}

// openLocked trips a peer's breaker at now: the uncompressed path holds
// for Cooldown. Called with b.mu held.
func (b *Breaker) openLocked(p *peerBreaker, now simtime.Time) {
	p.state = breakerOpen
	p.fails = 0
	p.until = now.Add(b.pol.Cooldown)
	b.stats.Opens++
}

// Stats snapshots the breaker's counters (zero for nil).
func (b *Breaker) Stats() BreakerStats {
	if b == nil {
		return BreakerStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}
