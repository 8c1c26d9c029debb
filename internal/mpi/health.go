package mpi

import (
	"errors"
	"fmt"
	"sort"

	"mpicomp/internal/simtime"
)

// ErrPeerFailed is the sentinel every peer-failure error wraps: a blocking
// operation could not complete because another rank crash-stopped, went
// silent, or aborted. It is the runtime's ULFM-style MPI_ERR_PROC_FAILED.
var ErrPeerFailed = errors.New("mpi: peer rank failed")

// ErrRankCrashed is returned by a rank's own MPI calls once its seeded
// crash-stop onset has passed: the process halts and communicates no more.
var ErrRankCrashed = errors.New("mpi: rank crash-stopped")

// ErrRankSilent is returned by a rank's own MPI calls once its seeded
// silence onset has passed: the process survives but its traffic no longer
// reaches the fabric (a partitioned NIC), so no operation can complete.
var ErrRankSilent = errors.New("mpi: rank silent (partitioned)")

// ErrCollRevoked is the sentinel a point-to-point operation surfaces when
// the collective attempt it belongs to has been revoked for recovery: a
// peer observed a failure mid-operation and every rank still blocked
// inside the attempt is woken so it can join the retry verdict instead of
// waiting on traffic that will never come — the runtime's
// MPIX_Comm_revoke.
var ErrCollRevoked = errors.New("mpi: collective attempt revoked")

// PeerError is the failure a surviving rank observes from a blocking
// operation involving dead peers. Ranks always carries the run's complete
// fated set (or the single quiesced rank for pure cascades), so every
// survivor reports the identical failed-rank list — the agreement property
// ULFM's MPIX_Comm_agree provides.
type PeerError struct {
	// Ranks is the sorted set of failed ranks.
	Ranks []int
}

// Error implements error.
func (e *PeerError) Error() string {
	return fmt.Sprintf("mpi: peer ranks %v failed", e.Ranks)
}

// Unwrap makes errors.Is(err, ErrPeerFailed) hold.
func (e *PeerError) Unwrap() error { return ErrPeerFailed }

// DefaultHealthDeadline is the watchdog's failure-detection deadline when
// HealthPolicy.Deadline is zero: a blocking operation involving a dead
// peer surfaces ErrPeerFailed this long (virtual time) after the later of
// the operation's post and the peer's failure onset.
const DefaultHealthDeadline = 500 * simtime.Microsecond

// HealthPolicy is the per-world failure-handling configuration.
//
// The watchdog is event-driven on the virtual clock — there are no
// real-time timers. A fated rank's own goroutine announces the failure at
// its first MPI call past the onset; the announcement publishes a gone
// record in every mailbox, waking blocked waiters with failure envelopes
// stamped at max(waiter's post time, onset) + Deadline. Because all of a
// rank's real messages are injected synchronously in its program order
// before it can announce, whether a given receive matches a real message
// or a failure envelope is a pure function of the communication plan —
// host scheduling cannot change it, and fault-free runs never touch any
// of this code.
type HealthPolicy struct {
	// Deadline is the simulated failure-detection latency (0 means
	// DefaultHealthDeadline). It models the timeout a real progress
	// engine would need to declare a peer dead.
	Deadline simtime.Duration
	// SelfHeal arms mid-collective recovery: a collective that loses a
	// rank or a link mid-operation revokes the attempt, runs a verdict
	// round among survivors, rebuilds its route on the shrunken view, and
	// completes — the degrade ladder's final reroute -> shrink-and-
	// complete rung (DESIGN.md §14). Off, every survivor of a collective
	// that touches a dead rank returns the same PeerError.
	SelfHeal bool
	// MaxAttempts bounds how many times one collective may be retried
	// under SelfHeal (0 means DefaultHealAttempts). The bound is a
	// backstop; each retry runs on a strictly smaller or rerouted view.
	MaxAttempts int
}

// DefaultHealAttempts bounds self-heal retries when MaxAttempts is zero.
const DefaultHealAttempts = 4

func (p HealthPolicy) withDefaults() HealthPolicy {
	if p.Deadline <= 0 {
		p.Deadline = DefaultHealthDeadline
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultHealAttempts
	}
	return p
}

// rankFate is a rank's precomputed process failure (from faults.RankFate).
type rankFate struct {
	onset  simtime.Time
	silent bool
}

// HealthStats is the world's failure-handling activity snapshot.
type HealthStats struct {
	// Doomed is the sorted set of ranks fated to fail this run.
	Doomed []int
	// Crashes and Silences split Doomed by failure mode.
	Crashes, Silences int
	// WatchdogWakeups counts blocked operations unblocked with failure
	// envelopes; CascadeQuiets counts ranks whose error return quiesced
	// their mailbox to propagate the failure.
	WatchdogWakeups int64
	CascadeQuiets   int64
}

// HealthStats snapshots the failure-handling counters.
func (w *World) HealthStats() HealthStats {
	st := HealthStats{
		Doomed:          append([]int(nil), w.doomed...),
		WatchdogWakeups: w.watchdogWakeups.Load(),
		CascadeQuiets:   w.cascadeQuiets.Load(),
	}
	for _, id := range w.doomed {
		if w.ranks[id].fate.silent {
			st.Silences++
		} else {
			st.Crashes++
		}
	}
	return st
}

// peerError builds the error survivors observe: the run's doomed set, or
// the single quiesced rank when no fates were drawn (pure error cascade).
func (w *World) peerError(id int) error {
	ranks := w.doomed
	if len(ranks) == 0 {
		ranks = []int{id}
	}
	return &PeerError{Ranks: append([]int(nil), ranks...)}
}

// checkHealth is the fate gate at every MPI call boundary: past its onset
// a fated rank announces the failure to the world and returns its own
// terminal error. One pointer test for healthy ranks — fault-free runs
// pay nothing.
func (r *Rank) checkHealth() error {
	f := r.fate
	if f == nil || r.Clock.Now() < f.onset {
		return nil
	}
	w := r.world
	w.announce(r.id, f.onset, w.peerError(r.id))
	if f.silent {
		return fmt.Errorf("mpi: rank %d partitioned at %v: %w", r.id, f.onset, ErrRankSilent)
	}
	return fmt.Errorf("mpi: rank %d halted at %v: %w", r.id, f.onset, ErrRankCrashed)
}

// announceQuiet quiesces a rank that returned an error from Run's fn: it
// will issue no further sends, so peers blocked on it must be woken or
// they hang — the failure cascades deterministically through collectives.
// The quiesce instant is the rank's own clock at the error return.
func (w *World) announceQuiet(id int) {
	r := w.ranks[id]
	if w.markAnnounced(id) {
		return
	}
	w.cascadeQuiets.Add(1)
	w.publish(gone{src: id, at: r.Clock.Now(), err: w.peerError(id)})
}

// announce publishes rank id's failure at onset (idempotent).
func (w *World) announce(id int, onset simtime.Time, err error) {
	if w.markAnnounced(id) {
		return
	}
	w.publish(gone{src: id, at: onset, err: err})
}

// markAnnounced records the announcement, reporting true if it already
// happened.
func (w *World) markAnnounced(id int) bool {
	w.announceMu.Lock()
	defer w.announceMu.Unlock()
	if w.announced == nil {
		w.announced = make(map[int]bool)
	}
	if w.announced[id] {
		return true
	}
	w.announced[id] = true
	return false
}

// gone is the one record of "rank src will serve no more traffic". The
// watchdog publishes one when a rank fails (announce, announceQuiet) and
// the heal ladder one when a rank abandons a revoked collective attempt
// (abortAttempt). A failure covers every tag; a revocation covers the
// attempt's operations — epoch, index >= fromOp — and never the verdict
// plane, which must outlive the attempt it judges. A receive the record
// wakes completes at max(post time, at) + Deadline with err, a sender it
// refuses at max(RTS arrival, at) + Deadline.
type gone struct {
	src int
	at  simtime.Time
	err error
	// attempt scopes the record to (epoch, ops >= fromOp); false means
	// every tag.
	attempt bool
	epoch   int
	fromOp  uint64
}

// covers reports whether the record covers traffic carrying tag.
func (g gone) covers(tag int) bool {
	if !g.attempt {
		return true
	}
	base, epoch, op, ok := collTagInfo(tag)
	return ok && base < baseVerdictFlag && epoch == g.epoch && op >= g.fromOp
}

// publish is the wake pass for g, run from g.src's own goroutine:
//
//  1. g.src's own mailbox records g: inbound traffic it covers — already
//     queued or arriving later — fails its sender at max(RTS arrival, at)
//     + Deadline, the instant a real transport's retransmission timeout
//     would declare the peer gone.
//  2. every other mailbox records g and wakes the posted receives it
//     covers from g.src (or AnySource — a wildcard receive cannot rule the
//     gone rank out, exactly ULFM's MPI_ANY_SOURCE semantics) with a
//     failure envelope at max(post time, at) + Deadline.
//
// Each record lands under its mailbox's lock, atomically with the wake
// pass over that box, so a concurrent post or deliver either precedes the
// record (and is woken or failed) or observes it (and is refused) — at
// the same virtual instant either way. All of g.src's real messages were
// injected synchronously in its program order before the publish, and
// post scans the unexpected queue before the records, so no real message
// is ever displaced by a failure envelope.
func (w *World) publish(g gone) {
	for _, peer := range w.ranks {
		if peer.id == g.src {
			for _, env := range peer.box.recordOwn(g) {
				w.failSend(env, g.at, g.err)
			}
			continue
		}
		for _, p := range peer.box.recordPeer(g) {
			p.matched <- failEnvelope(g.src, p.tag, simtime.Max(p.postTime, g.at).Add(w.health.Deadline), g.err)
			w.watchdogWakeups.Add(1)
		}
	}
}

// failSend completes a sender blocked on an envelope the dead rank will
// never match: the send "times out" at max(RTS arrival, onset) + Deadline.
// Eager envelopes complete locally at injection, so there is no waiter.
func (w *World) failSend(env *envelope, onset simtime.Time, err error) {
	if env.eager || env.senderDone == nil {
		return
	}
	t := simtime.Max(env.rtsArrival, onset).Add(w.health.Deadline)
	if env.pipelined {
		// Retire the envelope's lane ticket so later pipelined sends to
		// the pair — which will fail the same way — are not parked behind
		// it forever.
		lane := &w.ranks[env.src].pipeTx[env.dst]
		lane.retire(env.ticket, func() {
			env.senderDone <- sendOutcome{t: t, err: err}
			close(env.done)
		})
		w.watchdogWakeups.Add(1)
		return
	}
	env.senderDone <- sendOutcome{t: t, err: err}
	w.watchdogWakeups.Add(1)
}

// failEnvelope synthesizes the envelope a woken receive consumes: it flows
// through waitRecv like any other (advance to the detection instant,
// surface the wrapped error) with no staging buffer and no payload.
func failEnvelope(src, tag int, t simtime.Time, err error) *envelope {
	return &envelope{
		src: src, tag: tag,
		matchTime: t, dataArrival: t,
		deliveryErr: err,
	}
}

// Agree reaches agreement on the failed-rank set among survivors — the
// runtime's MPIX_Comm_agree. The returned set is identical on every
// caller (it is the fated set, fixed at initialization); the cost charged
// is an allreduce over one machine word: 2*ceil(log2 live) control-message
// rounds on the caller's clock.
func (r *Rank) Agree() ([]int, error) {
	if err := r.checkHealth(); err != nil {
		return nil, err
	}
	w := r.world
	live := w.size - len(w.doomed)
	if live > 1 {
		rounds := 0
		for n := 1; n < live; n <<= 1 {
			rounds++
		}
		link := w.cluster.InterNode
		r.Clock.Advance(simtime.Duration(2*rounds) * (link.PerMsgOverhead + link.Latency))
	}
	return append([]int(nil), w.doomed...), nil
}

// buildLive precomputes the sorted live set at initialization.
func (w *World) buildLive() {
	sort.Ints(w.doomed)
	w.live = w.live[:0]
	fated := make(map[int]bool, len(w.doomed))
	for _, id := range w.doomed {
		fated[id] = true
	}
	for id := 0; id < w.size; id++ {
		if !fated[id] {
			w.live = append(w.live, id)
		}
	}
}
