package mpi

import (
	"errors"
	"fmt"
	"sort"

	"mpicomp/internal/core"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// Self-healing collectives (DESIGN.md §14): when a collective loses a rank
// or a link mid-operation, the attempt is revoked, the surviving members
// run a verdict round, the route is rebuilt on the shrunken (or rerouted)
// view, and the operation retries until it completes — the degrade
// ladder's final reroute -> shrink-and-complete rung.
//
// Everything here is deterministic on the virtual clock:
//
//   - Collective tags encode (algorithm, recovery epoch, operation index).
//     The operation index advances in program order on every rank, and the
//     epoch advances only on an agreed retry verdict, so both stay in
//     lockstep without communication and a stale envelope from a revoked
//     attempt can never match a retry's receive.
//   - Revocation is the watchdog's failure announcement scoped to one
//     attempt: each rank that abandons the attempt publishes a gone record
//     (health.go) in every mailbox in its own program order, waking
//     partners blocked on it at max(their post time, its abort instant) +
//     Deadline. Real messages a rank sent before quitting stay consumable,
//     and both sides of every quit-vs-traffic race compute the same wake
//     instant, so host scheduling cannot reorder or reshape the cascade.
//   - The verdict round's coordinator and member order come from the fixed
//     live set, and its decision is a pure OR over member failure votes.

// Per-algorithm tag base offsets. The first nine match the historical
// fixed-tag iota order, so operation 0 at epoch 0 produces exactly the
// pre-heal tag values. The two verdict bases are the recovery control
// plane; they are exempt from revocation (the verdict must outlive the
// attempt it judges).
const (
	baseBarrier = iota
	baseBcast
	baseAllgather
	baseGather
	baseScatter
	baseReduce
	baseAlltoall
	baseAllreduce
	baseAlltoallv
	baseVerdictFlag
	baseVerdictReply
	numCollBases
)

// collTagStride spaces the (epoch, op) contexts in the tag namespace;
// healMaxEpochs bounds recovery epochs per run (a backstop far above
// MaxAttempts, not a tunable).
const (
	collTagStride = 16
	healMaxEpochs = 64
)

// collTag builds the wire tag for one algorithm step of this rank's
// current collective operation at its current recovery epoch.
func (r *Rank) collTag(base int) int {
	return internalTagBase - (base + collTagStride*(r.healEpoch+healMaxEpochs*int(r.curOp)))
}

// collTagInfo inverts collTag. ok is false for tags outside the collective
// namespace (user tags, AnyTag).
func collTagInfo(tag int) (base, epoch int, op uint64, ok bool) {
	d := internalTagBase - tag
	if d < 0 {
		return 0, 0, 0, false
	}
	rest := d / collTagStride
	return d % collTagStride, rest % healMaxEpochs, uint64(rest / healMaxEpochs), true
}

// opEnter opens a collective-operation scope, reporting whether this is
// the outermost one. Nested collectives (the barriers inside Alltoallv)
// inherit the outer operation's context, so every tag of one user-visible
// collective revokes together.
func (r *Rank) opEnter() bool {
	r.opDepth++
	if r.opDepth > 1 {
		return false
	}
	r.curOp = r.nextOp
	r.nextOp++
	return true
}

func (r *Rank) opExit() { r.opDepth-- }

// revokeErr is the error a woken or refused operation surfaces.
func (w *World) revokeErr() error {
	return fmt.Errorf("mpi: operation belongs to a revoked attempt: %w", ErrCollRevoked)
}

// abortAttempt is this rank abandoning the attempt (epoch, ops >= fromOp)
// — the runtime's MPIX_Comm_revoke, called by every member whose attempt
// failed, at its own clock instant. It publishes an attempt-scoped gone
// record (health.go), so the cascade follows the watchdog's discipline:
// real messages this rank sent before aborting stay consumable in peers'
// queues, and only its own mailbox drops queued inbound traffic of the
// attempt (it will never post those receives), unblocking rendezvous
// senders exactly as a later deliver-side refusal would.
func (w *World) abortAttempt(r *Rank, epoch int, fromOp uint64) {
	at := r.Clock.Now()
	w.revMu.Lock()
	if cur, ok := w.revoked[epoch]; !ok || fromOp < cur {
		if w.revoked == nil {
			w.revoked = make(map[int]uint64)
		}
		w.revoked[epoch] = fromOp
		w.revokedOps.Add(1)
	}
	w.revMu.Unlock()

	w.publish(gone{src: r.id, at: at, err: w.revokeErr(), attempt: true, epoch: epoch, fromOp: fromOp})
}

// healActive reports whether this run can need mid-collective recovery at
// all: some rank is fated, or links can fail. Worlds injecting only wire
// drops/corruption keep the transport-level retry ladder and abort
// semantics of earlier revisions — a verdict round per collective would
// change their timelines for no recovery benefit.
func (w *World) healActive() bool {
	return len(w.doomed) > 0 || w.linkFaults
}

// healShrunk reports whether collectives are running on the post-recovery
// shrunken view, which is when the world-indexed collectives (Gather,
// Scatter, Alltoall, Alltoallv) skip fated peers and leave their blocks
// untouched. Gated on healOn so ShrinkCollectives-mode worlds keep their
// documented abort semantics for these collectives.
func (w *World) healShrunk() bool {
	return w.healOn && w.shrunk.Load() && len(w.doomed) > 0
}

// healMembers is the verdict round's membership: the fixed live set (fated
// ranks never self-heal), or every rank when no fates were drawn
// (link-fault-only runs).
func (w *World) healMembers() []int {
	if len(w.doomed) > 0 {
		return w.live
	}
	return w.everyone
}

// routeOrdered reorders a world-rank list by the fabric's fault-avoiding
// node order (stable within a node), producing the view a recovered
// collective runs over. Identity when no routing view exists.
func (w *World) routeOrdered(ids []int) []int {
	if w.routeView == nil {
		return ids
	}
	pos := make([]int, w.nodes)
	for i, n := range w.routeView {
		pos[n] = i
	}
	out := append([]int(nil), ids...)
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := pos[w.nodeOf(out[i])], pos[w.nodeOf(out[j])]
		if pi != pj {
			return pi < pj
		}
		return out[i] < out[j]
	})
	return out
}

// healable reports whether an error is recoverable by shrink-and-retry:
// a peer death, a spent delivery budget (link outage), or the revocation
// those trigger on other ranks.
func healable(err error) bool {
	return errors.Is(err, ErrPeerFailed) || errors.Is(err, ErrDeliveryFailed) || errors.Is(err, ErrCollRevoked)
}

// healRun wraps one collective operation in the self-healing protocol.
//
// The fast paths pay nothing: nested calls, worlds without SelfHeal, and
// SelfHeal worlds whose fault config cannot kill a rank or a link all run
// fn directly. A fated rank also runs fn directly — it never self-heals;
// its abort is the failure the survivors recover around.
//
// Otherwise each attempt is followed by a verdict round among the live
// members (coordinator = first live rank): a failed attempt revokes the
// epoch's remaining operations first, so members still blocked inside it
// wake and vote. On a retry verdict every member drains its aborted
// requests, agrees on the failed set, shrinks the world, advances its
// recovery epoch, and reruns fn on the rebuilt view.
func (r *Rank) healRun(fn func() error) error {
	outermost := r.opEnter()
	defer r.opExit()
	w := r.world
	if !outermost || !w.healOn || !w.healActive() || r.fate != nil {
		return fn()
	}
	coord := w.healMembers()[0]
	startEpoch := r.healEpoch
	for attempt := 0; ; attempt++ {
		var cacheHits int64
		if attempt > 0 {
			cacheHits = int64(r.Engine.CacheSnapshot().Hits)
		}
		err := fn()
		if err != nil && !healable(err) {
			return err
		}
		if attempt > 0 && err == nil {
			// Blocks the retry re-sourced from the compress-once cache
			// instead of re-encoding (the failure cost the wire transfer,
			// not the codec work).
			w.resourcedChunks.Add(int64(r.Engine.CacheSnapshot().Hits) - cacheHits)
		}
		if err != nil {
			w.abortAttempt(r, r.healEpoch, r.curOp)
		}
		verdictStart := r.Clock.Now()
		retry, verr := r.healVerdict(err != nil)
		if verr != nil {
			if err != nil {
				return err
			}
			return verr
		}
		if !retry {
			if r.id == coord && r.healEpoch > startEpoch {
				w.shrinkCompletions.Add(1)
			}
			return nil
		}
		if attempt+1 >= w.health.MaxAttempts || r.healEpoch+1 >= healMaxEpochs {
			if err != nil {
				return err
			}
			return fmt.Errorf("mpi: collective not recovered after %d attempts: %w", attempt+1, ErrPeerFailed)
		}
		r.healRecover()
		if r.id == coord {
			w.reroutes.Add(1)
			w.recoveryTime.Add(int64(r.Clock.Now().Sub(verdictStart)))
		}
	}
}

// healVerdict is the per-operation agreement round among live members:
// every member reports its attempt outcome to the coordinator as a
// Heartbeat control packet, the coordinator ORs the failure votes (a
// member it cannot hear from votes "failed" by that very failure) and
// replies with a RouteUpdate carrying the decision. Every rank derives
// the retried view itself (collView: the live set in route order), so the
// reply carries nothing else.
//
// Control packets ride the ordinary eager path, so they are subject to the
// same fault model as data — a flag that cannot be delivered becomes a
// retry vote. The one non-recoverable spot is the coordinator's reply: a
// member that cannot read it no longer knows whether the group retried,
// so it aborts (the documented limitation; partition-soak configurations
// keep wire-drop fates off the verdict plane).
func (r *Rank) healVerdict(failed bool) (bool, error) {
	w := r.world
	members := w.healMembers()
	coord := members[0]
	flagTag := r.collTag(baseVerdictFlag)
	replyTag := r.collTag(baseVerdictReply)

	if r.id != coord {
		hb := core.Heartbeat{Src: r.id, Epoch: r.healEpoch, Op: r.curOp, Failed: failed}
		flag := gpusim.NewHostBuffer(core.HeartbeatSize)
		copy(flag.Data, hb.EncodeHeartbeat())
		// A flag that cannot be delivered is not fatal here: the
		// coordinator observes the same delivery failure and counts it as
		// a retry vote.
		_ = r.send(coord, flagTag, flag)
		reply := gpusim.NewHostBuffer(core.RouteUpdateSize)
		if err := r.recv(coord, replyTag, reply); err != nil {
			return false, fmt.Errorf("mpi: rank %d lost the recovery verdict: %w", r.id, err)
		}
		u, err := core.DecodeRouteUpdate(reply.Data)
		if err != nil || u.Epoch != r.healEpoch || u.Op != r.curOp {
			return false, fmt.Errorf("mpi: rank %d got an unusable recovery verdict (%v)", r.id, err)
		}
		return u.Retry, nil
	}

	retry := failed
	flag := gpusim.NewHostBuffer(core.HeartbeatSize)
	for _, m := range members {
		if m == r.id {
			continue
		}
		if err := r.recv(m, flagTag, flag); err != nil {
			retry = true
			continue
		}
		hb, err := core.DecodeHeartbeat(flag.Data)
		if err != nil || hb.Src != m || hb.Epoch != r.healEpoch || hb.Op != r.curOp || hb.Failed {
			retry = true
		}
	}
	reply := gpusim.NewHostBuffer(core.RouteUpdateSize)
	copy(reply.Data, core.RouteUpdate{Epoch: r.healEpoch, Op: r.curOp, Retry: retry}.EncodeRouteUpdate())
	for _, m := range members {
		if m == r.id {
			continue
		}
		// A failed reply delivery is the member's problem to surface (it
		// aborts); the coordinator's decision stands for everyone else.
		_ = r.send(m, replyTag, reply)
	}
	return retry, nil
}

// healRecover transitions this rank into the next recovery epoch after a
// retry verdict: drain the aborted attempt's requests (revocation already
// woke them, so every Wait resolves at a bounded instant), release parked
// raw staging, agree on the failed set (charged like MPIX_Comm_agree),
// shrink the world when ranks died, and advance the epoch.
func (r *Rank) healRecover() {
	w := r.world
	r.drainAborted()
	_, _ = r.Agree() // r is live: Agree only errors for fated callers
	if len(w.doomed) > 0 {
		w.Shrink()
	}
	r.healEpoch++
}

// drainAborted completes every incomplete request this rank still holds
// and releases raw staging parked between Wait and consumeRaw. Bounded
// because the preceding revocation (and any failure announcements) already
// queued an envelope or outcome for everything in flight.
func (r *Rank) drainAborted() {
	for len(r.inflight) > 0 {
		_ = r.Wait(r.inflight[len(r.inflight)-1]) // Wait untracks the request
	}
	r.releaseRawStaged()
}

// RecoveryStats is the world's self-healing activity snapshot.
type RecoveryStats struct {
	// Reroutes counts agreed retry verdicts (route rebuilds);
	// ShrinkCompletions counts collectives that completed on a shrunken or
	// rerouted view after at least one retry.
	Reroutes          int64
	ShrinkCompletions int64
	// RevokedOps counts revoked attempts (MPIX_Comm_revoke equivalents).
	RevokedOps int64
	// ResourcedChunks counts payload blocks retries re-sourced from the
	// compress-once cache instead of re-encoding.
	ResourcedChunks int64
	// LinkDrops counts transport attempts refused by downed or flapping
	// links (from the fault injector).
	LinkDrops int64
	// RecoveryTime is the total virtual time the recovery coordinator
	// spent between failure observation and agreed verdicts.
	RecoveryTime simtime.Duration
}

// RecoveryStats snapshots the self-healing counters.
func (w *World) RecoveryStats() RecoveryStats {
	return RecoveryStats{
		Reroutes:          w.reroutes.Load(),
		ShrinkCompletions: w.shrinkCompletions.Load(),
		RevokedOps:        w.revokedOps.Load(),
		ResourcedChunks:   w.resourcedChunks.Load(),
		LinkDrops:         w.inj.Stats().LinkDrops,
		RecoveryTime:      simtime.Duration(w.recoveryTime.Load()),
	}
}
