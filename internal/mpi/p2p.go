package mpi

import (
	"errors"
	"fmt"
	"sync"

	"mpicomp/internal/core"
	"mpicomp/internal/dtype"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// ErrDeliveryFailed is returned (wrapped) from Wait when a message's
// retransmission budget runs out: every attempt of some protocol stage —
// RTS, CTS, data transfer, or eager message — was lost or corrupted.
// Both endpoints of the failed message observe the error; neither
// deadlocks.
var ErrDeliveryFailed = errors.New("mpi: message delivery failed (retry budget exhausted)")

// sendOutcome is the sender-side completion record: the instant the send
// buffer became reusable, the delivery error if the transport gave up, and
// (pipelined sends) the chunk retransmissions the message consumed — the
// signal Wait feeds into the per-peer degrade ladder.
type sendOutcome struct {
	t           simtime.Time
	err         error
	retransmits int
}

// envelope is one in-flight message's control state. For eager messages it
// carries the payload directly; for rendezvous it carries the piggybacked
// compression header (Figure 3), the payload, and the sender's post time,
// so that whichever side completes the match can compute the entire
// handshake-and-transfer timeline — modeling MVAPICH2's asynchronous
// progress engine, which transfers data as soon as the CTS arrives with no
// further sender involvement.
type envelope struct {
	src, tag int
	// dst is the destination rank; pipelined sends read it back in Wait to
	// feed the per-peer degrade ladder.
	dst   int
	eager bool
	// seq is the sender's per-destination message number; together with
	// (src, dst) it is the identity the fault injector hashes.
	seq uint64

	payload []byte
	hdr     core.Header
	// crc protects eager payloads (rendezvous payloads carry their
	// checksum in hdr).
	crc uint32

	// deliveryErr marks a message whose transport gave up (wrapped
	// ErrDeliveryFailed). The envelope still flows through matching so
	// the receiver unblocks with the error instead of deadlocking.
	deliveryErr error

	// rendezvous timeline inputs
	rtsArrival simtime.Time // RTS packet arrival at the receiver
	sendPost   simtime.Time // sender's clock when the send was posted

	// rendezvous timeline outputs (filled by completeMatch)
	matchTime   simtime.Time   // receive matched + staging done
	dataArrival simtime.Time   // last byte of payload at the receiver
	staged      *gpusim.Buffer // receive-side staging buffer
	// senderDone delivers the sender-side completion outcome.
	senderDone chan sendOutcome

	// eager timeline
	arrival simtime.Time

	// pipelined rendezvous (chunked) state. relayChunks marks a relayed
	// wire payload traveling as segments (reassembled, then decoded against
	// hdr); stagedChunks holds the credit window's worth of staging slots a
	// chunked compression stream cycles through.
	pipelined    bool
	relayChunks  bool
	chunks       []chunkPart
	stagedChunks []*gpusim.Buffer
	// ticket orders this envelope's match completion on the sender's
	// per-destination pipeLane (pipeline.go); done closes once the
	// completion has run, and the receiver's Wait gates on it before
	// reading the timeline it filled.
	ticket uint64
	done   chan struct{}

	// fb, when non-nil, regenerates this message as an uncompressed wire
	// payload (the sender still owns the user buffer until Wait). The
	// transport invokes it mid-retry when the codec circuit breaker opens
	// on the pair, so even the message whose failures tripped the breaker
	// completes within its retry budget.
	fb wireFallback
}

// wireFallback rebuilds a message's uncompressed wire form at virtual
// instant `at`, returning the payload, its header (Fallback set), and the
// virtual cost of producing it (the checksum pass).
type wireFallback func(at simtime.Time) ([]byte, core.Header, simtime.Duration)

// recvPost is a posted (but not yet matched) receive.
type recvPost struct {
	src, tag int
	postTime simtime.Time
	matched  chan *envelope
	rank     *Rank
}

// mailbox implements MPI matching semantics: posted receives match
// incoming envelopes in arrival order, with wildcard source/tag;
// unmatched envelopes queue as "unexpected messages".
//
// The failure fields are written only by the watchdog sweep (health.go):
// dead marks the owner itself failed — senders get failErr instead of
// queuing — and failedSrcs records announced peer failures so receives
// posted after the sweep still observe them.
//
// Every field below mu is guarded by it (enforced by simlint's
// lockorder analyzer); world alone is set once at construction and read
// lock-free.
//
//simlint:guarded
type mailbox struct {
	mu         sync.Mutex
	unexpected []*envelope
	posted     []*recvPost

	dead       bool
	deadAt     simtime.Time
	failErr    error
	failedSrcs map[int]srcFail

	// Attempt-quit records (heal.go): quits holds peers that abandoned a
	// revoked collective attempt (consulted by post, keyed by source);
	// ownQuits holds the owner's own abandonments (consulted by deliver —
	// the owner will never post the attempt's receives). Empty outside
	// self-healing recovery, so the hot paths pay one length test.
	quits    []attemptQuit
	ownQuits []attemptQuit

	// world backlinks for the watchdog (deadline, wakeup accounting).
	world *World //simlint:unguarded immutable after newMailbox
}

func newMailbox(w *World) *mailbox { return &mailbox{world: w} }

func tagMatches(postTag, msgTag int) bool { return postTag == AnyTag || postTag == msgTag }
func srcMatches(postSrc, msgSrc int) bool { return postSrc == AnySource || postSrc == msgSrc }

// deliver hands an envelope to the mailbox. If a posted receive matches,
// the match completes immediately in the caller's goroutine (the runtime's
// progress engine): staging, CTS, and the data-transfer timeline are all
// computed here, so neither side ever depends on the other reaching Wait.
func (m *mailbox) deliver(env *envelope) {
	m.mu.Lock()
	if m.dead {
		onset, err := m.deadAt, m.failErr
		m.mu.Unlock()
		// The receiver is gone: the envelope never queues, and a waiting
		// sender times out at the watchdog deadline.
		m.world.failSend(env, onset, err)
		return
	}
	for i, p := range m.posted {
		if srcMatches(p.src, env.src) && tagMatches(p.tag, env.tag) {
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			m.mu.Unlock()
			completeMatch(p, env)
			p.matched <- env
			return
		}
	}
	for _, q := range m.ownQuits {
		if quitCovers(q, env.tag) {
			// Traffic for an attempt the owner abandoned: a matching receive
			// will never be posted, so never queue it — the sender (if
			// rendezvous) unblocks at the same quit-derived instant the
			// owner's abort sweep would have used.
			m.mu.Unlock()
			m.world.failSend(env, q.at, m.world.revokeErr())
			return
		}
	}
	m.unexpected = append(m.unexpected, env)
	m.mu.Unlock()
}

// post registers a receive. If an unexpected envelope already matches it
// is returned immediately (match completed); otherwise the receive queues
// and the caller waits on p.matched. Real messages win over announced
// failures: the unexpected queue is scanned before the failed-source
// table, so a message a rank sent before dying is still received.
func (m *mailbox) post(p *recvPost) *envelope {
	m.mu.Lock()
	for i, env := range m.unexpected {
		if srcMatches(p.src, env.src) && tagMatches(p.tag, env.tag) {
			m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
			m.mu.Unlock()
			completeMatch(p, env)
			return env
		}
	}
	if q, ok := m.quitFor(p.src, p.tag); ok {
		// The source already abandoned the attempt this receive belongs to:
		// wake it immediately with the revocation error, at the same
		// instant the source's abort sweep would have used had the receive
		// been posted earlier.
		m.mu.Unlock()
		m.world.watchdogWakeups.Add(1)
		return failEnvelope(p.src, p.tag, simtime.Max(p.postTime, q.at).Add(m.world.health.Deadline), m.world.revokeErr())
	}
	if src, f, ok := m.failedFor(p.src); ok {
		m.mu.Unlock()
		t := simtime.Max(p.postTime, f.onset).Add(m.world.health.Deadline)
		m.world.watchdogWakeups.Add(1)
		return failEnvelope(src, p.tag, t, f.err)
	}
	m.posted = append(m.posted, p)
	m.mu.Unlock()
	return nil
}

// quitFor looks up a quit record covering a posted receive: its source
// abandoned the attempt the receive's tag belongs to. At most one record
// per (source, epoch) can exist, so the scan's answer is order-free.
// Called with m.mu held.
//
//simlint:lockheld callers lock m.mu before the scan
func (m *mailbox) quitFor(postSrc, tag int) (attemptQuit, bool) {
	for _, q := range m.quits {
		if q.src == postSrc && quitCovers(q, tag) {
			return q, true
		}
	}
	return attemptQuit{}, false
}

// failedFor looks up an announced failure matching a posted source: the
// exact rank, or — for AnySource, which cannot rule a dead sender out —
// the lowest announced rank, so the choice is deterministic. Called with
// m.mu held.
//
//simlint:lockheld callers lock m.mu before the scan
func (m *mailbox) failedFor(postSrc int) (int, srcFail, bool) {
	if len(m.failedSrcs) == 0 {
		return 0, srcFail{}, false
	}
	if postSrc != AnySource {
		f, ok := m.failedSrcs[postSrc]
		return postSrc, f, ok
	}
	best := -1
	//simlint:orderok computes the minimum over keys, which is order-independent
	for id := range m.failedSrcs {
		if best < 0 || id < best {
			best = id
		}
	}
	return best, m.failedSrcs[best], true
}

// controlArrival computes the arrival of a small control packet (RTS/CTS)
// under the fault model: dropped packets are discovered by the sender's
// retransmission timeout and resent after exponential backoff on the
// virtual clock, up to the retry budget. With no injector this is exactly
// one ControlMessage. src/dst identify the *message* (sender rank,
// receiver rank) regardless of which direction the packet travels.
func (w *World) controlArrival(kind faults.Kind, src, dst int, seq uint64, fromNode, toNode int, ready simtime.Time) (simtime.Time, error) {
	limit := w.retry.limit()
	for attempt := 0; ; attempt++ {
		if !w.linkLost(fromNode, toNode, ready) && !w.inj.ShouldDrop(kind, src, dst, seq, attempt) {
			return w.fabric.ControlMessage(fromNode, toNode, ready), nil
		}
		if attempt >= limit {
			return ready, fmt.Errorf("mpi: %v %d->%d seq %d lost after %d attempts: %w",
				kind, src, dst, seq, attempt+1, ErrDeliveryFailed)
		}
		ready = ready.Add(w.retry.delay(attempt))
	}
}

// linkLost asks the fabric whether the inter-node link refuses an attempt
// at instant `ready`. A refused attempt is exactly a wire drop: the sender
// discovers it by timeout and retries after backoff, so the exponential
// schedule rides out a deterministic outage or flap window instead of
// deadlocking on it. Gated so fault-free worlds never make the call.
func (w *World) linkLost(fromNode, toNode int, ready simtime.Time) bool {
	return w.linkFaults && w.fabric.LinkLost(fromNode, toNode, ready)
}

// deliverPayload simulates the bounded-retry transfer of one wire payload:
// attempts may be dropped (discovered by the sender's timeout) or
// corrupted (detected by the receiver's checksum pass and NACKed); each
// retransmission backs off exponentially on the virtual clock. It returns
// the delivered bytes and the arrival of the final attempt, or a wrapped
// ErrDeliveryFailed once the retry budget is spent. With no injector this
// is exactly one fabric Transfer.
//
//simlint:nocharge the verification pass is costed on the arrival timestamp (ThroughputTime below), not the rank clock
func (w *World) deliverPayload(kind faults.Kind, src, dst int, seq uint64, srcNode, dstNode int, ready simtime.Time, payload []byte, crc uint32) ([]byte, simtime.Time, error) {
	limit := w.retry.limit()
	for attempt := 0; ; attempt++ {
		if w.linkLost(srcNode, dstNode, ready) || w.inj.ShouldDrop(kind, src, dst, seq, attempt) {
			if attempt >= limit {
				return nil, ready, fmt.Errorf("mpi: %v %d->%d seq %d lost after %d attempts: %w",
					kind, src, dst, seq, attempt+1, ErrDeliveryFailed)
			}
			ready = ready.Add(w.retry.delay(attempt))
			continue
		}
		wire, corrupted := w.inj.Corrupt(payload, src, dst, seq, attempt)
		arrival := w.fabric.Transfer(srcNode, dstNode, ready, len(wire))
		if !corrupted || core.Checksum(wire) == crc {
			// Intact — or an undetectable checksum collision, which is
			// exactly how a real CRC fails; the garbage then surfaces (or
			// not) from the decoder, never as a hang.
			return wire, arrival, nil
		}
		// The receiver's verification pass detects the corruption and
		// NACKs; the sender retransmits after backoff.
		verified := arrival.Add(simtime.ThroughputTime(len(wire), w.cluster.GPU.MemBWGBps*8))
		if attempt >= limit {
			return nil, verified, fmt.Errorf("mpi: %v %d->%d seq %d corrupted after %d attempts: %w",
				kind, src, dst, seq, attempt+1, ErrDeliveryFailed)
		}
		nack := w.fabric.ControlMessage(dstNode, srcNode, verified)
		ready = simtime.Max(ready, nack.Add(w.retry.delay(attempt)))
	}
}

// deliverData is deliverPayload for the rendezvous data stage, where the
// payload travels with a full compression header. On top of the wire
// fault model it injects codec-stage corruption (compressed payloads
// only) and drives the sender's per-peer circuit breaker: every corrupted
// compressed attempt records a failure, every delivered one a success,
// and when the breaker opens mid-retry the remaining attempts switch to
// the uncompressed wire form via fb — so even the message whose failures
// tripped the breaker completes within its retry budget. The possibly
// swapped header is returned for the receiver to decode with.
//
//simlint:nocharge the verification pass is costed on the arrival timestamp (ThroughputTime below), not the rank clock
func (w *World) deliverData(src, dst int, seq uint64, srcNode, dstNode int, ready simtime.Time, payload []byte, hdr core.Header, fb wireFallback) ([]byte, core.Header, simtime.Time, error) {
	eng := w.ranks[src].Engine
	limit := w.retry.limit()
	for attempt := 0; ; attempt++ {
		if w.linkLost(srcNode, dstNode, ready) || w.inj.ShouldDrop(faults.KindData, src, dst, seq, attempt) {
			if attempt >= limit {
				return nil, hdr, ready, fmt.Errorf("mpi: %v %d->%d seq %d lost after %d attempts: %w",
					faults.KindData, src, dst, seq, attempt+1, ErrDeliveryFailed)
			}
			ready = ready.Add(w.retry.delay(attempt))
			continue
		}
		wire, corrupted := w.inj.Corrupt(payload, src, dst, seq, attempt)
		if !corrupted && hdr.Compressed {
			// The codec fault path only ever touches compressed payloads:
			// a flaky compression engine cannot corrupt bytes it never
			// processes, which is exactly why breaker fallback works.
			wire, corrupted = w.inj.CorruptCodec(wire, src, dst, seq, attempt, ready)
		}
		arrival := w.fabric.Transfer(srcNode, dstNode, ready, len(wire))
		if !corrupted || core.Checksum(wire) == hdr.Checksum {
			if hdr.Compressed {
				eng.BreakerSuccess(dst)
			}
			return wire, hdr, arrival, nil
		}
		// The receiver's verification pass detects the corruption and
		// NACKs; the sender retransmits after backoff.
		verified := arrival.Add(simtime.ThroughputTime(len(wire), w.cluster.GPU.MemBWGBps*8))
		if hdr.Compressed {
			eng.BreakerFailure(dst, verified)
		}
		if attempt >= limit {
			return nil, hdr, verified, fmt.Errorf("mpi: %v %d->%d seq %d corrupted after %d attempts: %w",
				faults.KindData, src, dst, seq, attempt+1, ErrDeliveryFailed)
		}
		nack := w.fabric.ControlMessage(dstNode, srcNode, verified)
		ready = simtime.Max(ready, nack.Add(w.retry.delay(attempt)))
		if fb != nil && hdr.Compressed && eng.BreakerOpen(dst, ready) {
			// The breaker just opened on this pair: degrade the in-flight
			// message to its uncompressed form for the remaining attempts.
			var cost simtime.Duration
			payload, hdr, cost = fb(ready)
			ready = ready.Add(cost)
			fb = nil
		}
	}
}

// completeMatch performs the rendezvous protocol's receiver-side steps
// (Figure 4, steps 4-5): record the match, stage the temporary device
// buffer for the compressed payload, send the CTS, and compute the data
// transfer over the fabric. Eager envelopes need no work.
func completeMatch(p *recvPost, env *envelope) {
	if env.eager {
		return
	}
	if env.pipelined {
		completePipelinedMatch(p, env)
		return
	}
	r := p.rank
	w := r.world
	// The receive proceeds once both the RTS has arrived and the receive
	// is posted (asynchronous progress-thread semantics).
	match := simtime.Max(p.postTime, env.rtsArrival)
	if env.deliveryErr != nil {
		// The RTS never made it; rtsArrival is the sender's give-up
		// instant and both sides observe the failure from there.
		env.matchTime = match
		env.dataArrival = match
		env.senderDone <- sendOutcome{t: match, err: env.deliveryErr}
		return
	}
	// Stage the receive buffer before clearing the sender to send.
	stageClk := simtime.NewClock(match)
	env.staged = r.Engine.StageRecv(stageClk, env.hdr)
	env.matchTime = stageClk.Now()
	srcNode := w.nodeOf(env.src)
	dstNode := w.nodeOf(r.id)
	cts, err := w.controlArrival(faults.KindCTS, env.src, r.id, env.seq, dstNode, srcNode, env.matchTime)
	if err != nil {
		env.deliveryErr = err
		env.dataArrival = cts
		env.senderDone <- sendOutcome{t: cts, err: err}
		return
	}
	// The RDMA transfer is posted by the sender's HCA when the CTS
	// arrives; the sender's CPU is not involved.
	ready := simtime.Max(env.sendPost, cts)
	wire, hdr, arrival, err := w.deliverData(env.src, r.id, env.seq,
		srcNode, dstNode, ready, env.payload, env.hdr, env.fb)
	if err != nil {
		env.deliveryErr = err
		env.dataArrival = arrival
		env.senderDone <- sendOutcome{t: arrival, err: err}
		return
	}
	env.payload = wire
	env.hdr = hdr
	env.dataArrival = arrival
	w.tracer.Add(fmt.Sprintf("net %d->%d", env.src, r.id), "transfer", ready, env.dataArrival)
	env.senderDone <- sendOutcome{t: env.dataArrival}
}

// Request is a handle for a nonblocking operation, completed by Wait.
type Request struct {
	rank *Rank
	done bool
	err  error
	// inf is this request's slot in the owning rank's inflight list plus
	// one (0 = untracked); see trackInflight.
	inf int

	// send side
	isSend bool
	env    *envelope

	// receive side
	buf   *gpusim.Buffer
	post  *recvPost
	early *envelope // match found at post time
	// typ, when non-nil, marks a typed receive (IrecvTyped): incoming
	// packed words scatter into the layout's positions in buf instead of
	// filling it contiguously.
	typ dtype.Type
	// raw receive (collective relay path)
	wantRaw bool
	raw     rawResult
}

// Send transmits buf to rank dst with the given tag, blocking until the
// local buffer is reusable (rendezvous: transfer drained).
func (r *Rank) Send(dst, tag int, buf *gpusim.Buffer) error {
	req, err := r.Isend(dst, tag, buf)
	if err != nil {
		return err
	}
	return r.Wait(req)
}

// Recv receives into buf from rank src (or AnySource) with the given tag
// (or AnyTag), blocking until the message content is available in buf.
func (r *Rank) Recv(src, tag int, buf *gpusim.Buffer) error {
	req, err := r.Irecv(src, tag, buf)
	if err != nil {
		return err
	}
	return r.Wait(req)
}

// Isend starts a nonblocking send. Compression (when eligible) happens
// now, on the caller's clock, exactly as in Figure 4 steps 1-3; the
// handshake and transfer proceed asynchronously and Wait observes their
// completion. User tags must be non-negative; the internal (negative) tag
// namespace is reserved for collectives.
func (r *Rank) Isend(dst, tag int, buf *gpusim.Buffer) (*Request, error) {
	if tag < 0 {
		return nil, fmt.Errorf("mpi: user tags must be non-negative (got %d)", tag)
	}
	return r.isend(dst, tag, buf, nil)
}

// isend is the one send path: Isend and IsendTyped without their boundary
// validation, shared with the collectives' internal tag namespace. It
// sends the words t selects from buf, or all of buf when t is nil; the
// protocol tiers are the same either way and see only the packed size.
func (r *Rank) isend(dst, tag int, buf *gpusim.Buffer, t dtype.Type) (*Request, error) {
	if err := r.checkPeer(dst); err != nil {
		return nil, err
	}
	if err := r.checkHealth(); err != nil {
		return nil, err
	}
	w := r.world
	dstRank := w.ranks[dst]
	seq := r.nextSeq(dst)
	total := buf.Len()
	if t != nil {
		total = t.Size()
	}

	if total < w.eagerLimit {
		// Eager protocol: one message carrying payload and checksum. A
		// layout travels packed (there is no codec pass to fuse the gather
		// into on this tier), produced straight from the strided source
		// into the wire copy every eager send makes anyway.
		var payload []byte
		if t == nil {
			payload = append(payload, buf.Data...)
		} else {
			payload = make([]byte, total)
			if err := dtype.Pack(payload, buf.Data, t); err != nil {
				return nil, fmt.Errorf("mpi: typed send to rank %d: %w", dst, err)
			}
		}
		crc := r.Engine.ChecksumWire(r.Clock, payload)
		wire, arrival, err := w.deliverPayload(faults.KindEager, r.id, dst, seq,
			r.Node(), w.nodeOf(dst), r.Clock.Now(), payload, crc)
		env := &envelope{
			src: r.id, dst: dst, tag: tag, eager: true, seq: seq,
			payload: wire, crc: crc, arrival: arrival, deliveryErr: err,
		}
		// The sender's CPU returns as soon as the message is injected;
		// a delivery failure surfaces from Wait, as MPI semantics demand.
		r.Clock.Advance(simtime.FromMicroseconds(0.5))
		dstRank.box.deliver(env)
		return &Request{rank: r, isSend: true, done: true, err: err}, nil
	}

	if r.pipelineEligible(dst, total) {
		req := r.isendPipelined(dst, tag, buf, t, total, seq)
		r.trackInflight(req)
		return req, nil
	}

	// Rendezvous: compress (steps 1-3; a layout's gather rides the codec's
	// read pass), then RTS with the piggybacked header (step 4). The engine
	// sees the destination link's bandwidth so the dynamic-selection
	// extension can gate per message. An open codec circuit breaker for
	// this destination overrides compression entirely: the payload goes
	// uncompressed with the Fallback bit set on the RTS header (the
	// degradation negotiation), skipping the codec whose failures tripped
	// the breaker.
	var payload []byte
	var hdr core.Header
	var fb wireFallback
	link := w.fabric.LinkFor(r.Node(), w.nodeOf(dst))
	eligible := r.Engine.ShouldCompressPacked(buf, total)
	if eligible && !r.Engine.BreakerAllow(dst, r.Clock.Now()) {
		payload, hdr = r.Engine.BypassChunk(r.Clock, buf, t, 0, total)
		hdr.Fallback = true
	} else {
		// The compress-once cache makes repeated sends of an unchanged
		// tracked buffer (fan-out roots, warm benchmark iterations, halo
		// faces) reuse the first send's wire payload; untracked buffers
		// take the original path.
		payload, hdr = r.Engine.CompressChunkCached(r.Clock, buf, t, 0, total, link.BandwidthGBps)
		switch {
		case hdr.Compressed && r.Engine.BreakerEnabled():
			// Mid-message degradation hook: if the breaker opens while
			// this message retries, the transport regenerates it
			// uncompressed. The closure reads buf, which MPI semantics
			// keep frozen until Wait completes the send.
			eng := r.Engine
			fb = func(at simtime.Time) ([]byte, core.Header, simtime.Duration) {
				clk := simtime.NewClock(at)
				p, h := eng.BypassChunk(clk, buf, t, 0, total)
				h.Fallback = true
				return p, h, clk.Now().Sub(at)
			}
		case eligible && !hdr.Compressed:
			// The breaker allowed this send — possibly consuming its
			// half-open probe — but the engine bypassed anyway (dynamic
			// gating, pool exhaustion), proving nothing about the codec;
			// rearm so the next send probes again.
			r.Engine.BreakerProbeAborted(dst)
		}
	}
	rtsArrival, rtsErr := w.controlArrival(faults.KindRTS, r.id, dst, seq,
		r.Node(), w.nodeOf(dst), r.Clock.Now())
	env := &envelope{
		src: r.id, dst: dst, tag: tag, seq: seq,
		payload:     payload,
		hdr:         hdr,
		rtsArrival:  rtsArrival,
		sendPost:    r.Clock.Now(),
		senderDone:  make(chan sendOutcome, 1),
		deliveryErr: rtsErr,
		fb:          fb,
	}
	req := &Request{rank: r, isSend: true, env: env}
	r.trackInflight(req)
	dstRank.box.deliver(env)
	return req, nil
}

// Irecv starts a nonblocking receive into buf. The tag must be
// non-negative or AnyTag.
func (r *Rank) Irecv(src, tag int, buf *gpusim.Buffer) (*Request, error) {
	if tag < 0 && tag != AnyTag {
		return nil, fmt.Errorf("mpi: user tags must be non-negative or AnyTag (got %d)", tag)
	}
	return r.irecv(src, tag, buf)
}

// irecv is Irecv without tag validation, shared with the collectives'
// internal tag namespace.
func (r *Rank) irecv(src, tag int, buf *gpusim.Buffer) (*Request, error) {
	if src != AnySource {
		if err := r.checkPeer(src); err != nil {
			return nil, err
		}
	}
	if err := r.checkHealth(); err != nil {
		return nil, err
	}
	p := &recvPost{src: src, tag: tag, postTime: r.Clock.Now(), matched: make(chan *envelope, 1), rank: r}
	req := &Request{rank: r, buf: buf, post: p}
	r.trackInflight(req)
	req.early = r.box.post(p)
	r.Clock.Advance(simtime.FromMicroseconds(0.3))
	return req, nil
}

// send is the internal-tag blocking send.
func (r *Rank) send(dst, tag int, buf *gpusim.Buffer) error {
	req, err := r.isend(dst, tag, buf, nil)
	if err != nil {
		return err
	}
	return r.Wait(req)
}

// recv is the internal-tag blocking receive.
func (r *Rank) recv(src, tag int, buf *gpusim.Buffer) error {
	req, err := r.irecv(src, tag, buf)
	if err != nil {
		return err
	}
	return r.Wait(req)
}

// sendrecv is the internal-tag simultaneous exchange.
func (r *Rank) sendrecv(dst, sendTag int, sendBuf *gpusim.Buffer, src, recvTag int, recvBuf *gpusim.Buffer) error {
	rreq, err := r.irecv(src, recvTag, recvBuf)
	if err != nil {
		return err
	}
	sreq, err := r.isend(dst, sendTag, sendBuf, nil)
	if err != nil {
		return err
	}
	return r.Waitall(sreq, rreq)
}

// Wait blocks until the request completes, advancing the caller's clock to
// the completion instant and (for receives) decompressing into the user
// buffer. Exhausted retry budgets surface as wrapped ErrDeliveryFailed.
func (r *Rank) Wait(req *Request) error {
	if req == nil {
		return fmt.Errorf("mpi: Wait on nil request")
	}
	if req.done {
		return req.err
	}
	req.done = true
	r.untrackInflight(req)
	if req.isSend {
		// Local completion: the send buffer is reusable once the
		// transfer has drained (or the transport gave up).
		out := <-req.env.senderDone
		r.Clock.AdvanceTo(out.t)
		if req.env.pipelined {
			// Feed the degrade ladder in the sender's program order.
			r.notePipeOutcome(req.env.dst, out.retransmits, out.err != nil)
		}
		req.err = out.err
		r.det.noteOutcome(req.env.dst, r.Clock.Now(), req.err)
		return out.err
	}
	if req.wantRaw {
		req.err = r.waitRecvRaw(req)
	} else {
		req.err = r.waitRecv(req)
	}
	r.det.noteOutcome(req.post.src, r.Clock.Now(), req.err)
	return req.err
}

func (r *Rank) waitRecv(req *Request) error {
	env := req.early
	if env == nil {
		env = <-req.post.matched
	}
	if env.eager {
		r.Clock.AdvanceTo(env.arrival)
		r.Clock.Advance(simtime.FromMicroseconds(0.5)) // unpack
		if env.deliveryErr != nil {
			return env.deliveryErr
		}
		if len(env.payload) > r.recvCapacity(req) {
			return fmt.Errorf("mpi: message of %d bytes truncated into %d-byte buffer", len(env.payload), r.recvCapacity(req))
		}
		// End-to-end integrity: verify the eager payload before unpacking.
		if err := r.Engine.VerifyPayload(r.Clock, core.Header{Checksum: env.crc}, env.payload); err != nil {
			return fmt.Errorf("mpi: eager message from rank %d: %w", env.src, err)
		}
		if req.typ != nil {
			scatterPrefix(req.buf.Data, env.payload, req.typ)
		} else {
			copy(req.buf.Data, env.payload)
		}
		req.buf.MarkDirty()
		return nil
	}
	if env.pipelined {
		return r.waitRecvPipelined(req, env)
	}
	// Rendezvous: the payload lands in the staged device buffer once the
	// transfer completes (step 5), then the decompression kernel
	// restores it into the user buffer (steps 6-7).
	r.Clock.AdvanceTo(simtime.Max(env.matchTime, env.dataArrival))
	if env.deliveryErr != nil {
		r.Engine.ReleaseRecv(r.Clock, env.staged)
		return env.deliveryErr
	}
	if env.hdr.OrigBytes > r.recvCapacity(req) {
		r.Engine.ReleaseRecv(r.Clock, env.staged)
		return fmt.Errorf("mpi: message of %d bytes truncated into %d-byte buffer", env.hdr.OrigBytes, r.recvCapacity(req))
	}
	if env.hdr.Fallback {
		r.Engine.NoteFallbackRecv()
	}
	if env.staged != nil {
		copy(env.staged.Data, env.payload)
	}
	// End-to-end integrity: verify the wire payload against the header
	// checksum before handing it to the decoder.
	if err := r.Engine.VerifyPayload(r.Clock, env.hdr, env.payload); err != nil {
		r.Engine.ReleaseRecv(r.Clock, env.staged)
		return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
	}
	if err := r.Engine.DecompressChunk(r.Clock, env.hdr, env.payload, req.buf, req.typ, 0); err != nil {
		r.Engine.ReleaseRecv(r.Clock, env.staged)
		return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
	}
	r.Engine.ReleaseRecv(r.Clock, env.staged)
	return nil
}

// recvCapacity is the number of packed bytes a receive can absorb: the
// layout's packed size for typed receives, the buffer length otherwise.
func (r *Rank) recvCapacity(req *Request) int {
	if req.typ != nil {
		return req.typ.Size()
	}
	return req.buf.Len()
}

// scatterPrefix places the leading len(src) packed bytes into the
// layout's positions in dst (eager typed receives; the payload may be
// shorter than the layout's full packed size, like a short contiguous
// receive).
func scatterPrefix(dst, src []byte, t dtype.Type) {
	p := 0
	for _, rg := range t.AppendRuns(nil) {
		n := rg[1]
		if p+n > len(src) {
			n = len(src) - p
		}
		if n <= 0 {
			return
		}
		copy(dst[rg[0]:rg[0]+n], src[p:p+n])
		p += n
	}
}

// Waitall completes all requests (in order).
func (r *Rank) Waitall(reqs ...*Request) error {
	var first error
	for _, req := range reqs {
		if err := r.Wait(req); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sendrecv performs a simultaneous send and receive (the classic exchange
// primitive collectives are built from).
func (r *Rank) Sendrecv(dst, sendTag int, sendBuf *gpusim.Buffer, src, recvTag int, recvBuf *gpusim.Buffer) error {
	rreq, err := r.Irecv(src, recvTag, recvBuf)
	if err != nil {
		return err
	}
	sreq, err := r.Isend(dst, sendTag, sendBuf)
	if err != nil {
		return err
	}
	return r.Waitall(sreq, rreq)
}

// --- raw payload plumbing for compression-aware collectives ---
//
// Collectives that relay data (Bcast trees, Allgather rings) would pay a
// full decompress + recompress at every hop if they used plain Send/Recv.
// The framework's header makes this unnecessary: a rank can forward the
// compressed payload it received, and every consumer decompresses exactly
// once. isendPayload and irecvRaw expose the rendezvous path at that
// level; they are internal to the collectives.

// isendPayload starts a rendezvous send of an already-prepared payload
// with its compression header (no engine work on this rank). The header's
// checksum travels with the payload, so integrity holds hop by hop across
// a relay chain.
func (r *Rank) isendPayload(dst, tag int, payload []byte, hdr core.Header) (*Request, error) {
	if err := r.checkPeer(dst); err != nil {
		return nil, err
	}
	if err := r.checkHealth(); err != nil {
		return nil, err
	}
	w := r.world
	seq := r.nextSeq(dst)
	r.Engine.NoteRelay(len(payload))
	r.Clock.Advance(simtime.FromMicroseconds(0.3))
	if r.pipelineEligible(dst, len(payload)) {
		// Large relayed payloads ride the chunk-granular reliability path:
		// segmented with per-chunk CRCs, selectively retransmitted, and
		// credit-windowed exactly like a pipelined compression stream.
		req, perr := r.isendPayloadChunked(dst, tag, payload, hdr, seq)
		if perr == nil {
			r.trackInflight(req)
		}
		return req, perr
	}
	rtsArrival, rtsErr := w.controlArrival(faults.KindRTS, r.id, dst, seq,
		r.Node(), w.nodeOf(dst), r.Clock.Now())
	env := &envelope{
		src: r.id, dst: dst, tag: tag, seq: seq,
		payload:     payload,
		hdr:         hdr,
		rtsArrival:  rtsArrival,
		sendPost:    r.Clock.Now(),
		senderDone:  make(chan sendOutcome, 1),
		deliveryErr: rtsErr,
	}
	req := &Request{rank: r, isSend: true, env: env}
	r.trackInflight(req)
	w.ranks[dst].box.deliver(env)
	return req, nil
}

// rawResult is what a raw receive yields: the wire payload, its header,
// and the staging buffer to release after decompression.
type rawResult struct {
	payload []byte
	hdr     core.Header
	staged  *gpusim.Buffer
}

// irecvRaw posts a receive whose Wait captures the raw payload instead of
// decompressing into a user buffer. The result appears in req.raw.
func (r *Rank) irecvRaw(src, tag int) (*Request, error) {
	if src != AnySource {
		if err := r.checkPeer(src); err != nil {
			return nil, err
		}
	}
	if err := r.checkHealth(); err != nil {
		return nil, err
	}
	p := &recvPost{src: src, tag: tag, postTime: r.Clock.Now(), matched: make(chan *envelope, 1), rank: r}
	req := &Request{rank: r, post: p, wantRaw: true}
	r.trackInflight(req)
	req.early = r.box.post(p)
	r.Clock.Advance(simtime.FromMicroseconds(0.3))
	return req, nil
}

// waitRecvRaw completes a raw receive: the clock advances to payload
// arrival and the payload is verified, but no decompression happens.
func (r *Rank) waitRecvRaw(req *Request) error {
	env := req.early
	if env == nil {
		env = <-req.post.matched
	}
	if env.eager {
		r.Clock.AdvanceTo(env.arrival)
		r.Clock.Advance(simtime.FromMicroseconds(0.5))
		if env.deliveryErr != nil {
			return env.deliveryErr
		}
		if err := r.Engine.VerifyPayload(r.Clock, core.Header{Checksum: env.crc}, env.payload); err != nil {
			return fmt.Errorf("mpi: eager message from rank %d: %w", env.src, err)
		}
		req.raw = rawResult{
			payload: env.payload,
			hdr:     core.Header{Algo: core.AlgoNone, OrigBytes: len(env.payload), CompBytes: len(env.payload), Checksum: env.crc},
		}
		return nil
	}
	if env.pipelined {
		return r.waitRecvRawChunked(req, env)
	}
	r.Clock.AdvanceTo(simtime.Max(env.matchTime, env.dataArrival))
	if env.deliveryErr != nil {
		r.Engine.ReleaseRecv(r.Clock, env.staged)
		return env.deliveryErr
	}
	if env.hdr.Fallback {
		r.Engine.NoteFallbackRecv()
	}
	if env.staged != nil {
		copy(env.staged.Data, env.payload)
	}
	// Verify before the payload is relayed onward: a relay chain then
	// detects corruption at the hop where it happened.
	if err := r.Engine.VerifyPayload(r.Clock, env.hdr, env.payload); err != nil {
		r.Engine.ReleaseRecv(r.Clock, env.staged)
		return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
	}
	req.raw = rawResult{payload: env.payload, hdr: env.hdr, staged: env.staged}
	r.noteRawStaged(env.staged)
	return nil
}

// noteRawStaged / dropRawStaged bracket the window where a completed raw
// receive's staging buffer is parked on the request: between Wait and
// consumeRaw an abort would otherwise leak the slot, so the reap
// (reapInflight) and the self-heal drain release whatever is still noted.
func (r *Rank) noteRawStaged(b *gpusim.Buffer) {
	if b != nil {
		r.rawStaged = append(r.rawStaged, b)
	}
}

func (r *Rank) dropRawStaged(b *gpusim.Buffer) {
	for i, x := range r.rawStaged {
		if x == b {
			r.rawStaged = append(r.rawStaged[:i], r.rawStaged[i+1:]...)
			return
		}
	}
}
