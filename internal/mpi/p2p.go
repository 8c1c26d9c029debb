package mpi

import (
	"errors"
	"fmt"
	"slices"
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

	// hdr describes payload on every tier (an eager message's is the
	// uncompressed form: sizes and the payload checksum). decoded is a
	// relayed payload's host-only companion (core.Decoded; nil on every
	// other message): it rides next to the bytes it is the decoded form of
	// and is dropped with them.
	payload []byte
	hdr     core.Header
	decoded *core.Decoded

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
			// Delete, not re-slice: the vacated tail slot is cleared, so the
			// queue's backing array keeps no matched receive reachable.
			m.posted = slices.Delete(m.posted, i, i+1)
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
			// As in deliver: a matched envelope (payload and all) must not
			// stay reachable from the queue's tail.
			m.unexpected = slices.Delete(m.unexpected, i, i+1)
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

	// receive side (buf is nil for a raw receive)
	buf   *gpusim.Buffer
	post  *recvPost
	early *envelope // match found at post time
	// typ, when non-nil, marks a typed receive (IrecvTyped): incoming
	// packed words scatter into the layout's positions in buf instead of
	// filling it contiguously.
	typ dtype.Type
	// raw receive (collective relay path): a receive with no buf captures
	// the verified wire payload here instead of decoding it.
	raw rawResult
}

// Send transmits buf to rank dst with the given tag, blocking until the
// local buffer is reusable (rendezvous: transfer drained).
func (r *Rank) Send(dst, tag int, buf *gpusim.Buffer) error {
	return r.await(r.Isend(dst, tag, buf))
}

// await completes an operation that was just started: every blocking form
// is its nonblocking one plus Wait.
func (r *Rank) await(req *Request, err error) error {
	if err != nil {
		return err
	}
	return r.Wait(req)
}

// Recv receives into buf from rank src (or AnySource) with the given tag
// (or AnyTag), blocking until the message content is available in buf.
func (r *Rank) Recv(src, tag int, buf *gpusim.Buffer) error {
	return r.await(r.Irecv(src, tag, buf))
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
	if buf == nil {
		return nil, fmt.Errorf("mpi: send to rank %d: nil buffer", dst)
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

	if total < eagerLimit {
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
		hdr := core.Header{Algo: core.AlgoNone, OrigBytes: total, CompBytes: total,
			Checksum: r.Engine.ChecksumWire(r.Clock, payload)}
		out, err := w.transmit(w.messageEvent(faults.KindEager, r.id, dst, seq), r.Clock.Now(), payload, hdr)
		env := &envelope{
			src: r.id, dst: dst, tag: tag, eager: true, seq: seq,
			payload: out.wire, hdr: hdr, arrival: out.arrival, deliveryErr: err,
		}
		// The sender's CPU returns as soon as the message is injected;
		// a delivery failure surfaces from Wait, as MPI semantics demand.
		r.Clock.Advance(simtime.FromMicroseconds(0.5))
		dstRank.box.deliver(env)
		return &Request{rank: r, isSend: true, done: true, err: err}, nil
	}

	if r.pipelineEligible(dst, total) {
		// The RTS goes out first — the receiver can match, stage, and return
		// the CTS while the sender is still compressing chunks.
		env := r.rendezvous(dst, tag, seq, core.Header{Algo: core.AlgoNone, OrigBytes: total, CompBytes: total}, true)
		r.compressChunks(env, buf, t, total)
		return r.startSend(env), nil
	}

	// Whole-message rendezvous: compress (steps 1-3; a layout's gather rides
	// the codec's read pass), then RTS with the piggybacked header (step 4).
	// The engine sees the destination link's bandwidth so the
	// dynamic-selection extension can gate per message. An open codec circuit
	// breaker for this destination overrides compression entirely: the
	// payload goes uncompressed with the Fallback bit set on the RTS header
	// (the degradation negotiation), skipping the codec whose failures
	// tripped the breaker.
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
	env := r.rendezvous(dst, tag, seq, hdr, false)
	env.payload, env.fb = payload, fb
	return r.startSend(env), nil
}

// rendezvous issues the RTS of a rendezvous-class message and builds its
// envelope with everything the tiers share; stream adds a chunk stream's
// lane ticket and completion gate. What differs by tier is how the payload
// or chunk list is produced and *when* this is called: before chunk
// compression on the pipelined tier, after compression on the
// whole-message tier (the header rides the RTS).
func (r *Rank) rendezvous(dst, tag int, seq uint64, hdr core.Header, stream bool) *envelope {
	w := r.world
	rts, err := w.transmit(w.messageEvent(faults.KindRTS, r.id, dst, seq), r.Clock.Now(), nil, core.Header{})
	env := &envelope{
		src: r.id, dst: dst, tag: tag, seq: seq,
		hdr:         hdr,
		rtsArrival:  rts.arrival,
		sendPost:    r.Clock.Now(),
		senderDone:  make(chan sendOutcome, 1),
		deliveryErr: err,
	}
	if stream {
		env.pipelined = true
		env.ticket = r.pipeTx[dst].issue()
		env.done = make(chan struct{})
	}
	return env
}

// startSend tracks a rendezvous-class send and hands its envelope to the
// destination's mailbox.
func (r *Rank) startSend(env *envelope) *Request {
	req := &Request{rank: r, isSend: true, env: env}
	r.trackInflight(req)
	r.world.ranks[env.dst].box.deliver(env)
	return req
}

// Irecv starts a nonblocking receive into buf. The tag must be
// non-negative or AnyTag.
func (r *Rank) Irecv(src, tag int, buf *gpusim.Buffer) (*Request, error) {
	if tag < 0 && tag != AnyTag {
		return nil, fmt.Errorf("mpi: user tags must be non-negative or AnyTag (got %d)", tag)
	}
	if buf == nil {
		return nil, fmt.Errorf("mpi: receive from rank %d: nil buffer", src)
	}
	return r.irecv(src, tag, buf)
}

// irecv is Irecv without its boundary validation, shared with the
// collectives' internal tag namespace. A nil buf posts a raw receive: Wait
// captures the verified wire payload in req.raw instead of decoding it
// (the relay collectives' receive, see isendPayload).
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
	return r.await(r.isend(dst, tag, buf, nil))
}

// recv is the internal-tag blocking receive.
func (r *Rank) recv(src, tag int, buf *gpusim.Buffer) error {
	return r.await(r.irecv(src, tag, buf))
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
	req.err = r.waitRecv(req)
	r.det.noteOutcome(req.post.src, r.Clock.Now(), req.err)
	return req.err
}

// waitRecv is the one receive completion. The tiers differ in how the
// clock follows the message and in how the bytes are assembled; everything
// else — delivery error, capacity, fallback note, staging copy, end-to-end
// verification before any decoder sees the bytes, decode or raw capture —
// is one sequence, and whatever staging the envelope still holds at the
// end goes back to the pool on the one exit.
func (r *Rank) waitRecv(req *Request) error {
	env := req.early
	if env == nil {
		env = <-req.post.matched
	}
	if env.pipelined {
		// The match completion may still be parked on the sender's
		// pipeLane; the close publishes the filled timeline
		// (happens-before the reads below).
		<-env.done
	}
	defer r.releaseStaging(env)
	switch {
	case env.eager:
		r.Clock.AdvanceTo(env.arrival)
		r.Clock.Advance(simtime.FromMicroseconds(0.5)) // unpack
	case env.pipelined:
		// Chunks are consumed as they land; a failed stream is observed at
		// its bounded give-up instant.
		r.Clock.AdvanceTo(env.matchTime)
		if env.deliveryErr != nil {
			r.Clock.AdvanceTo(env.dataArrival)
		}
	default:
		// The payload lands in the staged device buffer once the transfer
		// completes (step 5).
		r.Clock.AdvanceTo(simtime.Max(env.matchTime, env.dataArrival))
	}
	if env.deliveryErr != nil {
		return env.deliveryErr
	}
	if req.buf != nil && env.hdr.OrigBytes > r.recvCapacity(req) {
		return fmt.Errorf("mpi: message of %d bytes truncated into %d-byte buffer", env.hdr.OrigBytes, r.recvCapacity(req))
	}
	payload := env.payload
	if env.pipelined {
		// Chunks drain in (arrival, index) order — out-of-order completions
		// reassemble deterministically. A relay segment is placed at its
		// offset in the wire payload, which is then handled whole below; a
		// compression chunk is verified and decoded at its packed offset
		// while later chunks are still on the wire.
		if env.relayChunks {
			payload = make([]byte, env.hdr.CompBytes)
		}
		fallback := false
		for _, i := range chunkOrder(env.chunks) {
			c := &env.chunks[i]
			r.Clock.AdvanceTo(c.arrival)
			if env.relayChunks {
				copy(payload[c.off:], c.payload)
				continue
			}
			fallback = fallback || c.hdr.Fallback
			if err := r.Engine.VerifyPayload(r.Clock, c.hdr, c.payload); err != nil {
				return fmt.Errorf("mpi: chunk %d from rank %d: %w", i, env.src, err)
			}
			if err := r.Engine.DecompressChunk(r.Clock, c.hdr, c.payload, req.buf, req.typ, c.off); err != nil {
				return fmt.Errorf("mpi: chunk %d from rank %d: %w", i, env.src, err)
			}
		}
		if !env.relayChunks {
			if fallback {
				r.Engine.NoteFallbackRecv()
			}
			return nil
		}
	}
	if env.hdr.Fallback {
		r.Engine.NoteFallbackRecv()
	}
	// End-to-end integrity: verify the wire payload against the header
	// checksum before it reaches a decoder or is relayed onward — a relay
	// chain then detects corruption at the hop where it happened.
	if err := r.Engine.VerifyPayload(r.Clock, env.hdr, payload); err != nil {
		return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
	}
	switch {
	case req.buf == nil:
		// Raw: capture for forwarding. The staging buffer parks on the
		// rank until consumeRaw, so it is no longer the envelope's to
		// release.
		req.raw = rawResult{payload: payload, hdr: env.hdr, decoded: env.decoded, staged: env.staged}
		r.noteRawStaged(env.staged)
		env.staged = nil
	case env.eager:
		if req.typ != nil {
			// The payload may be shorter than the layout's packed size,
			// like a short contiguous receive: it fills a packed prefix.
			req.typ.Plan().Scatter(req.buf.Data, 0, payload)
		} else {
			copy(req.buf.Data, payload)
		}
		req.buf.MarkDirty()
	default:
		// The decompression kernel restores the payload into the user
		// buffer (steps 6-7).
		if err := r.Engine.DecompressChunk(r.Clock, env.hdr, payload, req.buf, req.typ, 0); err != nil {
			return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
		}
	}
	return nil
}

// releaseStaging hands back whatever receive staging an envelope still
// holds, at this rank's clock: waitRecv's one exit, and the reap of
// requests an aborted collective abandoned.
func (r *Rank) releaseStaging(env *envelope) {
	for _, b := range env.stagedChunks {
		r.Engine.ReleaseRecv(r.Clock, b)
	}
	env.stagedChunks = nil
	if env.staged != nil {
		r.Engine.ReleaseRecv(r.Clock, env.staged)
		env.staged = nil
	}
}

// recvCapacity is the number of packed bytes a receive can absorb: the
// layout's packed size for typed receives, the buffer length otherwise.
func (r *Rank) recvCapacity(req *Request) int {
	if req.typ != nil {
		return req.typ.Size()
	}
	return req.buf.Len()
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
// once. isendPayload and a raw receive (irecv with no buffer) expose the
// rendezvous path at that level; they are internal to the collectives.

// isendPayload starts a rendezvous send of an already-prepared payload
// with its compression header (no engine work on this rank). The header's
// checksum travels with the payload, so integrity holds hop by hop across
// a relay chain. Large relayed payloads ride the chunk-granular
// reliability path: segmented with per-chunk CRCs, selectively
// retransmitted, and credit-windowed exactly like a pipelined compression
// stream, then reassembled and decoded against the message's own header.
// dec, the payload's decoded-form companion (nil: none), rides the envelope
// on either tier.
func (r *Rank) isendPayload(dst, tag int, payload []byte, hdr core.Header, dec *core.Decoded) (*Request, error) {
	if err := r.checkPeer(dst); err != nil {
		return nil, err
	}
	if err := r.checkHealth(); err != nil {
		return nil, err
	}
	seq := r.nextSeq(dst)
	r.Engine.NoteRelay(len(payload))
	r.Clock.Advance(simtime.FromMicroseconds(0.3))
	if !r.pipelineEligible(dst, len(payload)) {
		env := r.rendezvous(dst, tag, seq, hdr, false)
		env.payload, env.decoded = payload, dec
		return r.startSend(env), nil
	}
	// One checksum pass over the payload pays for stamping the
	// per-segment CRCs (the bytes are scanned once either way).
	r.Engine.ChecksumWire(r.Clock, payload)
	env := r.rendezvous(dst, tag, seq, hdr, true)
	env.relayChunks, env.decoded = true, dec
	chunkBytes := r.Engine.Config().PipelineChunkBytes
	for off := 0; off < len(payload); off += chunkBytes {
		n := chunkBytes
		if off+n > len(payload) {
			n = len(payload) - off
		}
		seg := payload[off : off+n]
		env.addChunk(r.Clock.Now(), seg, core.Header{Compressed: hdr.Compressed}, off, core.Checksum(seg))
	}
	r.Engine.NotePipeRelayChunks(len(env.chunks))
	return r.startSend(env), nil
}

// rawResult is what a raw receive yields: the wire payload, its header,
// the decoded-form companion it traveled with (nil: none), and the staging
// buffer to release after decompression.
type rawResult struct {
	payload []byte
	hdr     core.Header
	decoded *core.Decoded
	staged  *gpusim.Buffer
}

// noteRawStaged / dropRawStaged bracket the window where a completed raw
// receive's staging buffer is parked on the request: between Wait and
// consumeRaw an abort would otherwise leak the slot, so the reap
// (reapInflight) and the self-heal drain release whatever is still noted
// (releaseRawStaged).
func (r *Rank) noteRawStaged(b *gpusim.Buffer) {
	if b != nil {
		r.rawStaged = append(r.rawStaged, b)
	}
}

func (r *Rank) dropRawStaged(b *gpusim.Buffer) {
	for i, x := range r.rawStaged {
		if x == b {
			r.rawStaged = slices.Delete(r.rawStaged, i, i+1)
			return
		}
	}
}

func (r *Rank) releaseRawStaged() {
	for _, b := range r.rawStaged {
		r.Engine.ReleaseRecv(r.Clock, b)
	}
	r.rawStaged = nil
}
