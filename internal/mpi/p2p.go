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
	"mpicomp/internal/sched"
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
// The gone records (health.go) are written only by publish: peerGone holds
// the records other ranks published, so receives posted after a publish
// still observe them, and ownGone holds the owner's, so inbound traffic they
// cover is refused instead of queuing for a receive the owner will never
// post. Both are empty in fault-free runs.
//
// The mailbox owns its lock. Every field below mu is guarded by it and
// named only inside this file's mailbox methods, between m.mu.Lock() and
// Unlock() or in a *Locked method, which runs with mu held and is called
// only from those spans. Mailbox locks are leaf locks, no channel send
// happens under one, and none is held across a loop iteration or left in
// another state by a branch or a return. A method that takes entries out
// returns them, so its caller sends the wakeups after the unlock. world
// alone is set once at construction and read lock-free.
// TestMailboxOwnsItsLock (mailbox_test.go) checks all of this on the
// source.
type mailbox struct {
	mu         sync.Mutex
	unexpected []*envelope
	posted     []*recvPost

	peerGone []gone
	ownGone  []gone

	// world backlinks for the watchdog (deadline, wakeup accounting);
	// immutable after newMailbox.
	world *World
}

func newMailbox(w *World) *mailbox { return &mailbox{world: w} }

// tagMatches: AnyTag matches user tags only. Collectives run on the
// negative internal tags, a context MPI_ANY_TAG never reaches.
func tagMatches(postTag, msgTag int) bool {
	return postTag == msgTag || postTag == AnyTag && msgTag >= 0
}
func srcMatches(postSrc, msgSrc int) bool { return postSrc == AnySource || postSrc == msgSrc }

// deliver hands an envelope to the mailbox. If a posted receive matches,
// the match completes immediately in the caller's goroutine (the runtime's
// progress engine): staging, CTS, and the data-transfer timeline are all
// computed here, so neither side ever depends on the other reaching Wait.
func (m *mailbox) deliver(env *envelope) {
	m.mu.Lock()
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
	if g, ok := m.goneForLocked(true, AnySource, env.tag); ok {
		// The owner failed, or abandoned the attempt this traffic belongs
		// to: a matching receive will never be posted, so never queue it —
		// the sender (if rendezvous) unblocks at the same record-derived
		// instant the owner's publish would have used.
		m.mu.Unlock()
		m.world.failSend(env, g.at, g.err)
		return
	}
	m.unexpected = append(m.unexpected, env)
	m.mu.Unlock()
}

// post registers a receive. If an unexpected envelope already matches it
// is returned immediately (match completed); otherwise the receive queues
// and the caller waits on p.matched. Real messages win over gone records:
// the unexpected queue is scanned first, so a message a rank sent before
// it failed or quit is still received.
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
	if len(m.peerGone) > 0 {
		if g, ok := m.goneForLocked(false, p.src, p.tag); ok {
			// The source is already gone for this receive: wake it now, at
			// the instant the source's publish would have used had the
			// receive been posted earlier.
			m.mu.Unlock()
			m.world.watchdogWakeups.Add(1)
			return failEnvelope(g.src, p.tag, simtime.Max(p.postTime, g.at).Add(m.world.health.Deadline), g.err)
		}
	}
	m.posted = append(m.posted, p)
	m.mu.Unlock()
	return nil
}

// goneForLocked picks the record covering traffic from src (AnySource:
// from anyone) with tag, among the owner's own records or its peers'. The
// pick is a function of the record set, never of the order the records
// arrived in: among peers' records an attempt scope beats every tag (the
// revocation names the attempt the traffic belongs to), among the owner's
// every tag beats an attempt (a failed owner refuses everything), and then
// the lowest src wins. Records of one src arrive in its program order.
func (m *mailbox) goneForLocked(own bool, src, tag int) (gone, bool) {
	list := m.peerGone
	if own {
		list = m.ownGone
	}
	best := -1
	for i, g := range list {
		if !srcMatches(src, g.src) || !g.covers(tag) {
			continue
		}
		if best >= 0 {
			if b := list[best]; g.attempt == b.attempt && g.src >= b.src || g.attempt != b.attempt && g.attempt == own {
				continue
			}
		}
		best = i
	}
	if best < 0 {
		return gone{}, false
	}
	return list[best], true
}

// recordOwn is the owner publishing g: inbound traffic g covers is refused
// from now on and the envelopes of it already queued are taken out for the
// caller to fail. A failure (every tag) also drops the owner's posted
// receives, which will never resume.
func (m *mailbox) recordOwn(g gone) []*envelope {
	m.mu.Lock()
	m.ownGone = append(m.ownGone, g)
	refused := takeOut(&m.unexpected, func(env *envelope) bool { return g.covers(env.tag) })
	if !g.attempt {
		m.posted = nil
	}
	m.mu.Unlock()
	return refused
}

// recordPeer is peer g.src publishing g: receives posted from now on
// observe the record, and the posted receives it covers (AnySource
// included) are taken out for the caller to wake.
func (m *mailbox) recordPeer(g gone) []*recvPost {
	m.mu.Lock()
	m.peerGone = append(m.peerGone, g)
	woken := takeOut(&m.posted, func(p *recvPost) bool { return srcMatches(p.src, g.src) && g.covers(p.tag) })
	m.mu.Unlock()
	return woken
}

// queues returns the two match queues as they stand, for tests that check
// what their vacated tails still reference.
func (m *mailbox) queues() ([]*recvPost, []*envelope) {
	m.mu.Lock()
	posted, unexpected := m.posted, m.unexpected
	m.mu.Unlock()
	return posted, unexpected
}

// takeOut removes from *queue the entries pick selects and returns them, in
// queue order. slices.DeleteFunc clears the vacated tail, so a woken receive
// or a failed envelope — payload, decoded companion and all — does not stay
// reachable from the queue it left.
func takeOut[T any](queue *[]*T, pick func(*T) bool) []*T {
	var taken []*T
	*queue = slices.DeleteFunc(*queue, func(x *T) bool {
		if pick(x) {
			taken = append(taken, x)
			return true
		}
		return false
	})
	return taken
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
	// filling it contiguously. add marks a reduction's receive (irecvAdd):
	// incoming float32 words are added into buf's.
	typ dtype.Type
	add bool
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
// It is prepare and post back to back; a collective that must keep codec
// work out of a window where only fabric bookings may run (Alltoallv's
// waves) calls the two halves apart and holds the wire form in between.
func (r *Rank) isend(dst, tag int, buf *gpusim.Buffer, t dtype.Type) (*Request, error) {
	start := r.Clock.Now()
	env, err := r.prepare(dst, tag, buf, t)
	if err != nil {
		return nil, err
	}
	if !env.pipelined {
		// A chunk stream's RTS left at start — the receiver can match,
		// stage, and return the CTS while the sender is still compressing
		// chunks; a whole message's carries the header, so it leaves now.
		start = r.Clock.Now()
	}
	return r.post(env, tag, start), nil
}

// prepare produces the wire form of a send to dst on the caller's clock and
// returns it as an envelope the fabric has not seen: the eager copy and its
// checksum, a chunk stream compressed chunk by chunk, or a whole-message
// payload, compressed or not. Everything that costs codec or checksum time
// happens here; post does the rest. tag decides only whether this is a
// user send (tag >= 0), the only kind the model cuts (sendShape).
func (r *Rank) prepare(dst, tag int, buf *gpusim.Buffer, t dtype.Type) (*envelope, error) {
	if err := r.checkPeer(dst); err != nil {
		return nil, err
	}
	if err := r.checkHealth(); err != nil {
		return nil, err
	}
	total := buf.Len()
	if t != nil {
		total = t.Size()
	}
	env := &envelope{src: r.id, dst: dst}

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
		env.eager, env.payload = true, payload
		env.hdr = core.Header{Algo: core.AlgoNone, OrigBytes: total, CompBytes: total,
			Checksum: r.Engine.ChecksumWire(r.Clock, payload)}
		return env, nil
	}

	chunk, raw := r.sendShape(dst, buf, t, total, tag >= 0)
	if chunk > 0 {
		env.pipelined = true
		env.hdr = core.Header{Algo: core.AlgoNone, OrigBytes: total, CompBytes: total}
		r.compressChunks(env, buf, t, total, chunk)
		return env, nil
	}

	// Whole-message rendezvous: compress (steps 1-3; a layout's gather rides
	// the codec's read pass), then RTS with the piggybacked header (step 4).
	f := sendForm{r: r, dst: dst, buf: buf, t: t, raw: raw}
	env.payload, env.hdr, env.fb = f.part(0, total)
	f.done()
	return env, nil
}

// sendForm builds one send's wire form under the sender's codec circuit
// breaker: the whole message, or a stream's chunks in order. The breaker
// is asked once per message, at its first compressible part. A refusal
// sends every compressible part uncompressed with the Fallback bit set on
// its header (the degradation negotiation), skipping the codec whose
// failures tripped the breaker. A part that compresses under a breaker
// carries the rebuild of its uncompressed form, which the transport swaps
// in when the breaker trips while the part retries.
type sendForm struct {
	r   *Rank
	dst int
	buf *gpusim.Buffer
	t   dtype.Type
	// raw records that the model picked the uncompressed form: every part
	// travels as it is, and the breaker is never asked.
	raw bool
	// asked records that the breaker gave its verdict, refused what it
	// was; compressed that some part took the codec path.
	asked, refused, compressed bool
}

// shareGBps is the bandwidth the model prices a wire between nodes a and b
// at: the node's share of their link. The ppn ranks of a node share both
// its intra-node link and its HCA (netsim.Fabric books each on one
// calendar per node). A relayed payload crosses every link of its
// collective and is priced on the slowest, between nodes 0 and nodes-1:
// the network when the world spans nodes.
func (r *Rank) shareGBps(a, b int) float64 {
	return r.world.fabric.LinkFor(a, b).BandwidthGBps / float64(r.world.ppn)
}

// part builds the wire form of packed bytes [off, off+n) of the words t
// selects from buf (of buf itself when t is nil) on the sender's clock,
// and its fallback rebuild when it compressed under a breaker. The
// compress-once cache makes repeated sends of an unchanged tracked buffer
// (fan-out roots, warm benchmark iterations, halo faces) reuse the first
// send's wire payload.
func (f *sendForm) part(off, n int) ([]byte, core.Header, wireFallback) {
	r := f.r
	if f.raw {
		payload, hdr := r.Engine.BypassChunk(r.Clock, f.buf, f.t, off, n)
		return payload, hdr, nil
	}
	// A layout packs to whole words, so its chunk at an unaligned offset
	// also has an unaligned length: the size test alone agrees with the
	// engine's eligibility rule for both shapes.
	if r.brk != nil && r.Engine.ShouldCompressPacked(f.buf, n) {
		if !f.asked {
			f.asked, f.refused = true, !r.brk.Allow(f.dst, r.Clock.Now())
		}
		if f.refused {
			payload, hdr := r.Engine.BypassChunk(r.Clock, f.buf, f.t, off, n)
			hdr.Fallback = true
			return payload, hdr, nil
		}
	}
	payload, hdr := r.Engine.CompressChunkCached(r.Clock, f.buf, f.t, off, n)
	if !hdr.Compressed || r.brk == nil {
		return payload, hdr, nil
	}
	f.compressed = true
	// The rebuild reads buf, which MPI semantics keep frozen until Wait
	// completes the send.
	eng, buf, t := r.Engine, f.buf, f.t
	return payload, hdr, func(at simtime.Time) ([]byte, core.Header, simtime.Duration) {
		clk := simtime.NewClock(at)
		p, h := eng.BypassChunk(clk, buf, t, off, n)
		h.Fallback = true
		return p, h, clk.Now().Sub(at)
	}
}

// done closes the message. A breaker that let it compress — possibly
// spending its half-open probe — while no part did (pool exhaustion)
// learned nothing about the codec, so the probe is rearmed for the next
// send.
func (f *sendForm) done() {
	if f.asked && !f.refused && !f.compressed {
		f.r.brk.ProbeAborted(f.dst)
	}
}

// post hands a prepared wire form to the transport under tag; it charges
// no codec or checksum time. The message takes its sequence number here,
// in program order of posting. An eager message crosses the fabric at rts
// (a barrier token as a control packet). A rendezvous-class message sends
// its RTS at rts — a chunk stream's lane ticket and completion gate are
// issued with it — and is delivered to the destination's mailbox, whose
// match completion books the transfer.
func (r *Rank) post(env *envelope, tag int, rts simtime.Time) *Request {
	w := r.world
	env.tag, env.seq = tag, r.nextSeq(env.dst)
	if env.eager {
		ev := w.messageEvent(faults.KindEager, r.id, env.dst, env.seq)
		ev.token = tag == r.collTag(sched.BaseBarrier)
		out, err := w.transmit(ev, rts, env.payload, env.hdr)
		env.payload, env.arrival, env.deliveryErr = out.wire, out.arrival, err
		// The sender's CPU returns as soon as the message is injected;
		// a delivery failure surfaces from Wait, as MPI semantics demand.
		r.Clock.Advance(simtime.FromMicroseconds(0.5))
		w.ranks[env.dst].box.deliver(env)
		return &Request{rank: r, isSend: true, done: true, err: err}
	}
	out, err := w.transmit(w.messageEvent(faults.KindRTS, r.id, env.dst, env.seq), rts, nil, core.Header{})
	env.rtsArrival, env.sendPost, env.deliveryErr = out.arrival, rts, err
	env.senderDone = make(chan sendOutcome, 1)
	if env.pipelined {
		env.ticket = r.pipeTx[env.dst].issue()
		env.done = make(chan struct{})
	}
	req := &Request{rank: r, isSend: true, env: env}
	r.trackInflight(req)
	w.ranks[env.dst].box.deliver(env)
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

// irecvAdd is irecv for a reduction step: Wait adds the arriving float32
// words into buf's (core.Engine.DecompressAdd) instead of storing them.
func (r *Rank) irecvAdd(src, tag int, buf *gpusim.Buffer) (*Request, error) {
	req, err := r.irecv(src, tag, buf)
	if err == nil {
		req.add = true
	}
	return req, err
}

// send is the internal-tag blocking send.
func (r *Rank) send(dst, tag int, buf *gpusim.Buffer) error {
	return r.await(r.isend(dst, tag, buf, nil))
}

// recv is the internal-tag blocking receive.
func (r *Rank) recv(src, tag int, buf *gpusim.Buffer) error {
	return r.await(r.irecv(src, tag, buf))
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
		return out.err
	}
	req.err = r.waitRecv(req)
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
	if env.fellBack() {
		r.fallbackRecvs++
	}
	payload := env.payload
	if env.pipelined {
		// Chunks drain in (arrival, index) order — out-of-order completions
		// reassemble deterministically. A relay segment is placed at its
		// offset in the wire payload, which is then handled whole below; a
		// compression chunk is verified and decoded at its packed offset
		// while later chunks are still on the wire — or, on a raw receive,
		// kept in that order for consumeRaw to decode.
		if env.relayChunks {
			payload = make([]byte, env.hdr.CompBytes)
		}
		for _, i := range chunkOrder(env.chunks) {
			c := &env.chunks[i]
			r.Clock.AdvanceTo(c.arrival)
			switch {
			case env.relayChunks:
				copy(payload[c.off:], c.payload)
			case req.buf != nil:
				if err := r.decodeChunk(c, req); err != nil {
					return fmt.Errorf("mpi: chunk %d from rank %d: %w", i, env.src, err)
				}
			}
		}
		if !env.relayChunks {
			if req.buf == nil {
				req.raw = rawResult{chunks: env.chunks}
			}
			return nil
		}
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
	case env.eager && !req.add:
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
		// buffer (steps 6-7); an add receive adds it, an eager payload
		// straight from the wire.
		if err := r.land(req, env.hdr, payload, 0); err != nil {
			return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
		}
	}
	return nil
}

// land restores a verified payload at packed offset off of the receive's
// buffer: stored, scattered through its layout, or added into it.
func (r *Rank) land(req *Request, hdr core.Header, payload []byte, off int) error {
	if req.add {
		return r.Engine.DecompressAdd(r.Clock, hdr, payload, req.buf, off)
	}
	return r.Engine.DecompressChunk(r.Clock, hdr, payload, req.buf, req.typ, off)
}

// decodeChunk verifies one compression chunk against its own CRC and
// lands it at its packed offset of the receive's buffer.
func (r *Rank) decodeChunk(c *chunkPart, req *Request) error {
	if err := r.Engine.VerifyPayload(r.Clock, c.hdr, c.payload); err != nil {
		return err
	}
	return r.land(req, c.hdr, c.payload, c.off)
}

// fellBack reports whether a message traveled in the breaker's
// uncompressed form: its header, or any chunk of a stream, carries the
// Fallback bit.
func (env *envelope) fellBack() bool {
	for i := range env.chunks {
		if env.chunks[i].hdr.Fallback {
			return true
		}
	}
	return env.hdr.Fallback
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
	r.Engine.NoteRelay(len(payload))
	r.Clock.Advance(simtime.FromMicroseconds(0.3))
	env := &envelope{src: r.id, dst: dst, hdr: hdr, decoded: dec}
	chunkBytes := r.pipelineCut(dst, len(payload))
	if chunkBytes == 0 {
		env.payload = payload
		return r.post(env, tag, r.Clock.Now()), nil
	}
	// One checksum pass over the payload pays for stamping the
	// per-segment CRCs (the bytes are scanned once either way).
	r.Engine.ChecksumWire(r.Clock, payload)
	env.pipelined, env.relayChunks = true, true
	for off := 0; off < len(payload); off += chunkBytes {
		seg := payload[off:min(off+chunkBytes, len(payload))]
		env.addChunk(r.Clock.Now(), seg, core.Header{Compressed: hdr.Compressed}, off, core.Checksum(seg), nil)
	}
	r.Engine.NotePipeRelayChunks(len(env.chunks))
	return r.post(env, tag, r.Clock.Now()), nil
}

// rawResult is what a raw receive yields: the wire payload, its header,
// the decoded-form companion it traveled with (nil: none), and the staging
// buffer to release after decompression — or, for a compression chunk
// stream, its chunks alone, each still to be verified against its own CRC
// and decoded (their staging went back to the pool with the stream).
type rawResult struct {
	payload []byte
	hdr     core.Header
	decoded *core.Decoded
	staged  *gpusim.Buffer
	chunks  []chunkPart
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
