package mpi

import (
	"fmt"
	"sort"
	"sync"

	"mpicomp/internal/core"
	"mpicomp/internal/dtype"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// The wire under every tier: what happens to a message between the
// mailbox match and the receiver's Wait. One bounded-retry loop (transmit)
// carries every packet and payload — RTS, CTS, eager message, whole
// rendezvous payload, chunk — and one match completion (runMatch) resolves
// a rendezvous-class message's timeline, whole or chunked.
//
// The chunked tier is the pipelined rendezvous (extension). MVAPICH2-GDR
// moves large GPU messages through a chunk pipeline; composing that with
// on-the-fly compression lets chunk k's network transfer overlap chunk
// k+1's compression kernel on the sender and chunk k-1's decompression on
// the receiver. The whole-message path of the paper's Figure 4 serializes
// compress -> transfer -> decompress; the pipeline's end-to-end time
// approaches max(compress, transfer, decompress) plus a fill term.
//
// Reliability is chunk-granular (DESIGN.md §12): every chunk carries its
// own CRC, retries independently within its own budget
// (a corrupted chunk is selectively NACKed; delivered chunks never cross
// the wire again), and the receiver reassembles completions in arrival
// order. A credit window sized by the receiver's staging pool bounds the
// chunks in flight — pool pressure becomes backpressure, not a mode
// switch — and a three-step degrade ladder (selective retransmit, window
// shrink, per-peer fallback to the blocking whole-message path) keeps a
// lossy pair live. Relayed collective payloads ride the same path as
// chunked wire segments.

// chunkPart is one pipeline stage's payload.
type chunkPart struct {
	payload []byte
	// hdr is the chunk's compression header (a relay segment decodes
	// against the message's own header after reassembly; only Compressed
	// is set on its).
	hdr core.Header
	// crc protects the chunk's wire payload (hdr.Checksum for compressed
	// chunks, a per-segment CRC for relay segments).
	crc uint32
	// off locates the chunk's span: in the original message for
	// compressed chunks, in the relayed wire payload for segments.
	off int
	// compressed routes the chunk through the codec fault model and the
	// sender's circuit breaker; fb rebuilds a compressed chunk's
	// uncompressed form for the mid-retry fallback swap.
	compressed bool
	fb         wireFallback
	// ready is when the sender finished preparing this chunk.
	ready simtime.Time
	// arrival is when the chunk's last byte reaches the receiver
	// (filled at match time).
	arrival simtime.Time
}

// Degrade ladder step 3 tuning: a pipelined send needing at least
// pipeLossyRetrans chunk retransmissions (or failing outright) counts as a
// lossy stream; pipeDegradeStreak consecutive lossy streams demote the
// peer to the blocking whole-message path for pipeDegradeCooldown of
// virtual time.
const (
	pipeLossyRetrans    = 3
	pipeDegradeStreak   = 2
	pipeDegradeCooldown = 5 * simtime.Millisecond
)

// pipeShrinkThreshold is the cumulative retransmission count within one
// message at which the credit window first halves (degrade ladder step 2);
// each subsequent halving needs double the count.
const pipeShrinkThreshold = 2

// pipePeer is a rank's chunk-stream health record toward one peer. It is
// touched only from the owning rank's goroutine (program order), so the
// ladder's decisions are deterministic.
type pipePeer struct {
	lossyStreak   int
	degradedUntil simtime.Time
}

// pipeLane serializes pipelined match completions toward one destination
// in the sender's program order. A match completes in whichever goroutine
// reaches it first — the sender's at deliver (receive already posted) or
// the receiver's at post (envelope was queued unexpected) — so with
// several sends to the same peer in flight, two chunk timelines would
// otherwise interleave their calendar reservations in host-scheduling
// order and the fabric's gap-backfill placement would vary run to run.
// Tickets are issued at isend (program order); completions retire as
// deferred closures in ticket order, so the shared per-node calendars see
// one deterministic reservation sequence per pair. retire never blocks: a
// completion arriving early parks its closure, and whichever goroutine
// fills the gap drains the backlog — no waiting, so no new deadlock
// surface.
//
// Consequence: a receiver must not Wait on a later pipelined message from
// a sender before posting the receive for an earlier one. Posting all
// receives first and then waiting in any order is fine — completions run
// at match time, not at Wait — and every collective and benchmark here
// already follows that non-overtaking discipline.
type pipeLane struct {
	mu      sync.Mutex
	issued  uint64
	next    uint64
	pending map[uint64]func()
}

// issue hands out the next ticket; called only from the owning rank's
// goroutine, so tickets follow its program order.
func (l *pipeLane) issue() uint64 {
	l.mu.Lock()
	t := l.issued
	l.issued++
	l.mu.Unlock()
	return t
}

// retire parks fn under its ticket, then runs every contiguous parked
// completion from the lane's head in ticket order, all under the lane
// lock.
func (l *pipeLane) retire(ticket uint64, fn func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending == nil {
		l.pending = make(map[uint64]func())
	}
	l.pending[ticket] = fn
	for {
		f, ok := l.pending[l.next]
		if !ok {
			return
		}
		delete(l.pending, l.next)
		l.next++
		f()
	}
}

// pipeDegraded reports whether dst is currently demoted to the blocking
// whole-message path (degrade ladder step 3).
func (r *Rank) pipeDegraded(dst int) bool {
	return r.Clock.Now() < r.pipe[dst].degradedUntil
}

// notePipeOutcome feeds one completed pipelined send into the degrade
// ladder: consecutive lossy chunk streams demote the peer for a cooldown.
// Called from Wait, in the sender's program order.
func (r *Rank) notePipeOutcome(dst, retransmits int, failed bool) {
	p := &r.pipe[dst]
	if !failed && retransmits < pipeLossyRetrans {
		p.lossyStreak = 0
		return
	}
	p.lossyStreak++
	if p.lossyStreak >= pipeDegradeStreak {
		p.degradedUntil = r.Clock.Now().Add(pipeDegradeCooldown)
		p.lossyStreak = 0
		r.Engine.NotePipeDegrade()
	}
}

// pipelineCut returns the chunk size a PipelineChunkBytes above zero cuts
// an n-byte rendezvous send to dst into, 0 for a whole message, counting
// every bypass by reason so tuning can see what the pipeline skipped.
// Ragged tails are fine — the final chunk is simply short (and
// engine-bypassed when unaligned) — so size is the only data-shape gate.
func (r *Rank) pipelineCut(dst, n int) int {
	chunk := r.Engine.Config().PipelineChunkBytes
	switch {
	case chunk <= 0:
		return 0
	case n < 2*chunk:
		r.Engine.NotePipeBypass(true)
		return 0
	case r.pipeDegraded(dst):
		r.Engine.NotePipeBypass(false)
		return 0
	}
	return chunk
}

// sendShape returns the form of an n-byte rendezvous send to dst of the
// words t selects from buf: the chunk size it is cut into (0: whole), and
// raw when it travels uncompressed. At a PipelineChunkBytes of zero the
// engine's model picks it on this rank's share of the link
// (core.Engine.SendForm), and only a user send (Send, Isend, Sendrecv and
// their typed forms) to a peer that is not degraded may be cut.
func (r *Rank) sendShape(dst int, buf *gpusim.Buffer, t dtype.Type, n int, user bool) (chunk int, raw bool) {
	if r.Engine.Config().PipelineChunkBytes != 0 {
		return r.pipelineCut(dst, n), false
	}
	if user && r.pipeDegraded(dst) {
		r.Engine.NotePipeBypass(false)
		user = false
	}
	k, _ := r.Engine.SendForm(r.Clock, buf, t, n, r.shareGBps(r.Node(), r.world.nodeOf(dst)), user)
	if k < 2 {
		return 0, k == 0
	}
	return core.ChunkBytes(n, k), false
}

// compressChunks builds a pipelined send's chunk list: the packed stream
// of the total bytes t selects from buf (of buf itself when t is nil) is
// cut into chunkBytes-sized spans, compressed in order on the caller's
// clock — a layout's span gathered and compressed in one fused pass at its
// packed offset — each becoming ready for transfer as its kernel
// completes. Each chunk records its packed offset, so the receiver places
// it without seeing the others. The stream is one message to the codec
// circuit breaker, exactly as on the whole-message path.
func (r *Rank) compressChunks(env *envelope, buf *gpusim.Buffer, t dtype.Type, total, chunkBytes int) {
	f := sendForm{r: r, dst: env.dst, buf: buf, t: t}
	for off := 0; off < total; off += chunkBytes {
		payload, hdr, fb := f.part(off, min(chunkBytes, total-off))
		env.addChunk(r.Clock.Now(), payload, hdr, off, hdr.Checksum, fb)
	}
	f.done()
	r.Engine.NotePipelinedChunks(len(env.chunks))
}

// addChunk appends one chunk: its payload and header, the offset of its
// span, the CRC the retry loop checks it against and its fallback rebuild.
func (env *envelope) addChunk(ready simtime.Time, payload []byte, hdr core.Header, off int, crc uint32, fb wireFallback) {
	env.chunks = append(env.chunks, chunkPart{
		payload: payload, hdr: hdr, crc: crc, off: off, compressed: hdr.Compressed, ready: ready, fb: fb,
	})
}

// linkLost asks the fault injector whether the inter-node link refuses an
// attempt at instant `ready` (counting the refusal). A refused attempt is exactly a wire drop: the sender
// discovers it by timeout and retries after backoff, so the exponential
// schedule rides out a deterministic outage or flap window instead of
// deadlocking on it. Gated so fault-free worlds never make the call.
func (w *World) linkLost(fromNode, toNode int, ready simtime.Time) bool {
	return w.linkFaults && w.inj.LinkLost(fromNode, toNode, ready)
}

// wireEvent is one packet or payload crossing the fabric under the fault
// model. (kind, src, dst, seq, chunk) is the identity the injector hashes —
// src/dst are the *message's* sender and receiver rank whichever way the
// packet travels, chunk is faults.NoChunk for a whole message — from/to are
// the nodes in travel direction, and limit is the retransmission budget
// (retry.limit() per whole-message stage, retry.chunkLimit() per chunk).
// fb is set on a compressed payload's data stage: a whole message's or a
// chunk's. token marks a barrier token: an eager payload under the fault
// model that crosses the fabric as a control packet.
type wireEvent struct {
	kind     faults.Kind
	src, dst int
	seq      uint64
	chunk    int
	from, to int
	limit    int
	fb       wireFallback
	token    bool
}

// messageEvent is a whole-message event traveling sender to receiver under
// the per-stage budget; the CTS turns it around, a chunk stream refines it.
func (w *World) messageEvent(kind faults.Kind, src, dst int, seq uint64) wireEvent {
	return wireEvent{
		kind: kind, src: src, dst: dst, seq: seq, chunk: faults.NoChunk,
		from: w.nodeOf(src), to: w.nodeOf(dst), limit: w.retry.limit(),
	}
}

func (ev wireEvent) String() string {
	if ev.chunk == faults.NoChunk {
		return fmt.Sprintf("%v %d->%d seq %d", ev.kind, ev.src, ev.dst, ev.seq)
	}
	return fmt.Sprintf("%v %d->%d seq %d chunk %d", ev.kind, ev.src, ev.dst, ev.seq, ev.chunk)
}

// wireResult is what transmit delivers: the bytes that arrived, the header
// to decode them with (swapped when the breaker degraded the message
// mid-retry), the arrival of the final attempt — the give-up instant on
// failure — and the retransmissions the event consumed.
type wireResult struct {
	wire            []byte
	hdr             core.Header
	arrival         simtime.Time
	retransmits     int
	retransmitBytes int64
}

// transmit is the transport's one bounded-retry loop (DESIGN.md §7): an
// attempt may be dropped (discovered by the sender's retransmission
// timeout) or, for a payload, corrupted (detected by the receiver's
// checksum pass against hdr.Checksum and NACKed); each retransmission backs
// off exponentially on the virtual clock, and a spent budget returns a
// wrapped ErrDeliveryFailed at a bounded instant. With no injector this is
// exactly one ControlMessage (RTS, CTS, a barrier token) or one fabric
// Transfer. A barrier token reserves no adapter calendar: Alltoallv books
// its transfers at their ready instants, earlier than the barriers that
// order them, and a token's reservation would race them in host order.
//
// What differs by tier is data, not code. Only compressed payloads see
// codec-stage corruption (a flaky compression engine cannot corrupt bytes
// it never processes, which is why breaker fallback works) and drive the
// sender's per-peer breaker; once it has tripped (open or probing, even
// past its cooldown), a payload carrying fb — a whole message or a chunk —
// switches to its uncompressed form for the remaining attempts, so even
// the message whose failures tripped the breaker completes within budget.
// Only chunks draw duplicate and reorder fates — a duplicate burns the wire
// twice and the receiver drops the copy by (seq, chunk) identity, a
// reordered chunk is held back to land after its successors — and their
// NACK names exactly this (seq, chunk) while later chunks keep flowing.
//
//simlint:nocharge the verification pass is costed on the arrival timestamp (ThroughputTime below), not the rank clock
func (w *World) transmit(ev wireEvent, ready simtime.Time, payload []byte, hdr core.Header) (wireResult, error) {
	brk := w.ranks[ev.src].brk
	out := wireResult{hdr: hdr}
	dup, reorder := w.inj.ChunkFate(ev.src, ev.dst, ev.seq, ev.chunk)
	if reorder {
		ready = ready.Add(faults.ReorderDelay)
	}
	for attempt := 0; ; attempt++ {
		if w.linkLost(ev.from, ev.to, ready) || w.inj.ShouldDrop(ev.kind, ev.src, ev.dst, ev.seq, ev.chunk, attempt) {
			if attempt >= ev.limit {
				out.arrival = ready
				return out, fmt.Errorf("mpi: %v lost after %d attempts: %w", ev, attempt+1, ErrDeliveryFailed)
			}
			ready = ready.Add(w.retry.delay(attempt))
			out.retransmits++
			out.retransmitBytes += int64(len(payload))
			continue
		}
		if ev.kind == faults.KindRTS || ev.kind == faults.KindCTS {
			out.arrival = w.fabric.ControlMessage(ev.from, ev.to, ready)
			return out, nil
		}
		wire, corrupted := w.inj.Corrupt(payload, ev.src, ev.dst, ev.seq, ev.chunk, attempt)
		if !corrupted && out.hdr.Compressed {
			wire, corrupted = w.inj.CorruptCodec(wire, ev.src, ev.dst, ev.seq, ev.chunk, attempt, ready)
		}
		var arrival simtime.Time
		if ev.token {
			arrival = w.fabric.ControlMessage(ev.from, ev.to, ready)
		} else {
			arrival = w.fabric.Transfer(ev.from, ev.to, ready, len(wire))
		}
		if dup && attempt == 0 {
			w.fabric.Transfer(ev.from, ev.to, arrival, len(wire))
		}
		if !corrupted || core.Checksum(wire) == out.hdr.Checksum {
			// Intact — or an undetectable checksum collision, which is
			// exactly how a real CRC fails; the garbage then surfaces (or
			// not) from the decoder, never as a hang.
			if out.hdr.Compressed {
				brk.RecordSuccess(ev.dst)
			}
			out.wire, out.arrival = wire, arrival
			return out, nil
		}
		verified := arrival.Add(simtime.ThroughputTime(len(wire), w.cluster.GPU.MemBWGBps*8))
		if out.hdr.Compressed {
			brk.RecordFailure(ev.dst, verified)
		}
		if attempt >= ev.limit {
			out.arrival = verified
			return out, fmt.Errorf("mpi: %v corrupted after %d attempts: %w", ev, attempt+1, ErrDeliveryFailed)
		}
		nack := w.fabric.ControlMessage(ev.to, ev.from, verified)
		ready = simtime.Max(ready, nack.Add(w.retry.delay(attempt)))
		out.retransmits++
		out.retransmitBytes += int64(len(payload))
		if ev.fb != nil && out.hdr.Compressed && brk.Tripped(ev.dst) {
			var cost simtime.Duration
			payload, out.hdr, cost = ev.fb(ready)
			ready = ready.Add(cost)
			ev.fb = nil
		}
	}
}

// completeMatch performs the rendezvous protocol's receiver-side steps
// (Figure 4, steps 4-5) in whichever goroutine completed the match. Eager
// envelopes need no work. A chunk stream's completion retires through the
// sender's per-destination pipeLane, so concurrent matches toward the same
// peer reserve fabric bandwidth in sender program order; closing env.done
// publishes the filled envelope to the receiver's Wait.
func completeMatch(p *recvPost, env *envelope) {
	switch {
	case env.eager:
	case env.pipelined:
		lane := &p.rank.world.ranks[env.src].pipeTx[env.dst]
		lane.retire(env.ticket, func() {
			runMatch(p, env)
			close(env.done)
		})
	default:
		runMatch(p, env)
	}
}

// runMatch resolves a rendezvous-class message's timeline at match time:
// record the match, stage the receive side (the temporary device buffer
// for a whole payload, the credit window's worth of slots for a chunk
// stream), send the CTS, and move the payload — one delivery for a whole
// message, the credit-windowed chunk loop for a stream. Whatever happens,
// the one epilogue stamps the envelope and publishes the sender's outcome,
// so neither side ever depends on the other reaching Wait. A stage out of
// budget fails the message at a bounded instant and both endpoints observe
// the wrapped ErrDeliveryFailed.
func runMatch(p *recvPost, env *envelope) {
	r := p.rank
	w := r.world
	finish := func(t simtime.Time, err error, retransmits int) {
		if err != nil {
			env.deliveryErr = err
		}
		if env.fellBack() {
			w.ranks[env.src].brk.RecordFallback()
		}
		env.dataArrival = t
		// Chunk staging slots live exactly as long as the stream: the credit
		// return already models each slot drained one memory pass after its
		// chunk arrives, so they go back to the pool here, on the lane — the
		// receiver pool's hit/miss sequence follows ticket order instead of
		// racing the receiver's Wait. (env.staged, a whole payload's buffer
		// or a relay stream's reassembly buffer, stays: the receiver decodes
		// or forwards out of it.)
		if len(env.stagedChunks) > 0 {
			relClk := simtime.NewClock(t)
			for _, b := range env.stagedChunks {
				r.Engine.ReleaseRecv(relClk, b)
			}
			env.stagedChunks = nil
		}
		env.senderDone <- sendOutcome{t: t, err: err, retransmits: retransmits}
	}
	// The receive proceeds once both the RTS has arrived and the receive
	// is posted (asynchronous progress-thread semantics).
	match := simtime.Max(p.postTime, env.rtsArrival)
	if env.deliveryErr != nil {
		// The RTS never made it; rtsArrival is the sender's give-up
		// instant and both sides observe the failure from there.
		env.matchTime = match
		finish(match, env.deliveryErr, 0)
		return
	}
	// Stage the receive side before clearing the sender to send.
	stageClk := simtime.NewClock(match)
	r.stageRecv(stageClk, env)
	env.matchTime = stageClk.Now()
	ev := w.messageEvent(faults.KindCTS, env.src, r.id, env.seq)
	ev.from, ev.to = ev.to, ev.from // the CTS travels receiver to sender
	cts, err := w.transmit(ev, env.matchTime, nil, core.Header{})
	if err != nil {
		finish(cts.arrival, err, 0)
		return
	}
	ev.from, ev.to = ev.to, ev.from
	if env.pipelined {
		ev.kind, ev.limit = faults.KindChunk, w.retry.chunkLimit()
		last, retransmits, err := w.moveChunks(ev, env, cts.arrival)
		finish(last, err, retransmits)
		return
	}
	// The RDMA transfer is posted by the sender's HCA when the CTS
	// arrives; the sender's CPU is not involved.
	ev.kind, ev.fb = faults.KindData, env.fb
	ready := simtime.Max(env.sendPost, cts.arrival)
	out, err := w.transmit(ev, ready, env.payload, env.hdr)
	env.hdr = out.hdr // swapped when the breaker tripped mid-retry
	if err == nil {
		env.payload = out.wire
		w.tracer.Add(fmt.Sprintf("net %d->%d", env.src, r.id), "transfer", ready, out.arrival)
	}
	finish(out.arrival, err, 0)
}

// creditWindow is the credit window W of an n-chunk stream into this rank:
// at most W chunks in flight, each holding one of the receiver's staging
// slots. PipelineCredits is clamped to the staging pool size, so pool
// capacity is the window — exhaustion becomes backpressure (a credit
// stall) instead of a mode switch. Negative disables gating.
func (r *Rank) creditWindow(n int) (window int, gating bool) {
	window = r.Engine.Config().PipelineCredits
	gating = window >= 0
	if !gating || window > n {
		window = n
	}
	if window < 1 {
		window = 1
	}
	return window, gating
}

// stageRecv stages the receive side of a matched rendezvous-class message
// on clk: one buffer for a whole wire payload — relay segments reassemble
// into it, as on the non-chunked relay path — or the credit window's worth
// of slots for a stream of compressed chunks.
func (r *Rank) stageRecv(clk *simtime.Clock, env *envelope) {
	if !env.pipelined || env.relayChunks {
		env.staged = r.Engine.StageRecv(clk, env.hdr)
		return
	}
	biggest, anyCompressed := 0, false
	for i := range env.chunks {
		if n := len(env.chunks[i].payload); n > biggest {
			biggest = n
		}
		anyCompressed = anyCompressed || env.chunks[i].compressed
	}
	if !anyCompressed {
		return
	}
	slots, _ := r.creditWindow(len(env.chunks))
	for j := 0; j < slots; j++ {
		env.stagedChunks = append(env.stagedChunks, r.Engine.StageRecv(clk, core.Header{
			Algo: core.AlgoMPC, Compressed: true,
			OrigBytes: biggest, CompBytes: biggest,
		}))
	}
}

// moveChunks moves a matched stream's chunks once the CTS is back: each
// under the credit window and its own retry budget (ev carries the
// stream's identity and the per-chunk limit). A chunk's transfer may not
// start until the chunk W places earlier has drained its slot and the
// credit has traveled back. A chunk out of budget stops the stream at a
// bounded instant — max(arrivals so far, the failing chunk's give-up
// instant) — with delivered chunks never re-sent. It returns the stream's
// last arrival and the retransmissions it consumed.
func (w *World) moveChunks(ev wireEvent, env *envelope, cts simtime.Time) (simtime.Time, int, error) {
	window, gating := w.ranks[ev.dst].creditWindow(len(env.chunks))
	memBW := w.cluster.GPU.MemBWGBps
	last := simtime.Time(0)
	track := fmt.Sprintf("net %d->%d", ev.src, ev.dst)
	// returns[k] is when the k-th started chunk's credit is back at the
	// sender: the chunk arrived, the receiver drained its staging slot
	// (one memory pass), and the credit update crossed the wire.
	returns := make([]simtime.Time, 0, len(env.chunks))
	totRetrans, stalls, shrinks := 0, 0, 0
	var totBytes int64
	var err error
	nextShrink := pipeShrinkThreshold
	for i := range env.chunks {
		c := &env.chunks[i]
		ready := simtime.Max(c.ready, cts)
		if gating && len(returns) >= window {
			if gate := returns[len(returns)-window]; gate > ready {
				// A stall is only real when the credit holds the chunk past
				// the instant the link itself frees up (the previous chunk's
				// arrival); until then the transfers serialize on bandwidth
				// and the gate is invisible.
				if gate > last {
					stalls++
				}
				ready = gate
			}
		}
		ev.chunk, ev.fb = i, c.fb
		out, cerr := w.transmit(ev, ready, c.payload, core.Header{Compressed: c.compressed, Checksum: c.crc})
		totRetrans += out.retransmits
		totBytes += out.retransmitBytes
		if out.hdr.Fallback {
			// The breaker tripped while the chunk retried: it traveled
			// on in its uncompressed form.
			c.hdr, c.crc, c.compressed = out.hdr, out.hdr.Checksum, false
		}
		if cerr != nil {
			last, err = simtime.Max(last, out.arrival), cerr
			break
		}
		c.payload = out.wire
		c.arrival = out.arrival
		// Degrade ladder step 2: repeated loss within the message shrinks
		// the window, trading overlap for fewer bytes exposed to the
		// lossy wire; each further shrink needs double the evidence.
		for totRetrans >= nextShrink {
			nextShrink *= 2
			if gating && window > 1 {
				window /= 2
				shrinks++
			}
		}
		drained := c.arrival.Add(simtime.ThroughputTime(len(c.payload), memBW))
		returns = append(returns, w.fabric.ControlMessage(ev.to, ev.from, drained))
		w.tracer.Add(track, fmt.Sprintf("chunk %d", i), ready, c.arrival)
		if c.arrival > last {
			last = c.arrival
		}
	}
	w.ranks[ev.src].Engine.NotePipeTransfer(totRetrans, totBytes, stalls, shrinks)
	return last, totRetrans, err
}

// chunkOrder returns the chunk indexes sorted by (arrival, index) — the
// deterministic completion order the receiver drains the stream in.
// Retransmissions and reorder fates make arrivals non-monotonic in index;
// the index tie-break keeps equal-instant arrivals in a fixed order.
func chunkOrder(chunks []chunkPart) []int {
	order := make([]int, len(chunks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := &chunks[order[a]], &chunks[order[b]]
		if ca.arrival != cb.arrival {
			return ca.arrival < cb.arrival
		}
		return order[a] < order[b]
	})
	return order
}
