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

// Pipelined rendezvous (extension). MVAPICH2-GDR moves large GPU messages
// through a chunk pipeline; composing that with on-the-fly compression
// lets chunk k's network transfer overlap chunk k+1's compression kernel
// on the sender and chunk k-1's decompression on the receiver. The
// whole-message path of the paper's Figure 4 serializes
// compress -> transfer -> decompress; the pipeline's end-to-end time
// approaches max(compress, transfer, decompress) plus a fill term.
//
// Reliability is chunk-granular (DESIGN.md §12): every chunk carries its
// own control header and CRC, retries independently within its own budget
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
	// hdr is the chunk's compression header (zero for relay segments,
	// which decode against the message's own header after reassembly).
	hdr core.Header
	// ctrl is the encoded core.ChunkHeader the chunk travels with; the
	// receiver decodes and validates it before placing the chunk.
	ctrl []byte
	// crc protects the chunk's wire payload (hdr.Checksum for compressed
	// chunks, a per-segment CRC for relay segments).
	crc uint32
	// off and origBytes locate the chunk's span: in the original message
	// for compressed chunks, in the relayed wire payload for segments.
	off, origBytes int
	// compressed routes the chunk through the codec fault model and the
	// sender's circuit breaker.
	compressed bool
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

// pipelineEligible reports whether an n-byte rendezvous message to dst
// should take the chunked path, counting every bypass by reason so tuning
// can see what the pipeline skipped. Ragged tails are fine — the final
// chunk is simply short (and engine-bypassed when unaligned) — so size is
// the only data-shape gate.
func (r *Rank) pipelineEligible(dst, n int) bool {
	chunk := r.Engine.Config().PipelineChunkBytes
	if chunk <= 0 {
		return false
	}
	if n < 2*chunk {
		r.Engine.NotePipeBypass(true)
		return false
	}
	if r.pipeDegraded(dst) {
		r.Engine.NotePipeBypass(false)
		return false
	}
	return true
}

// isendPipelined starts a chunked rendezvous send of the total packed
// bytes t selects from buf (of buf itself when t is nil): the packed
// stream is cut into PipelineChunkBytes-sized spans, compressed in order
// on the caller's clock — a layout's span gathered and compressed in one
// fused pass at its packed offset — each becoming ready for transfer as
// its kernel completes. Chunk control headers describe packed offsets, so
// the receiver places each chunk without seeing the others. An open codec
// circuit breaker for dst degrades every chunk to its uncompressed form
// (Fallback set), exactly as on the whole-message path.
func (r *Rank) isendPipelined(dst, tag int, buf *gpusim.Buffer, t dtype.Type, total int, seq uint64) *Request {
	w := r.world
	chunkBytes := r.Engine.Config().PipelineChunkBytes
	link := w.fabric.LinkFor(r.Node(), w.nodeOf(dst))

	// The RTS goes out first — the receiver can match, stage, and
	// return the CTS while the sender is still compressing chunks.
	rtsArrival, rtsErr := w.controlArrival(faults.KindRTS, r.id, dst, seq,
		r.Node(), w.nodeOf(dst), r.Clock.Now())
	env := &envelope{
		src: r.id, dst: dst, tag: tag, seq: seq,
		rtsArrival:  rtsArrival,
		sendPost:    r.Clock.Now(),
		senderDone:  make(chan sendOutcome, 1),
		hdr:         core.Header{Algo: core.AlgoNone, OrigBytes: total, CompBytes: total},
		pipelined:   true,
		deliveryErr: rtsErr,
		ticket:      r.pipeTx[dst].issue(),
		done:        make(chan struct{}),
	}
	// BreakerAllow is one cheap check while the breaker is closed; open,
	// it degrades the whole chunk stream to the uncompressed wire form.
	bypassAll := r.Engine.BreakerEnabled() && !r.Engine.BreakerAllow(dst, r.Clock.Now())
	anyCompressed := false
	for off := 0; off < total; off += chunkBytes {
		n := chunkBytes
		if off+n > total {
			n = total - off
		}
		var payload []byte
		var hdr core.Header
		// A layout packs to whole words, so its chunk at an unaligned
		// offset also has an unaligned length: the size test alone agrees
		// with the engine's eligibility rule for both shapes.
		if bypassAll && r.Engine.ShouldCompressPacked(buf, n) {
			payload, hdr = r.Engine.BypassChunk(r.Clock, buf, t, off, n)
			hdr.Fallback = true
		} else {
			payload, hdr = r.Engine.CompressChunkCached(r.Clock, buf, t, off, n, link.BandwidthGBps)
		}
		if hdr.Compressed {
			anyCompressed = true
		}
		ch := core.ChunkHeader{
			Seq: seq, Index: len(env.chunks), Offset: off,
			OrigBytes: n, WireBytes: len(payload), Checksum: hdr.Checksum,
			Last: off+n == total,
		}
		env.chunks = append(env.chunks, chunkPart{
			payload: payload, hdr: hdr, ctrl: ch.EncodeChunk(), crc: hdr.Checksum,
			off: off, origBytes: n, compressed: hdr.Compressed,
			ready: r.Clock.Now(),
		})
	}
	if !bypassAll && !anyCompressed && r.Engine.BreakerEnabled() {
		// The breaker allowed the stream — possibly consuming its
		// half-open probe — but no chunk compressed, proving nothing
		// about the codec; rearm so the next send probes again.
		r.Engine.BreakerProbeAborted(dst)
	}
	r.Engine.NotePipelinedChunks(len(env.chunks))
	req := &Request{rank: r, isSend: true, env: env}
	w.ranks[dst].box.deliver(env)
	return req
}

// isendPayloadChunked is the chunked-relay send: an already-prepared wire
// payload (a forwarded compressed message) is segmented into chunks, each
// with its own CRC and control header, and moved under the same
// chunk-granular reliability as a pipelined compression send. The receiver
// reassembles the segments into the original payload before decoding it
// against the message's own header.
func (r *Rank) isendPayloadChunked(dst, tag int, payload []byte, hdr core.Header, seq uint64) (*Request, error) {
	w := r.world
	chunkBytes := r.Engine.Config().PipelineChunkBytes
	// One checksum pass over the payload pays for stamping the
	// per-segment CRCs (the bytes are scanned once either way).
	r.Engine.ChecksumWire(r.Clock, payload)
	rtsArrival, rtsErr := w.controlArrival(faults.KindRTS, r.id, dst, seq,
		r.Node(), w.nodeOf(dst), r.Clock.Now())
	env := &envelope{
		src: r.id, dst: dst, tag: tag, seq: seq,
		payload:     nil, // travels as chunks
		hdr:         hdr,
		rtsArrival:  rtsArrival,
		sendPost:    r.Clock.Now(),
		senderDone:  make(chan sendOutcome, 1),
		pipelined:   true,
		relayChunks: true,
		deliveryErr: rtsErr,
		ticket:      r.pipeTx[dst].issue(),
		done:        make(chan struct{}),
	}
	for off := 0; off < len(payload); off += chunkBytes {
		n := chunkBytes
		if off+n > len(payload) {
			n = len(payload) - off
		}
		seg := payload[off : off+n]
		ch := core.ChunkHeader{
			Seq: seq, Index: len(env.chunks), Offset: off,
			OrigBytes: n, WireBytes: n, Checksum: core.Checksum(seg),
			Relay: true, Last: off+n == len(payload),
		}
		env.chunks = append(env.chunks, chunkPart{
			payload: seg, ctrl: ch.EncodeChunk(), crc: ch.Checksum,
			off: off, origBytes: n, compressed: hdr.Compressed,
			ready: r.Clock.Now(),
		})
	}
	r.Engine.NotePipeRelayChunks(len(env.chunks))
	req := &Request{rank: r, isSend: true, env: env}
	w.ranks[dst].box.deliver(env)
	return req, nil
}

// deliverChunk simulates the bounded-retry transfer of one chunk: attempts
// may be dropped (discovered by the sender's per-chunk retransmission
// timeout) or corrupted (detected by the receiver's checksum pass and
// selectively NACKed — the NACK names exactly this (seq, chunk)); each
// retransmission backs off exponentially on the virtual clock within the
// chunk's own budget. Chunk-specific fates apply on top: a duplicated
// chunk burns the wire twice (the receiver discards the copy by identity),
// a reordered one is held back to land after its successors. It returns
// the delivered bytes, the arrival, and the retransmission count/bytes the
// chunk consumed, or a wrapped ErrDeliveryFailed at a bounded instant once
// the budget is spent.
//
//simlint:nocharge the verification pass is costed on the arrival timestamp (ThroughputTime below), not the rank clock
func (w *World) deliverChunk(src, dst int, seq uint64, chunk, srcNode, dstNode int, ready simtime.Time, payload []byte, crc uint32, compressed bool) ([]byte, simtime.Time, int, int64, error) {
	eng := w.ranks[src].Engine
	limit := w.retry.chunkLimit()
	retrans := 0
	var retransBytes int64
	dup, reorder := w.inj.ChunkFate(src, dst, seq, chunk)
	if reorder {
		ready = ready.Add(w.inj.Config().ReorderDelay)
	}
	for attempt := 0; ; attempt++ {
		if w.linkLost(srcNode, dstNode, ready) || w.inj.ShouldDropChunk(src, dst, seq, chunk, attempt) {
			if attempt >= limit {
				return nil, ready, retrans, retransBytes, fmt.Errorf("mpi: %v %d->%d seq %d chunk %d lost after %d attempts: %w",
					faults.KindChunk, src, dst, seq, chunk, attempt+1, ErrDeliveryFailed)
			}
			ready = ready.Add(w.retry.delay(attempt))
			retrans++
			retransBytes += int64(len(payload))
			continue
		}
		wire, corrupted := w.inj.CorruptChunk(payload, src, dst, seq, chunk, attempt)
		if !corrupted && compressed {
			wire, corrupted = w.inj.CorruptCodecChunk(wire, src, dst, seq, chunk, attempt, ready)
		}
		arrival := w.fabric.Transfer(srcNode, dstNode, ready, len(wire))
		if dup && attempt == 0 {
			// The fabric delivers the chunk twice: the copy occupies the
			// link after the original and the receiver drops it by
			// (seq, chunk) identity — only bandwidth is lost.
			w.fabric.Transfer(srcNode, dstNode, arrival, len(wire))
		}
		if !corrupted || core.Checksum(wire) == crc {
			// Intact — or an undetectable checksum collision, which is
			// exactly how a real CRC fails; the garbage then surfaces
			// from the decoder, never as a hang.
			if compressed {
				eng.BreakerSuccess(dst)
			}
			return wire, arrival, retrans, retransBytes, nil
		}
		// The receiver's verification pass detects the corruption and
		// sends a selective NACK for exactly this chunk; the sender
		// decodes it and retransmits after backoff while later chunks
		// keep flowing.
		verified := arrival.Add(simtime.ThroughputTime(len(wire), w.cluster.GPU.MemBWGBps*8))
		if compressed {
			eng.BreakerFailure(dst, verified)
		}
		if attempt >= limit {
			return nil, verified, retrans, retransBytes, fmt.Errorf("mpi: %v %d->%d seq %d chunk %d corrupted after %d attempts: %w",
				faults.KindChunk, src, dst, seq, chunk, attempt+1, ErrDeliveryFailed)
		}
		nk, err := core.DecodeChunkNack(core.ChunkNack{
			Seq: seq, Index: chunk, Attempt: attempt, Reason: core.NackCorrupt,
		}.EncodeNack())
		if err != nil || nk.Index != chunk || nk.Seq != seq {
			return nil, verified, retrans, retransBytes, fmt.Errorf("mpi: chunk NACK decode %d->%d seq %d chunk %d: %w",
				src, dst, seq, chunk, ErrDeliveryFailed)
		}
		nack := w.fabric.ControlMessage(dstNode, srcNode, verified)
		ready = simtime.Max(ready, nack.Add(w.retry.delay(nk.Attempt)))
		retrans++
		retransBytes += int64(len(payload))
	}
}

// completePipelinedMatch routes the chunk-timeline resolution through the
// sender's per-destination pipeLane so concurrent matches toward the same
// peer reserve fabric bandwidth in sender program order; closing env.done
// publishes the filled envelope to the receiver's Wait.
func completePipelinedMatch(p *recvPost, env *envelope) {
	lane := &p.rank.world.ranks[env.src].pipeTx[env.dst]
	lane.retire(env.ticket, func() {
		runPipelinedMatch(p, env)
		close(env.done)
	})
}

// runPipelinedMatch resolves the chunk transfer timeline at match time
// (the pipelined analogue of completeMatch): stage the credit window's
// worth of receive buffers, send the CTS, then move each chunk under the
// credit window and its own retry budget. A chunk out of budget fails the
// message at a bounded instant — max(arrivals so far, the failing chunk's
// give-up instant) — and both endpoints observe the wrapped
// ErrDeliveryFailed from Wait; chunks already delivered are never re-sent.
func runPipelinedMatch(p *recvPost, env *envelope) {
	r := p.rank
	w := r.world
	match := simtime.Max(p.postTime, env.rtsArrival)
	if env.deliveryErr != nil {
		env.matchTime = match
		env.dataArrival = match
		env.senderDone <- sendOutcome{t: match, err: env.deliveryErr}
		return
	}
	// The credit window W: at most W chunks in flight, each holding one
	// of the receiver's staging slots; a chunk's transfer may not start
	// until the chunk W places earlier has drained its slot and the
	// credit has traveled back. PipelineCredits is clamped to the staging
	// pool size, so pool capacity is the window — exhaustion becomes
	// backpressure (a credit stall) instead of a mode switch. Negative
	// disables gating.
	credits := r.Engine.Config().PipelineCredits
	gating := credits >= 0
	window := credits
	if !gating || window > len(env.chunks) {
		window = len(env.chunks)
	}
	if window < 1 {
		window = 1
	}
	stageClk := simtime.NewClock(match)
	if env.relayChunks {
		// Relay segments reassemble into one wire payload; the staging
		// buffer covers it whole, as on the non-chunked relay path.
		env.staged = r.Engine.StageRecv(stageClk, env.hdr)
	} else {
		biggest, anyCompressed := 0, false
		for i := range env.chunks {
			if n := len(env.chunks[i].payload); n > biggest {
				biggest = n
			}
			if env.chunks[i].compressed {
				anyCompressed = true
			}
		}
		if anyCompressed {
			slots := window
			if slots > len(env.chunks) {
				slots = len(env.chunks)
			}
			for j := 0; j < slots; j++ {
				env.stagedChunks = append(env.stagedChunks, r.Engine.StageRecv(stageClk, core.Header{
					Algo: core.AlgoMPC, Compressed: true,
					OrigBytes: biggest, CompBytes: biggest,
				}))
			}
		}
	}
	env.matchTime = stageClk.Now()
	// The chunk staging slots live exactly as long as the stream: the
	// credit return already models each slot drained one memory pass
	// after its chunk arrives, so the slots go back to the pool when the
	// stream resolves — here, on the lane, which keeps the receiver
	// pool's hit/miss sequence in ticket order instead of racing against
	// the receiver's Wait. (env.staged, the relay reassembly buffer, is
	// different: the receiver may forward out of it, so it lives until
	// the receive — or the relay hop — lets it go.)
	releaseSlots := func(at simtime.Time) {
		relClk := simtime.NewClock(at)
		for _, b := range env.stagedChunks {
			r.Engine.ReleaseRecv(relClk, b)
		}
		env.stagedChunks = nil
	}
	srcNode := w.nodeOf(env.src)
	dstNode := w.nodeOf(r.id)
	cts, err := w.controlArrival(faults.KindCTS, env.src, r.id, env.seq, dstNode, srcNode, env.matchTime)
	if err != nil {
		env.deliveryErr = err
		env.dataArrival = cts
		releaseSlots(cts)
		env.senderDone <- sendOutcome{t: cts, err: err}
		return
	}
	eng := w.ranks[env.src].Engine
	memBW := w.cluster.GPU.MemBWGBps
	last := simtime.Time(0)
	track := fmt.Sprintf("net %d->%d", env.src, r.id)
	// returns[k] is when the k-th started chunk's credit is back at the
	// sender: the chunk arrived, the receiver drained its staging slot
	// (one memory pass), and the credit update crossed the wire.
	returns := make([]simtime.Time, 0, len(env.chunks))
	totRetrans, stalls, shrinks := 0, 0, 0
	var totBytes int64
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
		wire, arrival, retrans, rbytes, err := w.deliverChunk(env.src, r.id, env.seq, i,
			srcNode, dstNode, ready, c.payload, c.crc, c.compressed)
		totRetrans += retrans
		totBytes += rbytes
		if err != nil {
			// This chunk is out of budget: the stream stops here, at a
			// bounded instant, with delivered chunks never re-sent.
			eng.NotePipeTransfer(totRetrans, totBytes, stalls, shrinks)
			env.deliveryErr = err
			env.dataArrival = simtime.Max(last, arrival)
			releaseSlots(env.dataArrival)
			env.senderDone <- sendOutcome{t: env.dataArrival, err: err, retransmits: totRetrans}
			return
		}
		c.payload = wire
		c.arrival = arrival
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
		drained := arrival.Add(simtime.ThroughputTime(len(wire), memBW))
		returns = append(returns, w.fabric.ControlMessage(dstNode, srcNode, drained))
		w.tracer.Add(track, fmt.Sprintf("chunk %d", i), ready, c.arrival)
		if c.arrival > last {
			last = c.arrival
		}
	}
	eng.NotePipeTransfer(totRetrans, totBytes, stalls, shrinks)
	env.dataArrival = last
	releaseSlots(last)
	env.senderDone <- sendOutcome{t: last, retransmits: totRetrans}
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

// releasePipelineStaging returns every staging buffer the pipelined match
// acquired.
func (r *Rank) releasePipelineStaging(env *envelope) {
	for _, b := range env.stagedChunks {
		r.Engine.ReleaseRecv(r.Clock, b)
	}
	env.stagedChunks = nil
	r.Engine.ReleaseRecv(r.Clock, env.staged)
}

// waitRecvPipelined consumes the chunk stream: chunks are verified and
// decompressed into their slices of the user buffer in arrival order —
// out-of-order completions reassemble deterministically by the (arrival,
// index) sort — overlapping with the transfers of later chunks.
func (r *Rank) waitRecvPipelined(req *Request, env *envelope) error {
	// The match completion may still be parked on the sender's pipeLane;
	// the close publishes the filled timeline (happens-before the reads
	// below).
	<-env.done
	if env.relayChunks {
		return r.waitRecvRelayChunked(req, env)
	}
	total := 0
	for i := range env.chunks {
		total += env.chunks[i].origBytes
	}
	if total > r.recvCapacity(req) {
		return fmt.Errorf("mpi: pipelined message of %d bytes truncated into %d-byte buffer", total, r.recvCapacity(req))
	}
	r.Clock.AdvanceTo(env.matchTime)
	if env.deliveryErr != nil {
		r.Clock.AdvanceTo(env.dataArrival)
		r.releasePipelineStaging(env)
		return env.deliveryErr
	}
	sawFallback := false
	for _, i := range chunkOrder(env.chunks) {
		c := &env.chunks[i]
		r.Clock.AdvanceTo(c.arrival)
		ch, err := core.DecodeChunkHeader(c.ctrl)
		if err != nil {
			r.releasePipelineStaging(env)
			return fmt.Errorf("mpi: pipelined chunk %d: %w", i, err)
		}
		if ch.Relay || ch.Index != i || ch.Offset != c.off || ch.OrigBytes != c.origBytes || ch.WireBytes != len(c.payload) {
			r.releasePipelineStaging(env)
			return fmt.Errorf("mpi: pipelined chunk %d: control header mismatch", i)
		}
		if c.hdr.Fallback {
			sawFallback = true
		}
		// Verify, then decode, chunk by chunk, each at its packed offset.
		if err := r.Engine.VerifyPayload(r.Clock, c.hdr, c.payload); err != nil {
			r.releasePipelineStaging(env)
			return fmt.Errorf("mpi: pipelined chunk %d: %w", i, err)
		}
		if err := r.Engine.DecompressChunk(r.Clock, c.hdr, c.payload, req.buf, req.typ, ch.Offset); err != nil {
			r.releasePipelineStaging(env)
			return fmt.Errorf("mpi: pipelined chunk %d: %w", i, err)
		}
	}
	if sawFallback {
		r.Engine.NoteFallbackRecv()
	}
	r.releasePipelineStaging(env)
	return nil
}

// reassembleRelay walks the relay segments in completion order, validating
// each control header and placing each verified-length segment at its wire
// offset; the caller then verifies the reassembled payload end-to-end
// against the message header's checksum.
func (r *Rank) reassembleRelay(env *envelope) ([]byte, error) {
	buf := make([]byte, env.hdr.CompBytes)
	for _, i := range chunkOrder(env.chunks) {
		c := &env.chunks[i]
		r.Clock.AdvanceTo(c.arrival)
		ch, err := core.DecodeChunkHeader(c.ctrl)
		if err != nil {
			return nil, fmt.Errorf("mpi: relay chunk %d: %w", i, err)
		}
		if !ch.Relay || ch.Index != i || ch.Offset != c.off || ch.WireBytes != len(c.payload) || ch.Offset+ch.WireBytes > len(buf) {
			return nil, fmt.Errorf("mpi: relay chunk %d: control header mismatch", i)
		}
		copy(buf[ch.Offset:], c.payload)
	}
	return buf, nil
}

// waitRecvRelayChunked completes an ordinary receive whose payload arrived
// as relay segments: reassemble, verify end-to-end, decode whole.
func (r *Rank) waitRecvRelayChunked(req *Request, env *envelope) error {
	r.Clock.AdvanceTo(env.matchTime)
	if env.deliveryErr != nil {
		r.Clock.AdvanceTo(env.dataArrival)
		r.releasePipelineStaging(env)
		return env.deliveryErr
	}
	if env.hdr.OrigBytes > r.recvCapacity(req) {
		r.releasePipelineStaging(env)
		return fmt.Errorf("mpi: message of %d bytes truncated into %d-byte buffer", env.hdr.OrigBytes, r.recvCapacity(req))
	}
	payload, err := r.reassembleRelay(env)
	if err != nil {
		r.releasePipelineStaging(env)
		return err
	}
	if env.hdr.Fallback {
		r.Engine.NoteFallbackRecv()
	}
	if env.staged != nil {
		copy(env.staged.Data, payload)
	}
	if err := r.Engine.VerifyPayload(r.Clock, env.hdr, payload); err != nil {
		r.releasePipelineStaging(env)
		return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
	}
	if err := r.Engine.DecompressChunk(r.Clock, env.hdr, payload, req.buf, req.typ, 0); err != nil {
		r.releasePipelineStaging(env)
		return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
	}
	r.releasePipelineStaging(env)
	return nil
}

// waitRecvRawChunked completes a raw (relay) receive whose payload arrived
// as chunk segments: the reassembled, verified payload is captured for
// forwarding without decompression.
func (r *Rank) waitRecvRawChunked(req *Request, env *envelope) error {
	<-env.done
	r.Clock.AdvanceTo(env.matchTime)
	if env.deliveryErr != nil {
		r.Clock.AdvanceTo(env.dataArrival)
		r.releasePipelineStaging(env)
		return env.deliveryErr
	}
	payload, err := r.reassembleRelay(env)
	if err != nil {
		r.releasePipelineStaging(env)
		return err
	}
	if env.hdr.Fallback {
		r.Engine.NoteFallbackRecv()
	}
	if env.staged != nil {
		copy(env.staged.Data, payload)
	}
	// Verify before the payload is relayed onward: a relay chain then
	// detects corruption at the hop where it happened.
	if err := r.Engine.VerifyPayload(r.Clock, env.hdr, payload); err != nil {
		r.releasePipelineStaging(env)
		return fmt.Errorf("mpi: message from rank %d: %w", env.src, err)
	}
	req.raw = rawResult{payload: payload, hdr: env.hdr, staged: env.staged}
	r.noteRawStaged(env.staged)
	return nil
}
