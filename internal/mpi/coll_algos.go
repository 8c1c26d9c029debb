package mpi

// The allreduce algorithm suite beyond the ring: recursive doubling
// (latency-optimal — ceil(log2 P) rounds of full-vector exchanges) and
// Rabenseifner's algorithm (reduce-scatter by recursive halving followed
// by an allgather by recursive doubling — the ring's 2n(P-1)/P bytes at
// ring latency replaced by the same bytes in 2·log2 P rounds). Both
// reuse the ring fast path's building blocks: the ragged ringBlocks
// partition, chunked pipelining (ringChunkSpans / ringReduceStep), the
// compress-once cache via a stable sendBuf compression source on the
// first round, and the heal/shrink ladder through collView + healRun.
//
// Non-power-of-two worlds use the MPICH fold: with pow2 the largest
// power of two <= P and rem = P - pow2, the first 2*rem view ranks pair
// up — each odd member folds its vector into its even neighbor, sits out
// the power-of-two core, and receives the finished result at the end;
// survivors renumber densely into [0, pow2) through foldRank/unfoldRank.
//
// Determinism: every schedule is a pure function of (view, buffer
// length, engine config), and each pipelined variant performs the exact
// per-element additions of its blocking oracle in the same order — so
// fault-free runs are bit-identical between the pair and invariant
// across codec worker counts.

import (
	"fmt"

	"mpicomp/internal/gpusim"
)

// rdPow2 returns the largest power of two not exceeding size, and the
// remainder folded away by the preamble.
func rdPow2(size int) (pow2, rem int) {
	pow2 = 1
	for pow2*2 <= size {
		pow2 *= 2
	}
	return pow2, size - pow2
}

// foldRank maps a dense participant index to its core rank in [0, pow2),
// or -1 for the folded-out odd members of the preamble pairs.
func foldRank(vrank, rem int) int {
	if vrank < 2*rem {
		if vrank&1 == 1 {
			return -1
		}
		return vrank / 2
	}
	return vrank - rem
}

// unfoldRank maps a core rank back to its dense participant index.
func unfoldRank(nr, rem int) int {
	if nr < rem {
		return 2 * nr
	}
	return nr + rem
}

// rdWindow bounds how many spans a recursive-doubling round keeps open
// (posted but unconsumed) at once. Every open span costs fixed staging:
// the outbound side holds its compressed payload in the engine's pool
// (Config.PoolBuffers slots) until delivery, and each posted receive
// lets the peer stage one inbound payload in the same pool — chunk
// credits cannot help, because every span is its own message. Posting a
// full vector's worth of spans at once therefore exhausts the pool
// mid-round and degrades the overflow to uncompressed PoolFallbacks
// sends; a window of two is all the overlap the round can use (one span
// in flight while the previous one reduces) and keeps the pool's
// worst case at 2(rdWindow+1)+1 slots, under the smallest configured
// pools.
const rdWindow = 2

// rdExchange runs one recursive-doubling round with peer: the local
// accumulator streams out chunk by chunk while the peer's accumulator
// arrives into scratch, and each received chunk is reduced into acc as
// its span closes. Because the send may read acc itself, a span's
// reduction always waits for that span's outbound send first — MPI
// semantics freeze a buffer with posted sends, and unlike the ring's
// reduce-scatter both sides here exchange the same full vector, so the
// send and reduce ranges overlap span for span. src is the buffer the
// send is compressed from — acc, except on a fresh first round where
// the caller passes the untouched sendBuf (identical bytes, stable
// epoch) so warm iterations hit the compress-once cache.
//
// Liveness: a rank opens span c only after closing span c-rdWindow, and
// posts its receive for span c before its send of span c, so a stuck
// rank would need its peer to trail by more than rdWindow spans while
// the peer needs the same of it — a contradiction; the slower side
// lags by at most the window.
func (r *Rank) rdExchange(peer int, src, acc, scratch *gpusim.Buffer, chunk, tag int) error {
	spans := ringChunkSpans(acc.Len(), chunk)
	rreqs := make([]*Request, len(spans))
	sreqs := make([]*Request, len(spans))
	closeSpan := func(c int) error {
		if err := r.Wait(sreqs[c]); err != nil {
			return err
		}
		if err := r.Wait(rreqs[c]); err != nil {
			return err
		}
		sp := spans[c]
		sumFloat32(r, acc.Slice(sp[0], sp[1]), scratch.Data[sp[0]:sp[0]+sp[1]])
		return nil
	}
	for c, sp := range spans {
		if c >= rdWindow {
			if err := closeSpan(c - rdWindow); err != nil {
				return err
			}
		}
		rreq, err := r.irecv(peer, tag, scratch.Slice(sp[0], sp[1]))
		if err != nil {
			return err
		}
		rreqs[c] = rreq
		sreq, err := r.isend(peer, tag, src.Slice(sp[0], sp[1]), nil)
		if err != nil {
			return err
		}
		sreqs[c] = sreq
	}
	for c := len(spans) - rdWindow; c < len(spans); c++ {
		if c < 0 {
			continue
		}
		if err := closeSpan(c); err != nil {
			return err
		}
	}
	if len(spans) > 1 {
		r.Engine.NotePipelinedChunks(len(spans))
	}
	return nil
}

// foldIn runs the non-power-of-two fold preamble over an explicit
// world-rank list (me this rank's index in it, rem the remainder rdPow2
// folds away): each odd member of the first 2*rem sends its whole vector —
// from src, the stable compression source, when it has one — to its even
// neighbor, sits the power-of-two core out and receives the finished
// result; the even neighbor reduces it into acc. out reports the former.
func (r *Rank) foldIn(peers []int, me, rem int, acc, scratch, src *gpusim.Buffer, tag int) (out bool, err error) {
	if me >= 2*rem {
		return false, nil
	}
	partner := peers[me^1]
	if me&1 == 1 {
		if err := r.send(partner, tag, src); err != nil {
			return true, fmt.Errorf("mpi: allreduce fold send: %w", err)
		}
		if err := r.recv(partner, tag, acc); err != nil {
			return true, fmt.Errorf("mpi: allreduce fold result: %w", err)
		}
		return true, nil
	}
	if err := r.recv(partner, tag, scratch); err != nil {
		return false, fmt.Errorf("mpi: allreduce fold recv: %w", err)
	}
	sumFloat32(r, acc, scratch.Data[:acc.Len()])
	return false, nil
}

// foldOut is foldIn's other half, run by the members that stayed in: an
// even member of a fold pair hands its partner the finished result.
func (r *Rank) foldOut(peers []int, me, rem int, acc *gpusim.Buffer, tag int) error {
	if me >= 2*rem {
		return nil
	}
	if err := r.send(peers[me+1], tag, acc); err != nil {
		return fmt.Errorf("mpi: allreduce unfold send: %w", err)
	}
	return nil
}

// rdRoundsOver runs the fold plus the recursive-doubling core of an
// allreduce over an explicit world-rank list: peers in exchange order, me
// this rank's index in it. acc holds the local contribution on entry and
// the full sum on return; scratch must match its length. src0, when
// non-nil, is the stable compression source for this rank's first
// transmission (the compress-once cache trick); the two-level allreduce
// reuses these rounds for its inter-node leader stage.
func (r *Rank) rdRoundsOver(peers []int, me int, acc, scratch, src0 *gpusim.Buffer, chunk, tag int) error {
	pow2, rem := rdPow2(len(peers))
	first := acc
	if src0 != nil {
		first = src0
	}
	if out, err := r.foldIn(peers, me, rem, acc, scratch, first, tag); out || err != nil {
		return err
	}
	nr := foldRank(me, rem)
	for mask := 1; mask < pow2; mask <<= 1 {
		peer := peers[unfoldRank(nr^mask, rem)]
		src := acc
		if mask == 1 && me >= 2*rem { // acc still byte-equal to the send buffer
			src = first
		}
		if err := r.rdExchange(peer, src, acc, scratch, chunk, tag); err != nil {
			return fmt.Errorf("mpi: rd round (mask %d): %w", mask, err)
		}
	}
	return r.foldOut(peers, me, rem, acc, tag)
}

// RecursiveDoublingAllreduceSum is the latency-optimal allreduce: ceil(
// log2 P) rounds in which pairs at doubling distances exchange their full
// accumulators and reduce. It moves n·log2 P bytes per rank versus the
// ring's 2n(P-1)/P, but pays log2 P message latencies versus the ring's
// 2(P-1) — the winner for small messages, where per-message overhead
// dominates. Buffers must hold float32 data; non-word-aligned sizes fall
// back to reduce+broadcast. Rounds stream in Config.PipelineChunkBytes
// chunks and the first transmission compresses from the untouched
// sendBuf, so warm iterations hit the compress-once cache. Results are
// bit-identical to RecursiveDoublingAllreduceSumBlocking: both run the
// same per-element additions in the same order.
func (r *Rank) RecursiveDoublingAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.rdAllreduce(sendBuf, recvBuf, true) })
}

// RecursiveDoublingAllreduceSumBlocking is the whole-vector blocking
// form of the same schedule — no chunk pipelining, a fresh compression
// every round. It is the measured baseline for the pipelined variant and
// its differential-testing oracle.
func (r *Rank) RecursiveDoublingAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.rdAllreduce(sendBuf, recvBuf, false) })
}

func (r *Rank) rdAllreduce(sendBuf, recvBuf *gpusim.Buffer, pipelined bool) error {
	v, done, err := r.allreduceSetup(AllreduceRecursiveDoubling, sendBuf, recvBuf, false)
	if done {
		return err
	}
	chunk, src0 := r.pipelineShape(sendBuf, pipelined)
	scratch := r.takeScratch(recvBuf, sendBuf.Len())
	defer r.putScratch()
	return r.rdRoundsOver(v.peers(), v.vrank, recvBuf, scratch, src0, chunk, r.collTag(baseAllreduce))
}

// pipelineShape is what `pipelined` turns on in a logarithmic schedule:
// the chunk granularity of its rounds, and sendBuf as the stable
// compression source of the first transmission when it is device-resident
// (nil otherwise, and for the blocking oracles: compress from recvBuf).
func (r *Rank) pipelineShape(sendBuf *gpusim.Buffer, pipelined bool) (chunk int, src0 *gpusim.Buffer) {
	if !pipelined {
		return 0, nil
	}
	if sendBuf.Loc == gpusim.Device {
		src0 = sendBuf
	}
	return ringChunk(r.Engine.Config().PipelineChunkBytes), src0
}

// RabenseifnerAllreduceSum is the bandwidth-optimal logarithmic
// allreduce: a reduce-scatter by recursive halving (each round sends the
// half of the current block range the rank will not keep) followed by an
// allgather by recursive doubling over the same distances. Per rank it
// moves the ring's 2n(P-1)/P bytes but in 2·log2 P rounds instead of
// 2(P-1) — ahead of the ring whenever latency matters and competitive at
// large sizes. Buffers must hold float32 data; messages with fewer words
// than ranks or non-word-aligned sizes fall back to reduce+broadcast —
// the power-of-two core uses the ragged ringBlocks partition. The
// halving rounds stream through ringReduceStep's chunk pipeline and the
// first round compresses from the untouched sendBuf (compress-once
// cache). Results are bit-identical to
// RabenseifnerAllreduceSumBlocking: same additions, same order.
func (r *Rank) RabenseifnerAllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.rabAllreduce(sendBuf, recvBuf, true) })
}

// RabenseifnerAllreduceSumBlocking is the unpipelined form of the same
// schedule: whole half-ranges per round, a fresh compression per hop —
// the measured baseline and differential-testing oracle for
// RabenseifnerAllreduceSum.
func (r *Rank) RabenseifnerAllreduceSumBlocking(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.rabAllreduce(sendBuf, recvBuf, false) })
}

func (r *Rank) rabAllreduce(sendBuf, recvBuf *gpusim.Buffer, pipelined bool) error {
	v, done, err := r.allreduceSetup(AllreduceRabenseifner, sendBuf, recvBuf, true)
	if done {
		return err
	}
	scratch := r.takeScratch(recvBuf, sendBuf.Len())
	defer r.putScratch()
	tag := r.collTag(baseAllreduce)
	chunk, src0 := r.pipelineShape(sendBuf, pipelined)
	first := recvBuf
	if src0 != nil {
		first = src0
	}
	pow2, rem := rdPow2(v.size)
	offs := ringBlocks(sendBuf.Len(), pow2)
	peers, vrank := v.peers(), v.vrank

	// Fold (whole vector, like recursive doubling's).
	if out, err := r.foldIn(peers, vrank, rem, recvBuf, scratch, first, tag); out || err != nil {
		return err
	}
	nr := foldRank(vrank, rem)

	// Phase 1: reduce-scatter by recursive halving over block ranges.
	// [lo, hi) is the block range this rank still accumulates; each round
	// sends the half it gives up and reduces the half it keeps, so after
	// log2 pow2 rounds core rank nr holds block nr fully reduced.
	lo, hi := 0, pow2
	for mask := pow2 >> 1; mask > 0; mask >>= 1 {
		peer := peers[unfoldRank(nr^mask, rem)]
		mid := (lo + hi) / 2
		keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
		if nr&mask != 0 {
			keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
		}
		src := recvBuf
		if mask == pow2>>1 && vrank >= 2*rem { // recvBuf still byte-equal to sendBuf
			src = first
		}
		if err := r.ringReduceStep(peer, peer, src, recvBuf,
			offs[sendLo], offs[sendHi]-offs[sendLo],
			offs[keepLo], offs[keepHi]-offs[keepLo],
			scratch, chunk, false); err != nil {
			return fmt.Errorf("mpi: rabenseifner halving (mask %d): %w", mask, err)
		}
		lo, hi = keepLo, keepHi
	}

	// Phase 2: allgather by recursive doubling — the held range doubles
	// each round by exchanging it with the partner holding the adjacent
	// aligned range.
	for mask := 1; mask < pow2; mask <<= 1 {
		peer := peers[unfoldRank(nr^mask, rem)]
		width := hi - lo
		plo, phi := hi, hi+width
		if nr&mask != 0 {
			plo, phi = lo-width, lo
		}
		sb := recvBuf.Slice(offs[lo], offs[hi]-offs[lo])
		rb := recvBuf.Slice(offs[plo], offs[phi]-offs[plo])
		if err := r.sendrecv(peer, tag, sb, peer, tag, rb); err != nil {
			return fmt.Errorf("mpi: rabenseifner doubling (mask %d): %w", mask, err)
		}
		if plo < lo {
			lo = plo
		} else {
			hi = phi
		}
	}

	return r.foldOut(peers, vrank, rem, recvBuf, tag)
}
