package mpi

// The one collective executor: runSchedule runs the steps internal/sched
// generates, each through a shared transport step (runStep). A reduce step
// receives straight into the span it adds to (irecvAdd), so a call holds no
// receive scratch.

import (
	"errors"
	"fmt"
	"slices"

	"mpicomp/internal/gpusim"
	"mpicomp/internal/sched"
)

func (w *World) layout(v sched.View) sched.Layout {
	return sched.Layout{View: v, PPN: w.ppn, Nodes: w.nodes, Ranks: w.size}
}

// noRoot marks a collective without a root.
const noRoot = -1

// collective is one call as the executor runs it.
type collective struct {
	name string // for errors: "mpi: <name> step <i>: ..."
	root int    // world rank of the root, or noRoot
	// indexed marks the world-indexed collectives (Gather, Scatter,
	// Alltoall(v)): every world rank with abort semantics, the fated skipped
	// only once a self-heal has shrunk the world; the others run on the view.
	indexed    bool
	send, recv *gpusim.Buffer
	bad        error // an argument error, reported after the health and root checks
	steps      func(l sched.Layout) []sched.Step
}

// lenErr reports a buffer of the wrong length, when check holds.
func lenErr(check bool, what string, b *gpusim.Buffer, want int) error {
	if !check || b.Len() == want {
		return nil
	}
	return fmt.Errorf("mpi: %s buffer %d bytes, want %d", what, b.Len(), want)
}

// wordErr reports a reduction vector that is not whole float32 words.
func wordErr(what string, n int) error {
	if n%4 == 0 {
		return nil
	}
	return fmt.Errorf("mpi: %s buffer %d bytes is not whole float32 words", what, n)
}

// allreduce is an allreduce call under gen (sched.Allreduce). Every rank
// checks the buffer lengths before any step.
func allreduce(gen sched.Generator, pipelined bool, sendBuf, recvBuf *gpusim.Buffer) collective {
	n := sendBuf.Len()
	return collective{name: "allreduce", root: noRoot, send: sendBuf, recv: recvBuf,
		bad:   errors.Join(wordErr("allreduce send", n), lenErr(true, "allreduce recv", recvBuf, n)),
		steps: func(l sched.Layout) []sched.Step { return sched.Allreduce(gen, l, n, pipelined) }}
}

// run runs c under the self-healing protocol (healRun): an attempt, and
// on a retry verdict another on the rebuilt view.
func (r *Rank) run(c collective) error { return r.healRun(func() error { return r.runSchedule(c) }) }

// runSchedule is the one collective executor: the root check, the health
// check and the layout (the view, or every world rank and the skip set),
// a dead root's PeerError, the argument check, one accumulator for the
// whole call, and the steps in order.
func (r *Rank) runSchedule(c collective) error {
	w := r.world
	if c.root != noRoot {
		if err := r.checkPeer(c.root); err != nil {
			return err
		}
	}
	var l sched.Layout
	if c.indexed {
		if err := r.checkHealth(); err != nil {
			return err
		}
		l = w.layout(sched.View{Size: w.size, VRank: r.id})
		if w.shrunk.Load() {
			l.Gone = w.doomed
		}
	} else {
		v, err := r.collView()
		if err != nil {
			return err
		}
		l = w.layout(v)
	}
	if c.root != noRoot && (l.Vof(c.root) < 0 || l.Skips(c.root)) {
		return w.peerError(c.root)
	}
	if c.bad != nil {
		return c.bad
	}
	steps := c.steps(l)
	// The accumulator holds a copy of the contribution, so it lives where
	// sendBuf does.
	b := bufs{sched.InSend: c.send, sched.InRecv: c.recv}
	acc := -1
	for _, st := range steps {
		if st.Recv.Buf == sched.InAcc {
			acc = max(acc, st.Recv.Off+st.Recv.N)
		}
	}
	if acc >= 0 {
		b[sched.InAcc] = r.takeScratch(c.send, acc)
		defer r.putScratch()
	}
	chunk := r.Engine.Config().PipelineChunkBytes &^ 3 // word-aligned; under a word, one chunk
	for i, st := range steps {
		if err := r.runStep(st, &b, chunk); err != nil {
			return fmt.Errorf("mpi: %s step %d: %w", c.name, i, err)
		}
	}
	return nil
}

// takeScratch hands out an n-byte scratch buffer living where like does for
// one collective call; the caller defers putScratch. The bytes come from
// the rank's two reusable vectors, grown to the largest request and never
// zeroed (every user overwrites what it reads); a call nested under two
// live ones gets fresh memory. Scratch only receives, or is sent by a
// blocking send, so nothing in flight references it once handed back.
func (r *Rank) takeScratch(like *gpusim.Buffer, n int) *gpusim.Buffer {
	i := r.scratchHeld
	r.scratchHeld++
	if i >= len(r.scratch) {
		return &gpusim.Buffer{Data: make([]byte, n), Loc: like.Loc, Dev: like.Dev}
	}
	if cap(r.scratch[i]) < n {
		r.scratch[i] = make([]byte, n)
	}
	return &gpusim.Buffer{Data: r.scratch[i][:n], Loc: like.Loc, Dev: like.Dev}
}

// putScratch returns the most recently taken scratch buffer.
func (r *Rank) putScratch() { r.scratchHeld-- }

// bufs are a call's buffers by sched.BufID.
type bufs [3]*gpusim.Buffer

// at is the span's view of its buffer: the buffer itself when the span
// covers it.
func (b *bufs) at(sp sched.Span) *gpusim.Buffer {
	buf := b[sp.Buf]
	if sp.Off == 0 && sp.N == buf.Len() {
		return buf
	}
	return buf.Slice(sp.Off, sp.N)
}

// source is the buffer a step's send reads and the send span in it: the
// step's own, or — for a FromSend step while sendBuf is device-resident —
// the same bytes in sendBuf.
func (b *bufs) source(st sched.Step) (*gpusim.Buffer, sched.Span) {
	if st.FromSend && b[sched.InSend].Loc == gpusim.Device {
		return b[sched.InSend], sched.Span{Off: st.Send.Off - st.Mirror, N: st.Send.N, Buf: sched.InSend}
	}
	return b[st.Send.Buf], st.Send
}

// runStep runs one step through its shared transport step.
func (r *Rank) runStep(st sched.Step, b *bufs, chunk int) error {
	src, out := b.source(st)
	if !st.Chunked {
		chunk = 0
	}
	tag := r.collTag(st.Tag)
	switch st.Op {
	case sched.OpCopy:
		from, into := b.at(st.Send), b.at(st.Recv)
		if st.Charge {
			if err := r.checkHealth(); err != nil {
				return err
			}
		}
		if st.Charge && from.Loc == gpusim.Device {
			r.Dev.MemcpyD2D(r.Clock, r.Dev.Stream(0), into.Data, from.Data)
			r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
		} else {
			copy(into.Data, from.Data)
		}
		into.MarkDirty()
		return nil
	case sched.OpReduce:
		return r.ringReduceStep(st.To, st.From, tag, src, b[st.Recv.Buf], out, st.Recv, chunk, st.SendFirst)
	case sched.OpExchange:
		return r.rdExchange(st.To, tag, src, b[st.Recv.Buf], chunk)
	case sched.OpRelay:
		payload, hdr := r.Engine.CompressForLinkCached(r.Clock, b.at(out), r.shareGBps(0, r.world.nodes-1))
		return r.relayRing(st.From, st.To, tag, len(st.Relay), payload, hdr, func(hop int) *gpusim.Buffer {
			return b.at(st.Relay[hop])
		})
	case sched.OpTree:
		return r.treeRelay(st.From, st.Peers, tag, b.at(out), b.at(st.Recv))
	case sched.OpAlltoallv:
		return r.alltoallvStep(tag, st.Fan, b)
	}
	// A send, a receive, a pair (receive posted first, send waited first)
	// or a fan: every part posted in order, then all waited.
	fan := st.Fan
	switch st.Op {
	case sched.OpSend, sched.OpRecv:
		fan = []sched.Step{st}
	case sched.OpSendrecv:
		fan = []sched.Step{{Op: sched.OpRecv, From: st.From, Recv: st.Recv}, {Op: sched.OpSend, To: st.To, Send: out}}
	}
	var pair [2]*Request // a pair's requests stay off the heap
	reqs := pair[:0]
	for _, f := range fan {
		var req *Request
		var err error
		switch {
		case f.Op == sched.OpCopy:
			err = r.runStep(f, b, 0)
		case f.Op == sched.OpSend && f.To >= 0:
			_, out := b.source(f)
			req, err = r.isend(f.To, tag, b.at(out), nil)
		case f.Op == sched.OpRecv && f.From >= 0:
			req, err = r.irecv(f.From, tag, b.at(f.Recv))
		}
		if err != nil {
			return err
		}
		if req != nil {
			reqs = append(reqs, req)
		}
	}
	if st.Op == sched.OpSendrecv {
		slices.Reverse(reqs)
	}
	return r.Waitall(reqs...)
}

// rdWindow bounds the spans a recursive-doubling round keeps open (posted
// but unconsumed). Each open span holds its outbound payload in the
// engine's pool (Config.PoolBuffers slots) and lets the peer stage one
// inbound payload there; every span is its own message, so chunk credits
// cannot help, and a whole vector's spans at once would exhaust the pool
// into uncompressed PoolFallbacks sends. Two is all the overlap a round can
// use (one span in flight while the previous one reduces), and it keeps the
// worst case at 2(rdWindow+1)+1 slots, under the smallest configured pools.
const rdWindow = 2

// rdExchange runs one recursive-doubling round with peer: the local
// accumulator streams out chunk by chunk while the peer's streams in, each
// received chunk decoding into the sum (irecvAdd) as its span closes. The
// send and reduce ranges are the same spans, so a span's reduction waits
// for its outbound send first (MPI freezes a buffer with posted sends).
// src is the buffer the send is compressed from (bufs.source).
// Liveness: a rank opens span c only after closing span c-rdWindow and
// posts its receive for c before its send, so the slower side lags by at
// most the window.
func (r *Rank) rdExchange(peer, tag int, src, acc *gpusim.Buffer, chunk int) error {
	spans := sched.ChunkSpans(acc.Len(), chunk)
	rreqs := make([]*Request, len(spans))
	sreqs := make([]*Request, len(spans))
	closeSpan := func(c int) error {
		if err := r.Wait(sreqs[c]); err != nil {
			return err
		}
		if err := r.Wait(rreqs[c]); err != nil {
			return err
		}
		chargeSum(r, rreqs[c].buf)
		return nil
	}
	for c, sp := range spans {
		if c >= rdWindow {
			if err := closeSpan(c - rdWindow); err != nil {
				return err
			}
		}
		rreq, err := r.irecvAdd(peer, tag, acc.Slice(sp[0], sp[1]))
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
	for c := max(len(spans)-rdWindow, 0); c < len(spans); c++ {
		if err := closeSpan(c); err != nil {
			return err
		}
	}
	if len(spans) > 1 {
		r.Engine.NotePipelinedChunks(len(spans))
	}
	return nil
}
