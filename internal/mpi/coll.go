package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpicomp/internal/core"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// Collective tags live in their own namespace, built by collTag (heal.go)
// from the algorithm's base offset plus this rank's (recovery epoch,
// operation index) context. Ranks execute collectives in program order, so
// the context stays in lockstep without communication; a retried attempt
// after a mid-operation failure uses a fresh epoch, which is what keeps a
// revoked attempt's stale envelopes from ever matching the retry.

// collView is the dense rank space a collective runs over: the full world
// normally, or the surviving subset once the world has shrunk (ULFM's
// MPIX_Comm_shrink). Algorithms compute neighbors and tree edges in view
// coordinates [0, size) and translate to world ranks through real(); the
// identity view (live == nil) translates to the same world ranks — and
// therefore the same message pattern and timings — as the pre-shrink code.
type collView struct {
	size  int
	vrank int
	live  []int // nil: identity (the full world)
}

// real maps a view coordinate to its world rank.
func (v collView) real(vr int) int {
	if v.live == nil {
		return vr
	}
	return v.live[vr]
}

// peers lists the view's world ranks in view order.
func (v collView) peers() []int {
	ids := make([]int, v.size)
	for i := range ids {
		ids[i] = v.real(i)
	}
	return ids
}

// vof maps a world rank to its view coordinate, -1 if excluded.
func (v collView) vof(world int) int {
	if v.live == nil {
		return world
	}
	for i, id := range v.live {
		if id == world {
			return i
		}
	}
	return -1
}

// collView computes this rank's collective view. Fault-free worlds (and
// worlds that have not shrunk) take the identity fast path; under an
// active shrink, fated ranks are excluded and get an immediate error
// (their quiesce cascades so survivors never wait on them). Once a
// self-heal recovery has advanced this rank's epoch, the view follows the
// fabric's fault-avoiding route order (heal.go), so a rebuilt ring walks
// healthy links.
func (r *Rank) collView() (collView, error) {
	if err := r.checkHealth(); err != nil {
		return collView{}, err
	}
	w := r.world
	if len(w.doomed) == 0 || !w.shrinkEnabled() {
		if w.healOn && r.healEpoch > 0 && w.routeView != nil {
			// Link-only recovery: every rank survives, but the ring order
			// reroutes around the failed links.
			v := collView{size: w.size, live: w.routeOrdered(w.everyone)}
			v.vrank = v.vof(r.id)
			return v, nil
		}
		return collView{size: w.size, vrank: r.id}, nil
	}
	live := w.live
	if w.healOn && r.healEpoch > 0 {
		live = w.routeOrdered(live)
	}
	v := collView{size: len(live), live: live}
	v.vrank = v.vof(r.id)
	if v.vrank < 0 {
		return collView{}, fmt.Errorf("mpi: rank %d is fated and excluded from the shrunk communicator: %w", r.id, ErrPeerFailed)
	}
	return v, nil
}

// Barrier synchronizes all ranks (dissemination algorithm, O(log P)
// rounds of small host messages).
func (r *Rank) Barrier() error {
	return r.healRun(r.barrier)
}

func (r *Rank) barrier() error {
	v, err := r.collView()
	if err != nil {
		return err
	}
	size := v.size
	if size == 1 {
		return nil
	}
	tag := r.collTag(baseBarrier)
	token := gpusim.NewHostBuffer(1)
	scratch := gpusim.NewHostBuffer(1)
	for k := 1; k < size; k <<= 1 {
		dst := v.real((v.vrank + k) % size)
		src := v.real((v.vrank - k + size) % size)
		if err := r.sendrecv(dst, tag, token, src, tag, scratch); err != nil {
			return fmt.Errorf("mpi: barrier: %w", err)
		}
	}
	return nil
}

// consumeRaw decompresses a relayed raw payload into dst and releases its
// staging buffer — the per-hop consume step shared by the
// compression-aware collectives. The engine fans the real decode work of
// each hop across the codec worker pool (MPC partitions / ZFP chunk rows
// run host-parallel), while the simulated kernel accounting stays on this
// rank's goroutine.
//
// A relayed payload is the same immutable bytes on every rank that consumes
// it, and the ranks are goroutines of one process: the first to get here
// runs the codec job and publishes its output on the companion the payload
// traveled with; the others replace that job — and nothing else — with a
// copy (core.DecompressRelayed).
func (r *Rank) consumeRaw(raw rawResult, dst *gpusim.Buffer) error {
	err := r.Engine.DecompressRelayed(r.Clock, raw.hdr, raw.payload, dst, raw.decoded)
	// Hand the staging slot back even when the decode fails — an aborting
	// collective must not leak pool credits.
	r.Engine.ReleaseRecv(r.Clock, raw.staged)
	r.dropRawStaged(raw.staged)
	return err
}

// relayDecoded is the decoded-form companion a relay's origin attaches to
// the payload it is about to send around: none when a single rank will
// consume it (nothing to share).
func (r *Rank) relayDecoded(hdr core.Header, consumers int) *core.Decoded {
	if consumers < 2 || r.world.decodePerRank {
		return nil
	}
	return core.NewDecoded(hdr)
}

// binomial is the one tree every rooted collective walks: vrank's parent
// (-1 at the root, vrank 0) and its children, nearest first, in the
// binomial tree over [0, size). A reduction drains the children in that
// order and then sends to the parent; a broadcast receives from the parent
// and serves the children farthest first.
func binomial(vrank, size int) (parent int, children []int) {
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			return vrank - mask, children
		}
		if vrank+mask < size {
			children = append(children, vrank+mask)
		}
	}
	return -1, children
}

// Bcast broadcasts root's buf to every rank using a binomial tree — the
// algorithm osu_bcast exercises for large messages.
//
// The collective is compression-aware: the root compresses the message
// once, interior ranks forward the compressed payload (relaying it before
// decompressing their own copy), and every rank decompresses exactly once.
// This is the collective co-design the paper's framework enables — the
// header carried with each payload makes relayed messages self-describing.
// Relayed payloads at least twice the pipeline chunk size ride the
// chunk-granular reliability path (per-chunk CRC, selective retransmit,
// credit window) hop by hop, exactly like pipelined point-to-point sends.
func (r *Rank) Bcast(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.bcast(root, buf) })
}

func (r *Rank) bcast(root int, buf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	v, err := r.collView()
	if err != nil {
		return err
	}
	vroot := v.vof(root)
	if vroot < 0 {
		return r.world.peerError(root)
	}
	size := v.size
	if size == 1 {
		return nil
	}
	tag := r.collTag(baseBcast)
	parent, children := binomial((v.vrank-vroot+size)%size, size)

	// Obtain the payload: the root compresses, everyone else receives
	// the raw compressed bytes from the parent.
	var raw rawResult
	if parent < 0 {
		raw.payload, raw.hdr = r.Engine.CompressForLinkCached(r.Clock, buf, r.world.cluster.InterNode.BandwidthGBps)
		raw.decoded = r.relayDecoded(raw.hdr, size-1)
	} else {
		req, err := r.irecv(v.real((parent+vroot)%size), tag, nil)
		if err != nil {
			return err
		}
		if err := r.Wait(req); err != nil {
			return fmt.Errorf("mpi: bcast recv: %w", err)
		}
		raw = req.raw
	}

	// Relay to children first (farthest first), then decompress locally —
	// the decompression kernel runs while the forwards drain.
	var sends []*Request
	for i := len(children) - 1; i >= 0; i-- {
		req, err := r.isendPayload(v.real((children[i]+vroot)%size), tag, raw.payload, raw.hdr, raw.decoded)
		if err != nil {
			return fmt.Errorf("mpi: bcast send: %w", err)
		}
		sends = append(sends, req)
	}
	if parent >= 0 {
		if err := r.consumeRaw(raw, buf); err != nil {
			return fmt.Errorf("mpi: bcast decompress: %w", err)
		}
	}
	return r.Waitall(sends...)
}

// relayRing is the compression-aware ring every allgather-shaped phase
// runs: `steps` times, forward payload to right while the next one arrives
// from left, and decompress the previous step's arrival — into dstOf of
// the step that received it — while this step's transfers are in flight.
// The wire payload travels verbatim, so each block is compressed once at
// its origin and decompressed once per rank — and, on the host, decoded
// once per block: the origin's companion travels with it (relayDecoded).
func (r *Rank) relayRing(left, right, tag, steps int, payload []byte, hdr core.Header, dstOf func(step int) *gpusim.Buffer) error {
	dec := r.relayDecoded(hdr, steps)
	var arrived rawResult
	var into *gpusim.Buffer // nil until the first arrival
	consume := func() error {
		if into == nil {
			return nil
		}
		if err := r.consumeRaw(arrived, into); err != nil {
			return fmt.Errorf("relay decompress: %w", err)
		}
		return nil
	}
	for step := 0; step < steps; step++ {
		rreq, err := r.irecv(left, tag, nil)
		if err != nil {
			return err
		}
		sreq, err := r.isendPayload(right, tag, payload, hdr, dec)
		if err != nil {
			return fmt.Errorf("relay step %d: %w", step, err)
		}
		if err := consume(); err != nil {
			return err
		}
		if err := r.Waitall(sreq, rreq); err != nil {
			return fmt.Errorf("relay step %d: %w", step, err)
		}
		arrived, into = rreq.raw, dstOf(step)
		payload, hdr, dec = arrived.payload, arrived.hdr, arrived.decoded
	}
	return consume()
}

// Allgather gathers each rank's sendBuf into every rank's recvBuf
// (recvBuf holds world-size * len(sendBuf) bytes, rank i's block at
// offset i*len(sendBuf)) using the ring algorithm MVAPICH2 uses for
// large messages. Under an active shrink the ring runs over the
// surviving subset; block offsets stay world-rank indexed, so fated
// ranks' blocks are simply left untouched.
func (r *Rank) Allgather(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.allgather(sendBuf, recvBuf) })
}

func (r *Rank) allgather(sendBuf, recvBuf *gpusim.Buffer) error {
	v, err := r.collView()
	if err != nil {
		return err
	}
	size := v.size
	blk := sendBuf.Len()
	if recvBuf.Len() != r.Size()*blk {
		return fmt.Errorf("mpi: allgather recv buffer %d bytes, want %d", recvBuf.Len(), r.Size()*blk)
	}
	// Own contribution (device-local copy).
	own := recvBuf.Slice(r.id*blk, blk)
	if sendBuf.Loc == gpusim.Device {
		r.Dev.MemcpyD2D(r.Clock, r.Dev.Stream(0), own.Data, sendBuf.Data)
		r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
	} else {
		copy(own.Data, sendBuf.Data)
	}
	own.MarkDirty()
	if size == 1 {
		return nil
	}
	// Each rank compresses its own block once. The compression source is
	// sendBuf when possible — its bytes equal the just-copied own block,
	// and an unchanged tracked sendBuf hits the compress-once cache on
	// warm iterations, whereas the own block's epoch was just bumped.
	srcBlk := own
	if sendBuf.Loc == gpusim.Device {
		srcBlk = sendBuf
	}
	payload, hdr := r.Engine.CompressForLinkCached(r.Clock, srcBlk, r.world.cluster.InterNode.BandwidthGBps)
	err = r.relayRing(v.real((v.vrank-1+size)%size), v.real((v.vrank+1)%size), r.collTag(baseAllgather), size-1, payload, hdr,
		func(step int) *gpusim.Buffer {
			return recvBuf.Slice(v.real((v.vrank-step-1+size)%size)*blk, blk)
		})
	if err != nil {
		return fmt.Errorf("mpi: allgather %w", err)
	}
	return nil
}

// Gather collects every rank's sendBuf into root's recvBuf (rank i's block
// at offset i*len(sendBuf)). recvBuf is ignored on non-root ranks.
//
// Gather keeps abort semantics under failures (its block layout is
// world-rank indexed, so there is no meaningful shrunk form): with a
// fated rank in the world, every survivor's call surfaces ErrPeerFailed
// within the watchdog deadline rather than hanging. Under a self-heal
// recovery the retry completes on the surviving group instead: fated
// ranks' blocks are skipped and left untouched.
func (r *Rank) Gather(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.gather(root, sendBuf, recvBuf) })
}

func (r *Rank) gather(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	if err := r.checkHealth(); err != nil {
		return err
	}
	w := r.world
	shr := w.healShrunk()
	if shr && w.isDoomed(root) {
		return w.peerError(root)
	}
	tag := r.collTag(baseGather)
	blk := sendBuf.Len()
	if r.id == root {
		if recvBuf.Len() != r.Size()*blk {
			return fmt.Errorf("mpi: gather recv buffer %d bytes, want %d", recvBuf.Len(), r.Size()*blk)
		}
		reqs := make([]*Request, 0, r.Size()-1)
		for src := 0; src < r.Size(); src++ {
			if shr && w.isDoomed(src) {
				continue
			}
			dst := recvBuf.Slice(src*blk, blk)
			if src == root {
				copy(dst.Data, sendBuf.Data)
				dst.MarkDirty()
				continue
			}
			req, err := r.irecv(src, tag, dst)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		return r.Waitall(reqs...)
	}
	return r.send(root, tag, sendBuf)
}

// Scatter distributes root's sendBuf (rank i's block at offset
// i*len(recvBuf)) into every rank's recvBuf. sendBuf is ignored on
// non-root ranks. Like Gather, Scatter keeps abort semantics under
// failures, and like Gather a self-heal retry completes on the surviving
// group, skipping fated destinations.
func (r *Rank) Scatter(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.scatter(root, sendBuf, recvBuf) })
}

func (r *Rank) scatter(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	if err := r.checkHealth(); err != nil {
		return err
	}
	w := r.world
	shr := w.healShrunk()
	if shr && w.isDoomed(root) {
		return w.peerError(root)
	}
	tag := r.collTag(baseScatter)
	blk := recvBuf.Len()
	if r.id == root {
		if sendBuf.Len() != r.Size()*blk {
			return fmt.Errorf("mpi: scatter send buffer %d bytes, want %d", sendBuf.Len(), r.Size()*blk)
		}
		reqs := make([]*Request, 0, r.Size()-1)
		for dst := 0; dst < r.Size(); dst++ {
			if shr && w.isDoomed(dst) {
				continue
			}
			src := sendBuf.Slice(dst*blk, blk)
			if dst == root {
				copy(recvBuf.Data, src.Data)
				recvBuf.MarkDirty()
				continue
			}
			req, err := r.isend(dst, tag, src, nil)
			if err != nil {
				return err
			}
			reqs = append(reqs, req)
		}
		return r.Waitall(reqs...)
	}
	return r.recv(root, tag, recvBuf)
}

// ReduceSum computes the element-wise float32 sum of every rank's sendBuf
// into root's recvBuf (binomial tree). Buffers must hold float32 data.
func (r *Rank) ReduceSum(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.reduceSum(root, sendBuf, recvBuf) })
}

func (r *Rank) reduceSum(root int, sendBuf, recvBuf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	v, err := r.collView()
	if err != nil {
		return err
	}
	vroot := v.vof(root)
	if vroot < 0 {
		return r.world.peerError(root)
	}
	size := v.size
	vrank := (v.vrank - vroot + size) % size
	tag := r.collTag(baseReduce)
	parent, children := binomial(vrank, size)
	// Leaf ranks (odd view rank) forward their contribution unmodified:
	// sending sendBuf itself instead of a scratch copy lets a tracked,
	// unchanged buffer reuse its cached compressed form across calls.
	if vrank&1 == 1 {
		return r.send(v.real((parent+vroot)%size), tag, sendBuf)
	}
	// Accumulator starts as a copy of the local contribution.
	acc := r.takeScratch(sendBuf, sendBuf.Len())
	defer r.putScratch()
	copy(acc.Data, sendBuf.Data)
	tmp := r.takeScratch(sendBuf, sendBuf.Len())
	defer r.putScratch()
	for _, child := range children {
		if err := r.recv(v.real((child+vroot)%size), tag, tmp); err != nil {
			return fmt.Errorf("mpi: reduce recv: %w", err)
		}
		sumFloat32(r, acc, tmp.Data)
	}
	if parent >= 0 {
		return r.send(v.real((parent+vroot)%size), tag, acc)
	}
	if recvBuf.Len() != acc.Len() {
		return fmt.Errorf("mpi: reduce recv buffer %d bytes, want %d", recvBuf.Len(), acc.Len())
	}
	copy(recvBuf.Data, acc.Data)
	recvBuf.MarkDirty()
	return nil
}

// takeScratch hands out an n-byte scratch buffer living where like does,
// for the duration of one collective call: the caller defers putScratch.
// The bytes come from the rank's two reusable vectors (a reduction needs
// an accumulator and a receive buffer at once), grown to the largest
// request and never zeroed — every user overwrites what it reads; a call
// nested under two live ones gets fresh memory, so holders never alias.
// Scratch only ever receives, or is sent by a blocking send, so nothing in
// flight still references it when an erroring or retried call hands it back.
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

// AllreduceSum computes the element-wise float32 sum into every rank's
// recvBuf. The schedule is the world's pinned algorithm
// (Options.Allreduce) when one is set; with AllreduceAuto it routes
// through the wired tuner (Options.Tuner) and, absent one, runs the
// historical reduce+broadcast (reduce to the first rank + broadcast —
// the paper leaves compressed Allreduce as future work; this gives it
// the compressed p2p edges). Under an active shrink the reduce roots at
// the lowest surviving rank. Tuner-dispatched calls also report their
// measured virtual-clock latency back, and feed the first-touch
// compressibility probe when the tuner asks for one.
func (r *Rank) AllreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	algo := r.world.allreduce
	var (
		t     CollTuner
		p     TunePoint
		start simtime.Time
	)
	if algo == AllreduceAuto {
		if t = r.world.tuner; t == nil {
			algo = AllreduceReduceBcast
		} else {
			w := r.world
			p = TunePoint{Bytes: sendBuf.Len(), Ranks: w.size, Nodes: w.nodes, PPN: w.ppn, Op: r.nextOp}
			if t.NeedProbe(p) {
				t.ObserveProbeSample(p, probeSample(sendBuf))
			}
			algo = t.PickAllreduce(p)
			start = r.Clock.Now()
		}
	}
	err := r.healRun(func() error { return r.runAllreduce(algo, sendBuf, recvBuf) })
	if err == nil && t != nil {
		t.ObserveAllreduce(p, algo, r.Clock.Now().Sub(start))
	}
	return err
}

func (r *Rank) allreduceSum(sendBuf, recvBuf *gpusim.Buffer) error {
	root := 0
	if w := r.world; w.shrinkEnabled() && len(w.live) > 0 {
		root = w.live[0]
	}
	if err := r.reduceSum(root, sendBuf, recvBuf); err != nil {
		return err
	}
	return r.bcast(root, recvBuf)
}

// Alltoall exchanges blocks between all pairs: rank i's j-th send block
// lands in rank j's i-th receive block. Pairwise-exchange algorithm.
// Alltoall keeps abort semantics under failures (world-indexed blocks);
// a self-heal retry completes on the surviving group, skipping exchanges
// with fated peers and leaving their blocks untouched.
func (r *Rank) Alltoall(sendBuf, recvBuf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.alltoall(sendBuf, recvBuf) })
}

func (r *Rank) alltoall(sendBuf, recvBuf *gpusim.Buffer) error {
	if err := r.checkHealth(); err != nil {
		return err
	}
	w := r.world
	shr := w.healShrunk()
	size := r.Size()
	if sendBuf.Len()%size != 0 || recvBuf.Len() != sendBuf.Len() {
		return fmt.Errorf("mpi: alltoall buffers must be equal and divisible by %d ranks", size)
	}
	tag := r.collTag(baseAlltoall)
	blk := sendBuf.Len() / size
	// Local block.
	copy(recvBuf.Slice(r.id*blk, blk).Data, sendBuf.Slice(r.id*blk, blk).Data)
	recvBuf.MarkDirty()
	for step := 1; step < size; step++ {
		// Receive posted first, send waited first — sendrecv's order.
		dst, src := exchangePeers(r.id, step, size)
		var sreq, rreq *Request
		var err error
		if !(shr && w.isDoomed(src)) {
			if rreq, err = r.irecv(src, tag, recvBuf.Slice(src*blk, blk)); err != nil {
				return fmt.Errorf("mpi: alltoall step %d: %w", step, err)
			}
		}
		if !(shr && w.isDoomed(dst)) {
			if sreq, err = r.isend(dst, tag, sendBuf.Slice(dst*blk, blk), nil); err != nil {
				return fmt.Errorf("mpi: alltoall step %d: %w", step, err)
			}
		}
		reqs := make([]*Request, 0, 2)
		for _, req := range []*Request{sreq, rreq} {
			if req != nil {
				reqs = append(reqs, req)
			}
		}
		if err := r.Waitall(reqs...); err != nil {
			return fmt.Errorf("mpi: alltoall step %d: %w", step, err)
		}
	}
	return nil
}

// exchangePeers is the pairwise-exchange schedule Alltoall and Alltoallv
// share: at each step a power-of-two world pairs ranks by XOR (both sides
// of a pair exchange directly, dst == src); any other size runs the ring
// (send to rank+step, receive from rank-step).
func exchangePeers(id, step, size int) (dst, src int) {
	if size&(size-1) == 0 {
		return id ^ step, id ^ step
	}
	return (id + step) % size, (id - step + size) % size
}

// checkAlltoallv validates one side's count/displacement vectors against
// its buffer: world-size length, non-negative entries, every segment
// within the buffer.
func checkAlltoallv(side string, buf *gpusim.Buffer, counts, displs []int, size int) error {
	if len(counts) != size || len(displs) != size {
		return fmt.Errorf("mpi: alltoallv %s vectors must have %d entries (got %d counts, %d displacements)",
			side, size, len(counts), len(displs))
	}
	for i := 0; i < size; i++ {
		if counts[i] < 0 || displs[i] < 0 {
			return fmt.Errorf("mpi: alltoallv %s segment %d is negative (count %d, displacement %d)",
				side, i, counts[i], displs[i])
		}
		if displs[i] > buf.Len()-counts[i] {
			return fmt.Errorf("mpi: alltoallv %s segment %d [%d, %d) exceeds %d-byte buffer",
				side, i, displs[i], displs[i]+counts[i], buf.Len())
		}
	}
	return nil
}

// Alltoallv is the vector all-to-all: rank i sends sendCounts[j] bytes
// at sendDispls[j] of sendBuf to each rank j, receiving recvCounts[j]
// bytes at recvDispls[j] of recvBuf from it (counts and displacements
// in bytes). Pairwise-exchange schedule, the same as Alltoall's; every
// per-destination segment rides the compression-enabled point-to-point
// path, so each peer's segment is compressed independently — the
// TEMPI-style compressed Alltoallv. Like the other world-indexed
// collectives, it keeps abort semantics under failures.
//
// Unlike the symmetric collectives, alltoallv's ragged segments make
// adapter contention order-sensitive: two co-located ranks booking
// different-sized transfers on their node's shared egress calendar
// would serialize in host-scheduling order, not a deterministic one
// (equal-sized transfers mask this — any arrival order yields the
// same timeline — which is why Alltoall needs no special care). Each
// exchange step therefore runs in barrier-separated waves, one per
// node-local rank index: within a wave no two in-flight transfers
// share an egress, ingress, or intra-node calendar (pairs span
// distinct nodes; ring-schedule senders with the same local index
// target distinct nodes), and an intra-node pair serializes its two
// directions (lower rank sends first) because both would otherwise
// share the node's one GPU-link calendar. The barrier tokens are
// 1-byte messages whose transfer time truncates to zero, so they
// reserve no calendar time themselves. This models one active port
// per adapter — the cost of determinism is lost overlap between
// co-located senders, which the shared HCA would serialize anyway.
func (r *Rank) Alltoallv(sendBuf *gpusim.Buffer, sendCounts, sendDispls []int, recvBuf *gpusim.Buffer, recvCounts, recvDispls []int) error {
	return r.healRun(func() error {
		return r.alltoallv(sendBuf, sendCounts, sendDispls, recvBuf, recvCounts, recvDispls)
	})
}

func (r *Rank) alltoallv(sendBuf *gpusim.Buffer, sendCounts, sendDispls []int, recvBuf *gpusim.Buffer, recvCounts, recvDispls []int) error {
	if err := r.checkHealth(); err != nil {
		return err
	}
	w := r.world
	shr := w.healShrunk()
	size := r.Size()
	if err := checkAlltoallv("send", sendBuf, sendCounts, sendDispls, size); err != nil {
		return err
	}
	if err := checkAlltoallv("recv", recvBuf, recvCounts, recvDispls, size); err != nil {
		return err
	}
	if sendCounts[r.id] != recvCounts[r.id] {
		return fmt.Errorf("mpi: alltoallv self segment mismatch: sending %d bytes, receiving %d",
			sendCounts[r.id], recvCounts[r.id])
	}
	// Local segment (device-local copy).
	if n := sendCounts[r.id]; n > 0 {
		copy(recvBuf.Slice(recvDispls[r.id], n).Data, sendBuf.Slice(sendDispls[r.id], n).Data)
		recvBuf.MarkDirty()
	}
	if size == 1 {
		return nil
	}
	pow2 := size&(size-1) == 0
	ppn := r.world.ppn
	tag := r.collTag(baseAlltoallv)
	for step := 1; step < size; step++ {
		dst, src := exchangePeers(r.id, step, size)
		// On a self-heal retry, exchanges with fated peers are skipped and
		// their segments left untouched — but every live rank still runs
		// each step's full barrier-wave schedule, so the wave discipline
		// stays globally aligned.
		sendOK := !(shr && w.isDoomed(dst))
		recvOK := !(shr && w.isDoomed(src))
		sb := sendBuf.Slice(sendDispls[dst], sendCounts[dst])
		var rreq *Request
		if recvOK {
			rb := recvBuf.Slice(recvDispls[src], recvCounts[src])
			// Post the receive before any wave: a sender whose wave comes
			// earlier than ours must find it matched.
			req, err := r.irecv(src, tag, rb)
			if err != nil {
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
			rreq = req
		}
		// Our active wave: XOR pairs act in the pair's wave (both sides
		// agree on the lower rank's local index); ring senders act in
		// their own local index's wave.
		wave := r.id % ppn
		if pow2 && dst < r.id {
			wave = dst % ppn
		}
		recvDone := false
		for wv := 0; wv < ppn; wv++ {
			if err := r.Barrier(); err != nil {
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
			if wv != wave || !sendOK {
				continue
			}
			if pow2 && r.world.nodeOf(dst) == r.Node() {
				// Intra-node pair: both directions would share the
				// node's GPU-link calendar, so they go one at a time (a
				// blocking send returns only once every fabric booking of
				// the transfer has been placed).
				if r.id < dst {
					if err := r.send(dst, tag, sb); err != nil {
						return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
					}
					if err := r.Wait(rreq); err != nil {
						return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
					}
				} else {
					if err := r.Wait(rreq); err != nil {
						return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
					}
					if err := r.send(dst, tag, sb); err != nil {
						return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
					}
				}
				recvDone = true
				continue
			}
			sreq, err := r.isend(dst, tag, sb, nil)
			if err != nil {
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
			if pow2 {
				// The peer acts in this same wave; wait the whole
				// exchange here so every booking lands inside it.
				if err := r.Waitall(sreq, rreq); err != nil {
					return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
				}
				recvDone = true
			} else if err := r.Wait(sreq); err != nil {
				// Ring: our source may act in a later wave — waiting
				// for the receive here would stall its barrier. Only
				// the send must complete inside the wave.
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
		}
		if !recvDone && rreq != nil {
			if err := r.Wait(rreq); err != nil {
				return fmt.Errorf("mpi: alltoallv step %d: %w", step, err)
			}
		}
	}
	return nil
}

// sumFloat32 adds src into dst element-wise (float32), charging the GPU a
// memory-bound vector-add kernel (reads two floats, writes one per
// element). dst's content epoch is bumped, invalidating cached
// compressed forms.
func sumFloat32(r *Rank, dst *gpusim.Buffer, src []byte) {
	n := dst.Len() / 4
	r.Dev.LaunchKernel(r.Clock, r.Dev.Stream(0), gpusim.KernelSpec{
		Blocks:         r.Dev.Spec.SMs,
		Bytes:          12 * n,
		ThroughputGbps: r.Dev.Spec.MemBWGBps * 8, // GB/s -> Gb/s
	})
	r.Dev.StreamSync(r.Clock, r.Dev.Stream(0))
	addFloat32s(dst.Data[:4*n], src[:4*n])
	dst.MarkDirty()
}

// addFloat32s is the host side of sumFloat32: dst[i] += src[i] over the
// little-endian float32 words of two equal-length slices. Each word is the
// statement of the one-word-at-a-time loop kept in sum_test.go as the
// oracle — load dst, load src, one IEEE addition, store — so the bits are
// that loop's: NaN payloads, signed zeros, denormals. Four words per
// iteration over re-sliced 16-byte windows is what lets the compiler drop
// the per-word bounds checks: 2.4x that loop on 4 MiB with no unsafe.
func addFloat32s(dst, src []byte) {
	for len(dst) >= 16 && len(src) >= 16 {
		d, s := dst[:16], src[:16]
		storeF32(d[0:], loadF32(d[0:])+loadF32(s[0:]))
		storeF32(d[4:], loadF32(d[4:])+loadF32(s[4:]))
		storeF32(d[8:], loadF32(d[8:])+loadF32(s[8:]))
		storeF32(d[12:], loadF32(d[12:])+loadF32(s[12:]))
		dst, src = dst[16:], src[16:]
	}
	for len(dst) >= 4 && len(src) >= 4 {
		storeF32(dst, loadF32(dst)+loadF32(src))
		dst, src = dst[4:], src[4:]
	}
}

func loadF32(b []byte) float32     { return math.Float32frombits(binary.LittleEndian.Uint32(b)) }
func storeF32(b []byte, f float32) { binary.LittleEndian.PutUint32(b, math.Float32bits(f)) }

// BcastScatterAllgather is the bandwidth-optimal large-message broadcast
// MVAPICH2 switches to above its binomial-tree threshold: the message is
// scattered into per-rank blocks from the root, then ring-allgathered.
// Each stage rides the compression-enabled point-to-point path. Messages
// whose size is not divisible into aligned blocks fall back to the
// binomial tree.
func (r *Rank) BcastScatterAllgather(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.bcastScatterAllgather(root, buf) })
}

func (r *Rank) bcastScatterAllgather(root int, buf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	// Scatter's block layout has no shrunk form; once the world has
	// shrunk around failures, fall back to the (view-aware) binomial tree.
	if w := r.world; w.shrinkEnabled() && len(w.doomed) > 0 {
		return r.bcast(root, buf)
	}
	size := r.Size()
	if size == 1 {
		return nil
	}
	if buf.Len()%(4*size) != 0 {
		return r.bcast(root, buf)
	}
	blk := buf.Len() / size
	mine := buf.Slice(r.id*blk, blk)
	var src *gpusim.Buffer
	if r.id == root {
		src = buf
	} else {
		src = buf.Slice(0, 0)
	}
	if err := r.scatter(root, src, mine); err != nil {
		return fmt.Errorf("mpi: bcast-sag scatter: %w", err)
	}
	if err := r.allgather(mine, buf); err != nil {
		return fmt.Errorf("mpi: bcast-sag allgather: %w", err)
	}
	return nil
}

// BcastHierarchical is MVAPICH2's two-level broadcast: the message first
// moves between node leaders over the network (binomial tree among the
// first rank of each node), then fans out inside each node over the fast
// intra-node link. With compression enabled, the inter-node stage moves
// compressed payloads while the NVLink/PCIe stage can stay uncompressed
// (pair it with Config.Dynamic for exactly that split).
//
// Under a shrunken or rerouted view the topology self-heals instead of
// degrading to the flat tree: each node re-elects its lowest surviving
// rank as leader, nodes with no survivor drop out of the inter-node
// tree, and the leader order follows the view (route order after a link
// recovery). On the identity view this reproduces the historical
// leader = first-rank-per-node schedule exactly.
func (r *Rank) BcastHierarchical(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error { return r.bcastHierarchical(root, buf) })
}

func (r *Rank) bcastHierarchical(root int, buf *gpusim.Buffer) error {
	if err := r.checkPeer(root); err != nil {
		return err
	}
	w := r.world
	v, err := r.collView()
	if err != nil {
		return err
	}
	if v.vof(root) < 0 {
		return w.peerError(root)
	}
	ppn := w.ppn
	if ppn == 1 || w.nodes == 1 || v.size == 1 {
		return r.bcast(root, buf)
	}
	tag := r.collTag(baseBcast)

	// Leader (re-)election over the view: the first surviving rank of a
	// node in view order leads it (view order within a node is ascending
	// rank order, so this is the lowest live rank); leaderless nodes drop
	// out. liveNodes fixes the inter-node tree's node order.
	nodeIdx, leaderOf, liveNodes := w.layout(v).electLeaders()
	rootNode := w.nodeOf(root)
	myNode := r.Node()
	leader := leaderOf[myNode]
	onRootNode := myNode == rootNode

	// Stage 0: move the message to the root node's leader if needed.
	if onRootNode && root != leader {
		if r.id == root {
			if err := r.send(leader, tag, buf); err != nil {
				return err
			}
		} else if r.id == leader {
			if err := r.recv(root, tag, buf); err != nil {
				return err
			}
		}
	}

	// Stage 1: binomial tree among the surviving node leaders.
	if r.id == leader {
		nodes := len(liveNodes)
		rootIdx := nodeIdx[rootNode]
		parent, children := binomial((nodeIdx[myNode]-rootIdx+nodes)%nodes, nodes)
		if parent >= 0 {
			if err := r.recv(leaderOf[liveNodes[(parent+rootIdx)%nodes]], tag, buf); err != nil {
				return err
			}
		}
		for i := len(children) - 1; i >= 0; i-- {
			if err := r.send(leaderOf[liveNodes[(children[i]+rootIdx)%nodes]], tag, buf); err != nil {
				return err
			}
		}
	}

	// Stage 2: node-local fan-out from the leader to the node's surviving
	// ranks (view order within a node is ascending rank order).
	if r.id == leader {
		for vr := 0; vr < v.size; vr++ {
			peer := v.real(vr)
			if w.nodeOf(peer) != myNode || peer == leader || (onRootNode && peer == root) {
				continue
			}
			if err := r.send(peer, tag, buf); err != nil {
				return err
			}
		}
		return nil
	}
	if onRootNode && r.id == root {
		return nil
	}
	return r.recv(leader, tag, buf)
}

// ringBlocks partitions n bytes of float32 data into size contiguous
// 4-byte-aligned blocks, as even as possible: block i covers bytes
// [offs[i], offs[i+1]), with the first n/4 mod size blocks one word
// larger. All ranks compute the identical partition, so senders and
// receivers agree on every block's extent without negotiation.
func ringBlocks(n, size int) []int {
	words := n / 4
	base, rem := words/size, words%size
	offs := make([]int, size+1)
	for i := 0; i < size; i++ {
		w := base
		if i < rem {
			w++
		}
		offs[i+1] = offs[i] + 4*w
	}
	return offs
}

// ringChunk normalizes the pipeline chunk granularity for a ring step:
// word-aligned, and 0 (single chunk) when pipelining is off or the
// configured chunk cannot hold a word.
func ringChunk(chunkBytes int) int {
	chunkBytes &^= 3
	if chunkBytes < 4 {
		return 0
	}
	return chunkBytes
}

// ringChunkSpans splits a block of n bytes into pipeline chunk spans
// ([offset, length] pairs); one span when chunking is off.
func ringChunkSpans(n, chunk int) [][2]int {
	if chunk <= 0 || n <= chunk {
		return [][2]int{{0, n}}
	}
	var spans [][2]int
	for off := 0; off < n; off += chunk {
		c := chunk
		if off+c > n {
			c = n - off
		}
		spans = append(spans, [2]int{off, c})
	}
	return spans
}

// ringReduceStep runs one reduce-scatter step: the send block streams to
// the right neighbor chunk by chunk while the block arriving from the left
// is reduced into place chunk by chunk — chunk k's sumFloat32 overlaps
// chunk k+1's transfer and decompression, the overlap a whole-block
// sendrecv serializes away. Sender and receiver derive identical chunk
// boundaries from the world-uniform engine config, so the per-chunk
// messages pair up by FIFO matching. src is the buffer the send block is
// compressed from — recvBuf, except at step 0 where the caller may pass
// the untouched sendBuf (identical bytes, stable epoch) so warm iterations
// hit the compress-once cache. sendFirst selects the blocking ring's wait
// order — the sends drain before anything is reduced, as in sendrecv —
// instead of receive, reduce, then send.
func (r *Rank) ringReduceStep(right, left, tag int, src, recvBuf *gpusim.Buffer, send, recv span, scratch *gpusim.Buffer, chunk int, sendFirst bool) error {
	rspans := ringChunkSpans(recv.n, chunk)
	sspans := ringChunkSpans(send.n, chunk)
	rreqs := make([]*Request, len(rspans))
	for c, sp := range rspans {
		req, err := r.irecv(left, tag, scratch.Slice(sp[0], sp[1]))
		if err != nil {
			return err
		}
		rreqs[c] = req
	}
	sreqs := make([]*Request, len(sspans))
	for c, sp := range sspans {
		req, err := r.isend(right, tag, src.Slice(send.off+sp[0], sp[1]), nil)
		if err != nil {
			return err
		}
		sreqs[c] = req
	}
	if sendFirst {
		if err := r.Waitall(sreqs...); err != nil {
			return err
		}
	}
	for c, sp := range rspans {
		if err := r.Wait(rreqs[c]); err != nil {
			return err
		}
		sumFloat32(r, recvBuf.Slice(recv.off+sp[0], sp[1]), scratch.Data[sp[0]:sp[0]+sp[1]])
	}
	if len(rspans) > 1 {
		r.Engine.NotePipelinedChunks(len(rspans))
	}
	return r.Waitall(sreqs...)
}
