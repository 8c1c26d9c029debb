package sched

import "math/bits"

// Barrier is the dissemination barrier: round k sends a one-byte token to
// the rank 2^k ahead and takes one from the rank 2^k behind.
func Barrier(l Layout) []Step {
	steps := make([]Step, 0, bits.Len(uint(l.Size-1)))
	for k := 1; k < l.Size; k <<= 1 {
		steps = append(steps, Step{Op: OpSendrecv, Tag: BaseBarrier,
			To: l.Real((l.VRank + k) % l.Size), From: l.Real((l.VRank - k + l.Size) % l.Size),
			Send: Span{N: 1, Buf: InSend}, Recv: Span{N: 1}})
	}
	return steps
}

// Bcast is the binomial broadcast of the root's span src into every other
// rank's recvBuf: one tree-relay step per rank.
func Bcast(l Layout, root int, src Span) []Step {
	if l.Size == 1 {
		return nil
	}
	vroot := l.Vof(root)
	at := func(x int) int { return l.Real((x + vroot) % l.Size) }
	parent, children := binomial((l.VRank-vroot+l.Size)%l.Size, l.Size)
	st := Step{Op: OpTree, From: -1, Send: src, Recv: Span{N: src.N}, Tag: BaseBcast}
	if parent >= 0 {
		st.From = at(parent)
	}
	for i := len(children) - 1; i >= 0; i-- {
		st.Peers = append(st.Peers, at(children[i]))
	}
	return []Step{st}
}

// BcastHier is MVAPICH2's two-level broadcast of n bytes: the root hands
// the message to its node's leader, the leaders run a binomial tree over
// the network, and each leader fans it out inside its node. Each hop is a
// whole-message send of what the rank holds — the root its sendBuf,
// everyone else what it received — so a leader's repeated sends hit the
// compress-once cache. Under a shrunken or rerouted view each node elects
// its first surviving rank in view order, nodes with no survivor drop out
// of the inter-node tree, and the leader order follows the view. Worlds
// with no hierarchy (or a one-rank view) take the flat tree.
func BcastHier(l Layout, root, n int) []Step {
	if l.PPN == 1 || l.Nodes == 1 || l.Size == 1 {
		return Bcast(l, root, Span{N: n, Buf: InSend})
	}
	nodeIdx, leaderOf, liveNodes := l.electLeaders()
	me := l.Me()
	rootNode, myNode := root/l.PPN, me/l.PPN
	leader := leaderOf[myNode]
	onRootNode := myNode == rootNode
	held := Span{N: n}
	if me == root {
		held.Buf = InSend
	}
	var steps []Step
	send := func(to int) { steps = append(steps, Step{Op: OpSend, To: to, Send: held, Tag: BaseBcast}) }
	recv := func(from int) { steps = append(steps, Step{Op: OpRecv, From: from, Recv: Span{N: n}, Tag: BaseBcast}) }

	// Stage 0: the message moves to the root node's leader; every other
	// non-leader takes it from its own leader in stage 2.
	if me != leader {
		if me == root {
			send(leader)
		} else {
			recv(leader)
		}
		return steps
	}
	if onRootNode && root != leader {
		recv(root)
	}
	// Stage 1: binomial tree among the surviving node leaders.
	nodes, rootIdx := len(liveNodes), nodeIdx[rootNode]
	at := func(i int) int { return leaderOf[liveNodes[(i+rootIdx)%nodes]] }
	parent, children := binomial((nodeIdx[myNode]-rootIdx+nodes)%nodes, nodes)
	if parent >= 0 {
		recv(at(parent))
	}
	for i := len(children) - 1; i >= 0; i-- {
		send(at(children[i]))
	}
	// Stage 2: node-local fan-out to the node's surviving ranks.
	for _, p := range l.nodeMates(myNode, leader) {
		if !(onRootNode && p == root) {
			send(p)
		}
	}
	return steps
}

// Allgather copies the rank's own blk-byte block into place — from
// sendBuf, or inPlace from where it sits in recvBuf — then relays it
// around the view compressed once. Blocks are world-rank indexed, so a
// shrunken view leaves the fated ranks' blocks untouched. The compression
// reads a device-resident sendBuf (same bytes, but a stable epoch that
// hits the compress-once cache when warm).
func Allgather(l Layout, blk int, inPlace bool) []Step {
	own := Span{Off: l.Me() * blk, N: blk}
	mine := Span{N: blk, Buf: InSend}
	if inPlace {
		mine = own
	}
	steps := []Step{{Op: OpCopy, Send: mine, Recv: own, Charge: true}}
	if l.Size == 1 {
		return steps
	}
	hops := make([]Span, l.Size-1)
	for s := range hops {
		hops[s] = Span{Off: l.Real((l.VRank-s-1+l.Size)%l.Size) * blk, N: blk}
	}
	return append(steps, Step{Op: OpRelay, To: l.Real((l.VRank + 1) % l.Size), From: l.Real((l.VRank - 1 + l.Size) % l.Size),
		Send: own, FromSend: !inPlace, Mirror: own.Off, Relay: hops, Tag: BaseAllgather})
}

// AllgatherHier is the two-level allgather: node members deposit their
// blocks with the node leader, the leaders relay whole node superblocks
// around the network ring compressed once (nodes-1 messages per leader
// instead of ranks-1 per rank), and each leader hands the assembled
// vector back to its node. It needs every node's world-indexed region
// contiguous and fully populated, so shrunken or rerouted views (and
// worlds with no hierarchy) take the flat ring.
func AllgatherHier(l Layout, blk int) []Step {
	if l.PPN == 1 || l.Nodes == 1 || l.Live != nil || blk == 0 {
		return Allgather(l, blk, false)
	}
	me := l.Me()
	myNode := me / l.PPN
	leader := myNode * l.PPN // identity view: a node's first rank leads
	all := Span{N: l.Ranks * blk}
	steps := []Step{{Op: OpCopy, Send: Span{N: blk, Buf: InSend}, Recv: Span{Off: me * blk, N: blk}, Charge: true}}
	if me != leader {
		return append(steps,
			Step{Op: OpSend, To: leader, Send: Span{N: blk, Buf: InSend}, Tag: BaseGather},
			Step{Op: OpRecv, From: leader, Recv: all, Tag: BaseBcast})
	}
	for p := leader + 1; p < leader+l.PPN; p++ {
		steps = append(steps, Step{Op: OpRecv, From: p, Recv: Span{Off: p * blk, N: blk}, Tag: BaseGather})
	}
	nodes, nblk := l.Nodes, l.PPN*blk
	hops := make([]Span, nodes-1)
	for s := range hops {
		hops[s] = Span{Off: ((myNode - s - 1 + nodes) % nodes) * nblk, N: nblk}
	}
	steps = append(steps, Step{Op: OpRelay, To: ((myNode + 1) % nodes) * l.PPN, From: ((myNode - 1 + nodes) % nodes) * l.PPN,
		Send: Span{Off: myNode * nblk, N: nblk}, Relay: hops, Tag: BaseAllgather})
	for p := leader + 1; p < leader+l.PPN; p++ {
		steps = append(steps, Step{Op: OpSend, To: p, Send: all, Tag: BaseBcast})
	}
	return steps
}

// BcastSAG is the bandwidth-optimal large-message broadcast MVAPICH2
// switches to above its binomial-tree threshold: the root scatters
// per-rank blocks, then the ring allgathers them in place. The blocks are
// world-indexed, so messages that do not split into word-aligned blocks,
// and views that lost ranks, take the binomial tree.
func BcastSAG(l Layout, root, n int) []Step {
	if l.Size == 1 {
		return nil
	}
	if l.Size < l.Ranks || n%(4*l.Ranks) != 0 {
		return Bcast(l, root, Span{N: n, Buf: InSend})
	}
	blk := n / l.Ranks
	return append(Scatter(l, root, blk, true), Allgather(l, blk, true)...)
}

// Gather: the root posts a receive from every other rank, copying its own
// block on the spot, in rank order, then waits them all.
func Gather(l Layout, root, blk int) []Step {
	mine := Span{N: blk, Buf: InSend}
	if l.Me() != root {
		return []Step{{Op: OpSend, To: root, Send: mine, Tag: BaseGather}}
	}
	fan := make([]Step, 0, l.Ranks)
	for p := 0; p < l.Ranks; p++ {
		into := Span{Off: p * blk, N: blk}
		switch {
		case l.Skips(p):
		case p == root:
			fan = append(fan, Step{Op: OpCopy, Send: mine, Recv: into})
		default:
			fan = append(fan, Step{Op: OpRecv, From: p, Recv: into})
		}
	}
	return []Step{{Op: OpFan, Fan: fan, Tag: BaseGather}}
}

// Scatter: the root posts a send to every other rank, copying its own
// block on the spot, in rank order, then waits them all. Rank p's block
// lands in its blk-byte recvBuf, or — inPlace — at p*blk of it.
func Scatter(l Layout, root, blk int, inPlace bool) []Step {
	into := func(p int) Span {
		if inPlace {
			return Span{Off: p * blk, N: blk}
		}
		return Span{N: blk}
	}
	if me := l.Me(); me != root {
		return []Step{{Op: OpRecv, From: root, Recv: into(me), Tag: BaseScatter}}
	}
	fan := make([]Step, 0, l.Ranks)
	for p := 0; p < l.Ranks; p++ {
		from := Span{Off: p * blk, N: blk, Buf: InSend}
		switch {
		case l.Skips(p):
		case p == root:
			fan = append(fan, Step{Op: OpCopy, Send: from, Recv: into(p)})
		default:
			fan = append(fan, Step{Op: OpSend, To: p, Send: from})
		}
	}
	return []Step{{Op: OpFan, Fan: fan, Tag: BaseScatter}}
}

// Reduce is the binomial reduction: interior ranks accumulate in scratch,
// adding their children's vectors nearest first, and send the sum to their
// parent; the root copies it out. Leaves (odd relative rank) send sendBuf
// itself, so a tracked, unchanged buffer reuses its cached compressed form
// across calls.
func Reduce(l Layout, root, n int) []Step {
	vroot := l.Vof(root)
	at := func(x int) int { return l.Real((x + vroot) % l.Size) }
	rel := (l.VRank - vroot + l.Size) % l.Size
	parent, children := binomial(rel, l.Size)
	mine, acc := Span{N: n, Buf: InSend}, Span{N: n, Buf: InAcc}
	if rel&1 == 1 {
		return []Step{{Op: OpSend, To: at(parent), Send: mine, Tag: BaseReduce}}
	}
	steps := []Step{{Op: OpCopy, Send: mine, Recv: acc}}
	for _, c := range children {
		steps = append(steps, Step{Op: OpReduce, To: -1, From: at(c), Recv: acc, Tag: BaseReduce})
	}
	if parent >= 0 {
		return append(steps, Step{Op: OpSend, To: at(parent), Send: acc, Tag: BaseReduce})
	}
	return append(steps, Step{Op: OpCopy, Send: acc, Recv: Span{N: n}})
}

// Alltoall is the pairwise exchange of blk-byte blocks: rank i's j-th send
// block lands in rank j's i-th receive block.
func Alltoall(l Layout, blk int) []Step {
	block := func(b BufID) func(p int) Span { return func(p int) Span { return Span{Off: p * blk, N: blk, Buf: b} } }
	out, in := block(InSend), block(InRecv)
	return l.exchanges([]Step{{Op: OpCopy, Send: out(l.Me()), Recv: in(l.Me())}}, OpSendrecv, BaseAlltoall, out, in)
}

// exchanges appends the P-1 pairwise-exchange steps of Alltoall and
// Alltoallv: at step s a power-of-two world pairs ranks by XOR, any other
// size runs the ring (send to rank+s, receive from rank-s). Each step sends
// out(dst) and receives in(src); a skipped peer becomes -1, so every live
// rank still runs each step and Alltoallv's barrier waves stay aligned.
func (l Layout) exchanges(steps []Step, op Op, tag int, out, in func(p int) Span) []Step {
	me, P := l.Me(), l.Ranks
	for s := 1; s < P; s++ {
		dst, src := (me+s)%P, (me-s+P)%P
		if P&(P-1) == 0 {
			dst, src = me^s, me^s
		}
		st := Step{Op: op, To: dst, From: src, Send: out(dst), Recv: in(src), Tag: tag}
		if l.Skips(dst) {
			st.To = -1
		}
		if l.Skips(src) {
			st.From = -1
		}
		steps = append(steps, st)
	}
	return steps
}

// Alltoallv copies a non-empty own segment, then runs each exchange step
// in barrier waves: rank i sends sc[j] bytes at sd[j] of sendBuf to rank j
// and receives rc[j] bytes at rd[j] of recvBuf from it.
func Alltoallv(l Layout, sc, sd, rc, rd []int) []Step {
	out := func(p int) Span { return Span{Off: sd[p], N: sc[p], Buf: InSend} }
	in := func(p int) Span { return Span{Off: rd[p], N: rc[p]} }
	var steps []Step
	if me := l.Me(); sc[me] > 0 {
		steps = append(steps, Step{Op: OpCopy, Send: out(me), Recv: in(me)})
	}
	return l.exchanges(steps, OpAlltoallv, BaseAlltoallv, out, in)
}
