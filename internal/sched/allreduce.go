package sched

import (
	"math/bits"
	"slices"
)

// Ring is the ring: P-1 reduce-scatter steps, after which view rank i
// holds block i+1 fully reduced, then P-1 allgather hops. Pipelined, each
// reduce-scatter step adds the arriving block before its own send is
// waited, its first send compresses from sendBuf, and the allgather relays
// each block's compressed payload verbatim (one compression at its origin,
// one decompression per rank); blocking, every send drains before its add
// and every allgather hop recompresses.
func Ring(l Layout, n int, pipelined bool) []Step {
	size := l.Size
	if n/4 < size {
		return nil
	}
	offs := RingBlocks(n, size)
	block := func(i int) Span {
		i = (i%size + size) % size
		return Span{Off: offs[i], N: offs[i+1] - offs[i]}
	}
	right, left := l.Real((l.VRank+1)%size), l.Real((l.VRank-1+size)%size)
	steps := make([]Step, 0, 2*size-1)
	for s := 0; s < size-1; s++ {
		steps = append(steps, Step{Op: OpSendrecv, To: right, From: left, Tag: BaseAllreduce,
			Send: block(l.VRank - s), Recv: block(l.VRank - s - 1),
			FromSend: pipelined && s == 0, Add: true, RecvFirst: pipelined})
	}
	if pipelined {
		hops := make([]Span, size-1)
		for s := range hops {
			hops[s] = block(l.VRank - s)
		}
		return inPlace(n, append(steps, Step{Op: OpRelay, To: right, From: left, Tag: BaseAllreduce, Send: block(l.VRank + 1), Relay: hops}))
	}
	for s := 0; s < size-1; s++ {
		steps = append(steps, Step{Op: OpSendrecv, To: right, From: left, Tag: BaseAllreduce,
			Send: block(l.VRank + 1 - s), Recv: block(l.VRank - s)})
	}
	return inPlace(n, steps)
}

// RecursiveDoubling is recursive doubling over the view: n·log2 P bytes per
// rank against the ring's 2n(P-1)/P, but log2 P message latencies against
// 2(P-1).
func RecursiveDoubling(l Layout, n int, pipelined bool) []Step {
	return inPlace(n, rdRounds(l.Peers(), l.VRank, n, pipelined))
}

// rdRounds is recursive doubling over an explicit world-rank list (me this
// rank's index in it): the fold, then log2 pow2 full-vector exchanges at
// doubling distances, each adding the peer's vector into the one it sends
// (so the send is waited first). fromSend lets the first transmission
// compress from sendBuf; the two-level schedule runs these rounds among
// node leaders, whose vectors are already sums.
func rdRounds(peers []int, me, n int, fromSend bool) []Step {
	whole := Span{N: n}
	return folded(peers, me, n, fromSend, func(pow2, nr int, peer func(mask int) int) []Step {
		steps := make([]Step, 0, bits.TrailingZeros(uint(pow2)))
		for mask := 1; mask < pow2; mask <<= 1 {
			p := peer(mask)
			steps = append(steps, Step{Op: OpSendrecv, To: p, From: p, Send: whole, Recv: whole,
				Tag: BaseAllreduce, Add: true})
		}
		return steps
	})
}

// Rabenseifner is Rabenseifner's allreduce, the ring's 2n(P-1)/P bytes per
// rank in 2·log2 P rounds: a reduce-scatter by recursive halving — each
// round sends the half of the block range the rank gives up and adds the
// half it keeps — then an allgather by recursive doubling, the held range
// doubling each round by exchange with the partner holding the adjacent
// aligned range.
func Rabenseifner(l Layout, n int, pipelined bool) []Step {
	if n/4 < l.Size {
		return nil
	}
	pow2, _ := rdPow2(l.Size)
	offs := RingBlocks(n, pow2)
	blocks := func(lo, hi int) Span { return Span{Off: offs[lo], N: offs[hi] - offs[lo]} }
	return inPlace(n, folded(l.Peers(), l.VRank, n, pipelined, func(pow2, nr int, peer func(mask int) int) []Step {
		steps := make([]Step, 0, 2*bits.TrailingZeros(uint(pow2)))
		lo, hi := 0, pow2
		for mask := pow2 >> 1; mask > 0; mask >>= 1 {
			mid := (lo + hi) / 2
			keepLo, keepHi, sendLo, sendHi := lo, mid, mid, hi
			if nr&mask != 0 {
				keepLo, keepHi, sendLo, sendHi = mid, hi, lo, mid
			}
			p := peer(mask)
			steps = append(steps, Step{Op: OpSendrecv, To: p, From: p, Tag: BaseAllreduce,
				Send: blocks(sendLo, sendHi), Recv: blocks(keepLo, keepHi), Add: true, RecvFirst: true})
			lo, hi = keepLo, keepHi
		}
		for mask := 1; mask < pow2; mask <<= 1 {
			width := hi - lo
			plo, phi := hi, hi+width
			if nr&mask != 0 {
				plo, phi = lo-width, lo
			}
			p := peer(mask)
			steps = append(steps, Step{Op: OpSendrecv, To: p, From: p, Tag: BaseAllreduce,
				Send: blocks(lo, hi), Recv: blocks(plo, phi)})
			lo, hi = min(lo, plo), max(hi, phi)
		}
		return steps
	}))
}

// folded wraps a power-of-two core in the MPICH fold: with pow2 the largest
// power of two <= P and rem = P - pow2, the first 2*rem ranks pair up, and
// each odd member sends its whole vector — from sendBuf when fromSend — to
// its even neighbor, sits out the core and receives the result; survivors
// renumber into [0, pow2) through foldRank/unfoldRank. core gets pow2,
// this rank's core index and the world rank at a core distance. With
// fromSend, a rank outside the fold pairs also compresses its first core
// transmission from sendBuf: its vector is still the untouched
// contribution.
func folded(peers []int, me, n int, fromSend bool, core func(pow2, nr int, peer func(mask int) int) []Step) []Step {
	pow2, rem := rdPow2(len(peers))
	whole := Span{N: n}
	if me < 2*rem && me&1 == 1 {
		return []Step{
			{Op: OpSend, To: peers[me-1], Send: whole, Tag: BaseAllreduce, FromSend: fromSend},
			{Op: OpRecv, From: peers[me-1], Recv: whole, Tag: BaseAllreduce},
		}
	}
	nr := foldRank(me, rem)
	body := core(pow2, nr, func(mask int) int { return peers[unfoldRank(nr^mask, rem)] })
	if me >= 2*rem {
		if len(body) > 0 {
			body[0].FromSend = fromSend
		}
		return body
	}
	// The even member of a fold pair adds its partner's vector first and
	// hands it the result last.
	steps := make([]Step, 0, len(body)+2)
	steps = append(steps, Step{Op: OpRecv, From: peers[me+1], Recv: whole, Tag: BaseAllreduce, Add: true})
	steps = append(steps, body...)
	return append(steps, Step{Op: OpSend, To: peers[me+1], Send: whole, Tag: BaseAllreduce})
}

// TwoLevel is the topology-aware leader schedule: ranks send their vectors
// (sendBuf itself when device-resident) to their node leader, which adds
// them in view order; the leaders run recursive doubling across the
// network and fan the result back out, so each node's vector crosses the
// network log2(nodes) times instead of once per rank. Under a shrunken
// view each node re-elects a leader. Worlds with one node, or one rank per
// node, run flat recursive doubling.
func TwoLevel(l Layout, n int, pipelined bool) []Step {
	if l.PPN == 1 || l.Nodes == 1 {
		return RecursiveDoubling(l, n, pipelined)
	}
	nodeIdx, leaderOf, liveNodes := l.electLeaders()
	me := l.Me()
	myNode := me / l.PPN
	leader := leaderOf[myNode]
	whole := Span{N: n}
	if me != leader {
		return inPlace(n, []Step{
			{Op: OpSend, To: leader, Send: whole, Tag: BaseReduce, FromSend: true},
			{Op: OpRecv, From: leader, Recv: whole, Tag: BaseBcast},
		})
	}
	local := l.nodeMates(myNode, me)
	var steps []Step
	for _, p := range local {
		steps = append(steps, Step{Op: OpRecv, From: p, Recv: whole, Tag: BaseReduce, Add: true})
	}
	if len(liveNodes) > 1 {
		peers := make([]int, len(liveNodes))
		for i, nd := range liveNodes {
			peers[i] = leaderOf[nd]
		}
		steps = append(steps, rdRounds(peers, nodeIdx[myNode], n, false)...)
	}
	for _, p := range local {
		steps = append(steps, Step{Op: OpSend, To: p, Send: whole, Tag: BaseBcast})
	}
	return inPlace(n, steps)
}

// electLeaders walks the view in order and picks each node's first
// surviving rank as its leader — on the identity view simply each node's
// first rank. nodeIdx maps a node to its dense index in liveNodes (-1 when
// no rank of the node survives), leaderOf to its leader's world rank.
func (l Layout) electLeaders() (nodeIdx, leaderOf, liveNodes []int) {
	nodeIdx = make([]int, l.Nodes)
	leaderOf = make([]int, l.Nodes)
	for i := range nodeIdx {
		nodeIdx[i] = -1
	}
	for vr := 0; vr < l.Size; vr++ {
		id := l.Real(vr)
		if n := id / l.PPN; nodeIdx[n] < 0 {
			nodeIdx[n] = len(liveNodes)
			leaderOf[n] = id
			liveNodes = append(liveNodes, n)
		}
	}
	return nodeIdx, leaderOf, liveNodes
}

// nodeMates lists node's view members other than leader, in view order
// (within a node, ascending rank order).
func (l Layout) nodeMates(node, leader int) []int {
	var mates []int
	for vr := 0; vr < l.Size; vr++ {
		if p := l.Real(vr); p/l.PPN == node && p != leader {
			mates = append(mates, p)
		}
	}
	return mates
}

// ReduceBcast is reduce+broadcast: the reduction to the view's lowest
// world rank, then the broadcast of its recvBuf.
func ReduceBcast(l Layout, n int, _ bool) []Step {
	root := slices.Min(l.Peers())
	return append(Reduce(l, root, n), Bcast(l, root, Span{N: n})...)
}

// rdPow2 returns the largest power of two not exceeding size, and the
// remainder folded away by the preamble.
func rdPow2(size int) (pow2, rem int) {
	pow2 = 1 << max(bits.Len(uint(size))-1, 0)
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
