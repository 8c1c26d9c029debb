package mpi

// Topology-aware two-level collectives (MVAPICH2's leader-based schedules):
// each node elects a leader, node-local traffic rides the fast intra-node
// link, and only the leaders talk across the network. The allreduce member
// of the family is twoLevelSteps (schedule.go).

import "mpicomp/internal/gpusim"

// BcastHierarchical is MVAPICH2's two-level broadcast: the root hands the
// message to its node's leader, the leaders run a binomial tree over the
// network, and each leader fans it out inside its node over the fast
// intra-node link (Config.Dynamic can keep that stage uncompressed).
// Under a shrunken or rerouted view each node re-elects its first
// surviving rank in view order as leader, nodes with no survivor drop out
// of the inter-node tree, and the leader order follows the view.
func (r *Rank) BcastHierarchical(root int, buf *gpusim.Buffer) error {
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "bcast-hier", root: root, send: buf, recv: buf,
			steps: func(l layout) []step { return bcastHierSteps(l, root, buf.Len()) }})
	})
}

// bcastHierSteps: each hop is a whole-message send of what the rank holds —
// the root its sendBuf, everyone else what it received — so a leader's
// repeated sends hit the compress-once cache. Worlds with no hierarchy (or
// a one-rank view) take the flat tree.
func bcastHierSteps(l layout, root, n int) []step {
	if l.ppn == 1 || l.nodes == 1 || l.size == 1 {
		return bcastSteps(l, root, span{n: n, buf: inSend})
	}
	nodeIdx, leaderOf, liveNodes := l.electLeaders()
	me := l.me()
	rootNode, myNode := root/l.ppn, me/l.ppn
	leader := leaderOf[myNode]
	onRootNode := myNode == rootNode
	held := span{n: n}
	if me == root {
		held.buf = inSend
	}
	var steps []step
	send := func(to int) { steps = append(steps, step{op: opSend, to: to, send: held, tag: baseBcast}) }
	recv := func(from int) { steps = append(steps, step{op: opRecv, from: from, recv: span{n: n}, tag: baseBcast}) }

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

// AllgatherHierarchical is the two-level allgather: node members deposit
// their blocks with the node leader, the leaders relay whole node
// superblocks around the network ring compressed once, like the flat ring
// (nodes-1 messages per leader instead of ranks-1 per rank), and each
// leader hands the assembled vector back to its node.
func (r *Rank) AllgatherHierarchical(sendBuf, recvBuf *gpusim.Buffer) error {
	blk := sendBuf.Len()
	return r.healRun(func() error {
		return r.runSchedule(collective{name: "allgather-hier", root: noRoot, send: sendBuf, recv: recvBuf,
			bad:   lenErr(true, "allgather recv", recvBuf, r.Size()*blk),
			steps: func(l layout) []step { return allgatherHierSteps(l, blk) }})
	})
}

// allgatherHierSteps needs every node's world-indexed region contiguous and
// fully populated, so shrunken or rerouted views (and worlds with no
// hierarchy) take the flat ring.
func allgatherHierSteps(l layout, blk int) []step {
	if l.ppn == 1 || l.nodes == 1 || l.live != nil || blk == 0 {
		return allgatherSteps(l, blk, false)
	}
	me := l.me()
	myNode := me / l.ppn
	leader := myNode * l.ppn // identity view: a node's first rank leads
	all := span{n: l.ranks * blk}
	steps := []step{{op: opCopy, send: span{n: blk, buf: inSend}, recv: span{off: me * blk, n: blk}, charge: true}}
	if me != leader {
		return append(steps,
			step{op: opSend, to: leader, send: span{n: blk, buf: inSend}, tag: baseGather},
			step{op: opRecv, from: leader, recv: all, tag: baseBcast})
	}
	for p := leader + 1; p < leader+l.ppn; p++ {
		steps = append(steps, step{op: opRecv, from: p, recv: span{off: p * blk, n: blk}, tag: baseGather})
	}
	nodes, nblk := l.nodes, l.ppn*blk
	hops := make([]span, nodes-1)
	for s := range hops {
		hops[s] = span{off: ((myNode - s - 1 + nodes) % nodes) * nblk, n: nblk}
	}
	steps = append(steps, step{op: opRelay, to: ((myNode + 1) % nodes) * l.ppn, from: ((myNode - 1 + nodes) % nodes) * l.ppn,
		send: span{off: myNode * nblk, n: nblk}, relay: hops, tag: baseAllgather})
	for p := leader + 1; p < leader+l.ppn; p++ {
		steps = append(steps, step{op: opSend, to: p, send: all, tag: baseBcast})
	}
	return steps
}
