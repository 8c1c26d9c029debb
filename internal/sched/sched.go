// Package sched holds the collectives as data: each collective (Barrier,
// Bcast, Reduce, Gather, Scatter, Allgather, Alltoall(v), the two-level and
// scatter-allgather broadcasts, every allreduce schedule) is a pure
// generator from a Layout to the Steps one rank runs. internal/mpi's one
// executor runs them; the symbolic checks read the same steps with no
// world and no clock. A step
// is one call of a shared transport step with its peers, its byte spans
// and its tag base. The blocking allreduce oracles are the same generators
// with pipelined off.
//
// Determinism: a schedule is a pure function of (view, node grouping,
// buffer lengths), and a pipelined schedule performs the exact per-element
// additions of its blocking oracle in the same order — so fault-free runs
// are bit-identical between the pair and across codec worker counts.
//
// The package imports no other package of the module.
package sched

import "slices"

// Op names the shared transport step a schedule step calls.
type Op uint8

const (
	OpReduce    Op = iota // ringReduceStep: send to To (a -1 peer is skipped), add what From sends into Recv
	OpExchange            // rdExchange with To: the whole vector both ways, added
	OpSendrecv            // send to To, receive from From into Recv; a -1 peer is skipped
	OpRelay               // relayRing: compress Send once, hop h lands in Relay[h]
	OpSend                // blocking send of the Send span to To
	OpRecv                // blocking receive from From into Recv
	OpTree                // treeRelay: the payload from From (the root compresses Send) goes on to Peers verbatim, then lands in Recv
	OpFan                 // every Fan step posted in order (a copy done on the spot), then all waited
	OpCopy                // Send copied into Recv
	OpAlltoallv           // alltoallvStep: every Fan exchange (an OpSendrecv) started up front, its bookings in barrier waves
)

// BufID names the buffer a span addresses.
type BufID uint8

const (
	InRecv BufID = iota // recvBuf (the allreduce schedules reduce in place here)
	InSend              // sendBuf
	InAcc               // scratch accumulator (the reduction tree's)
)

// Span is a byte range [Off, Off+N) of one buffer.
type Span struct {
	Off, N int
	Buf    BufID
}

// Step is one schedule step of one rank. To and From are world ranks.
type Step struct {
	Op         Op
	To, From   int
	Send, Recv Span
	Relay      []Span // OpRelay: where each hop's arrival lands
	Peers      []int  // OpTree: the children, served in this order
	Fan        []Step // OpFan: the sends, receives and copies posted together; OpAlltoallv: the exchanges
	Tag        int    // tag base (Base*)
	// FromSend compresses the send from sendBuf, which holds its bytes at
	// Send.Off-Mirror, when sendBuf is device-resident.
	FromSend  bool
	Mirror    int
	Chunked   bool // stream in pipeline chunks
	SendFirst bool // OpReduce: drain the sends before adding (the blocking order)
	// Charge bills an OpCopy from device memory as a D2D memcpy, after a
	// health check (the allgathers' own block); other local copies are free.
	Charge bool
}

// Tag bases, one per collective family. The executor spreads each base
// over (recovery epoch, operation index) contexts; these values are the
// historical fixed-tag order, so operation 0 at epoch 0 produces the
// pre-heal wire tags. The executor's own control plane takes the bases
// from NumBases on.
const (
	BaseBarrier = iota
	BaseBcast
	BaseAllgather
	BaseGather
	BaseScatter
	BaseReduce
	BaseAlltoall
	BaseAllreduce
	BaseAlltoallv
	NumBases
)

// View is the dense rank space a collective runs over: the full world
// normally, or the surviving subset once the world has shrunk (ULFM's
// MPIX_Comm_shrink). Generators work in view coordinates [0, Size) and
// translate to world ranks through Real; the identity view (Live == nil)
// is the world itself.
type View struct {
	Size  int
	VRank int
	Live  []int // nil: identity (the full world)
}

// Real maps a view coordinate to its world rank.
func (v View) Real(vr int) int {
	if v.Live == nil {
		return vr
	}
	return v.Live[vr]
}

// Peers lists the view's world ranks in view order.
func (v View) Peers() []int {
	ids := make([]int, v.Size)
	for i := range ids {
		ids[i] = v.Real(i)
	}
	return ids
}

// Vof maps a world rank to its view coordinate, -1 if excluded.
func (v View) Vof(world int) int {
	if v.Live == nil {
		return world
	}
	for i, id := range v.Live {
		if id == world {
			return i
		}
	}
	return -1
}

// Layout is what a generator reads about the world: the collective view,
// the node grouping (world rank / PPN is a rank's node), the world size,
// and the ranks the world-indexed collectives skip.
type Layout struct {
	View
	PPN, Nodes, Ranks int
	Gone              []int // world ranks skipped: the fated, once a self-heal shrank the world
}

// Me is this rank's world rank.
func (l Layout) Me() int { return l.Real(l.VRank) }

// Skips reports whether the world-indexed collectives skip world rank id.
func (l Layout) Skips(id int) bool { return slices.Contains(l.Gone, id) }

// Generator builds the steps view rank l.VRank runs to allreduce an n-byte
// vector, or nil when the schedule cannot partition n over the view
// (Allreduce then runs reduce+broadcast). It is called only for views of
// two or more ranks.
type Generator func(l Layout, n int, pipelined bool) []Step

// Allreduce is the steps of an allreduce under gen: nothing but the local
// copy on a view of one rank, reduce+broadcast where gen declines the
// vector (too few words to partition).
func Allreduce(gen Generator, l Layout, n int, pipelined bool) []Step {
	if l.Size < 2 {
		return inPlace(n, []Step{})
	}
	if steps := gen(l, n, pipelined); steps != nil {
		return steps
	}
	return ReduceBcast(l, n, pipelined)
}

// inPlace opens an allreduce schedule that reduces in recvBuf with the copy
// of the local contribution there; a declined schedule stays nil.
func inPlace(n int, steps []Step) []Step {
	if steps == nil {
		return nil
	}
	return append([]Step{{Op: OpCopy, Send: Span{N: n, Buf: InSend}, Recv: Span{N: n}}}, steps...)
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

// RingBlocks partitions n bytes of float32 data into size contiguous
// word-aligned blocks, as even as possible: block i covers bytes
// [offs[i], offs[i+1]), the first n/4 mod size blocks one word larger.
func RingBlocks(n, size int) []int {
	words := n / 4
	base, rem := words/size, words%size
	offs := make([]int, size+1)
	for i := range size {
		offs[i+1] = offs[i] + 4*base
		if i < rem {
			offs[i+1] += 4
		}
	}
	return offs
}

// ChunkSpans splits a block of n bytes into pipeline chunk spans
// ([offset, length] pairs); one span when chunking is off.
func ChunkSpans(n, chunk int) [][2]int {
	if chunk <= 0 || n <= chunk {
		return [][2]int{{0, n}}
	}
	spans := make([][2]int, 0, (n+chunk-1)/chunk)
	for off := 0; off < n; off += chunk {
		spans = append(spans, [2]int{off, min(chunk, n-off)})
	}
	return spans
}
