// Package netsim simulates the cluster interconnect fabric: per-node
// InfiniBand host channel adapters for inter-node traffic and the
// intra-node GPU link (NVLink or PCIe) for traffic within a node.
//
// Transfers carry real bytes; only time is simulated. Links serialize:
// concurrent transfers sharing an adapter queue behind each other, which
// reproduces the congestion behavior collectives see at scale.
package netsim

import (
	"fmt"
	"sync/atomic"

	"mpicomp/internal/faults"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// Fabric is the interconnect of one simulated cluster run.
type Fabric struct {
	cluster hw.Cluster
	nodes   int

	// inj, when non-nil, injects transient link-bandwidth degradation
	// into Transfer. Drop/corruption faults are injected one layer up
	// (the MPI transport), where retransmission lives; the fabric only
	// models the physical-layer symptom it can express: slow links.
	inj *faults.Injector

	// Per-node inter-node adapter calendars, one per direction. Egress
	// and ingress serialize independently (full-duplex HCA); calendar
	// allocation books transfers by simulated ready time, not call order.
	egress  []*simtime.Calendar
	ingress []*simtime.Calendar
	// Per-node intra-node link calendar (NVLink/PCIe switch).
	intra []*simtime.Calendar

	// Traffic accounting (INAM-style monitoring).
	egBytes, inBytes, intraBytes []*atomic.Int64
	egMsgs, inMsgs, intraMsgs    []*atomic.Int64
	// Control-plane accounting: RTS/CTS/ack/NACK packets per node. A
	// retry storm (fault injection) shows up here long before it moves
	// the byte counters, so the watchdog/chaos harness reads these.
	ctrlSent, ctrlRecv []*atomic.Int64
}

// NewFabric builds the fabric for nodes nodes of the given cluster.
func NewFabric(cluster hw.Cluster, nodes int) *Fabric {
	f := &Fabric{cluster: cluster, nodes: nodes}
	for i := 0; i < nodes; i++ {
		f.egress = append(f.egress, simtime.NewCalendar())
		f.ingress = append(f.ingress, simtime.NewCalendar())
		f.intra = append(f.intra, simtime.NewCalendar())
		f.egBytes = append(f.egBytes, new(atomic.Int64))
		f.inBytes = append(f.inBytes, new(atomic.Int64))
		f.intraBytes = append(f.intraBytes, new(atomic.Int64))
		f.egMsgs = append(f.egMsgs, new(atomic.Int64))
		f.inMsgs = append(f.inMsgs, new(atomic.Int64))
		f.intraMsgs = append(f.intraMsgs, new(atomic.Int64))
		f.ctrlSent = append(f.ctrlSent, new(atomic.Int64))
		f.ctrlRecv = append(f.ctrlRecv, new(atomic.Int64))
	}
	return f
}

// Cluster returns the hardware description the fabric was built from.
func (f *Fabric) Cluster() hw.Cluster { return f.cluster }

// SetFaults installs a fault injector (nil disables injection). The
// injector only affects transfer timing here; payload faults are the
// transport's concern.
func (f *Fabric) SetFaults(inj *faults.Injector) {
	f.inj = inj
}

// Faults returns the installed injector (possibly nil).
func (f *Fabric) Faults() *faults.Injector { return f.inj }

// Nodes returns the node count.
func (f *Fabric) Nodes() int { return f.nodes }

// LinkFor returns the link used between two nodes (the intra-node link if
// they are equal, the network otherwise).
func (f *Fabric) LinkFor(srcNode, dstNode int) hw.Link {
	if srcNode == dstNode {
		return f.cluster.IntraNode
	}
	return f.cluster.InterNode
}

// TopoClass classifies a world's node grouping for collective algorithm
// selection: a tuner keys its tables on this (plus size and rank count)
// because the winning schedule differs between a flat rank space and one
// where intra-node edges are an order of magnitude faster.
type TopoClass string

const (
	// TopoSingleNode: every edge rides the intra-node link.
	TopoSingleNode TopoClass = "single-node"
	// TopoFlat: one rank per node — every edge rides the network, so
	// two-level schedules have nothing to exploit.
	TopoFlat TopoClass = "flat"
	// TopoHierarchical: multiple nodes with multiple ranks each — the
	// intra/inter bandwidth gap makes leader-based schedules viable.
	TopoHierarchical TopoClass = "hierarchical"
)

// ClassifyTopo maps a (nodes, ranks-per-node) shape to its TopoClass.
func ClassifyTopo(nodes, ppn int) TopoClass {
	switch {
	case nodes <= 1:
		return TopoSingleNode
	case ppn <= 1:
		return TopoFlat
	default:
		return TopoHierarchical
	}
}

// TopoClass classifies this fabric's shape given the ranks-per-node the
// runtime places on it.
func (f *Fabric) TopoClass(ppn int) TopoClass { return ClassifyTopo(f.nodes, ppn) }

func (f *Fabric) checkNode(n int) {
	if n < 0 || n >= f.nodes {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", n, f.nodes))
	}
}

// Transfer moves n bytes from srcNode to dstNode starting no earlier than
// ready, and returns the arrival time of the last byte. The transfer
// reserves the shared link resources, so concurrent transfers serialize.
func (f *Fabric) Transfer(srcNode, dstNode int, ready simtime.Time, n int) simtime.Time {
	f.checkNode(srcNode)
	f.checkNode(dstNode)
	link := f.LinkFor(srcNode, dstNode)
	ser := link.TransferTime(n)
	// Transient degradation stretches serialization: a link running at
	// factor m of nominal bandwidth takes 1/m as long to drain the bytes.
	if m := f.inj.BandwidthFactor(srcNode, dstNode, ready); m > 0 && m < 1 {
		ser = simtime.Duration(float64(ser) / m)
	}
	if srcNode == dstNode {
		// Intra-node: one shared GPU-link reservation.
		f.intraBytes[srcNode].Add(int64(n))
		f.intraMsgs[srcNode].Add(1)
		_, end := f.intra[srcNode].Reserve(ready.Add(link.PerMsgOverhead), ser)
		return end.Add(link.Latency)
	}
	f.egBytes[srcNode].Add(int64(n))
	f.egMsgs[srcNode].Add(1)
	f.inBytes[dstNode].Add(int64(n))
	f.inMsgs[dstNode].Add(1)
	// Inter-node: serialize on the sender's egress; the receiver's
	// ingress adapter serializes the same bytes starting when the
	// wavefront (first byte) arrives.
	egStart, egEnd := f.egress[srcNode].Reserve(ready.Add(link.PerMsgOverhead), ser)
	wavefront := egStart.Add(link.Latency)
	_, inEnd := f.ingress[dstNode].Reserve(wavefront, ser)
	return simtime.Max(egEnd.Add(link.Latency), inEnd)
}

// ControlMessage models a small control packet (RTS/CTS/ack): it pays
// latency and the per-message overhead but no bandwidth reservation, so
// handshakes do not artificially congest the data path.
func (f *Fabric) ControlMessage(srcNode, dstNode int, ready simtime.Time) simtime.Time {
	f.checkNode(srcNode)
	f.checkNode(dstNode)
	f.ctrlSent[srcNode].Add(1)
	f.ctrlRecv[dstNode].Add(1)
	link := f.LinkFor(srcNode, dstNode)
	return ready.Add(link.PerMsgOverhead + link.Latency)
}

// Reset clears all link timelines and traffic counters (between
// benchmark repetitions).
func (f *Fabric) Reset() {
	for i := 0; i < f.nodes; i++ {
		f.egress[i].Reset()
		f.ingress[i].Reset()
		f.intra[i].Reset()
		f.egBytes[i].Store(0)
		f.inBytes[i].Store(0)
		f.intraBytes[i].Store(0)
		f.egMsgs[i].Store(0)
		f.inMsgs[i].Store(0)
		f.intraMsgs[i].Store(0)
		f.ctrlSent[i].Store(0)
		f.ctrlRecv[i].Store(0)
	}
}

// LinkStats is the per-adapter traffic accounting an OSU-INAM-style
// monitor would expose (the paper's conclusion proposes driving the
// dynamic compression design from such a monitor).
type LinkStats struct {
	// Bytes and Messages carried by the adapter since the last Reset.
	Bytes    int64
	Messages int64
	// BusyUntil is the adapter's last booked instant, from which a
	// utilization over any horizon can be derived.
	BusyUntil simtime.Time
}

// NodeStats aggregates one node's adapters.
type NodeStats struct {
	Egress  LinkStats
	Ingress LinkStats
	Intra   LinkStats
	// ControlSent / ControlRecv count control packets (RTS/CTS/ack/NACK)
	// originated by / addressed to this node since the last Reset.
	ControlSent int64
	ControlRecv int64
}

// Stats returns per-node traffic counters.
func (f *Fabric) Stats() []NodeStats {
	out := make([]NodeStats, f.nodes)
	for i := 0; i < f.nodes; i++ {
		out[i] = NodeStats{
			Egress:      LinkStats{Bytes: f.egBytes[i].Load(), Messages: f.egMsgs[i].Load(), BusyUntil: f.egress[i].BusyUntil()},
			Ingress:     LinkStats{Bytes: f.inBytes[i].Load(), Messages: f.inMsgs[i].Load(), BusyUntil: f.ingress[i].BusyUntil()},
			Intra:       LinkStats{Bytes: f.intraBytes[i].Load(), Messages: f.intraMsgs[i].Load(), BusyUntil: f.intra[i].BusyUntil()},
			ControlSent: f.ctrlSent[i].Load(),
			ControlRecv: f.ctrlRecv[i].Load(),
		}
	}
	return out
}

// TotalInterNodeBytes sums traffic that crossed the network.
func (f *Fabric) TotalInterNodeBytes() int64 {
	var sum int64
	for i := 0; i < f.nodes; i++ {
		sum += f.egBytes[i].Load()
	}
	return sum
}

// RouteAround returns a node ordering that avoids placing fault-fated links
// between ring neighbors where the topology allows it — the order a
// self-healing collective applies to its ring on a retried attempt: a
// greedy nearest-healthy walk from node 0, falling back to the lowest-index
// remaining node when every remaining link from the current node is fated. It returns nil
// when no link faults are configured — the identity routing view — so
// fault-free runs pay nothing and stay bit-identical. The answer depends
// only on static fates, making every rebuilt route seed-deterministic.
func (f *Fabric) RouteAround() []int {
	inj := f.inj
	if inj == nil || !inj.Config().LinkFaults() {
		return nil
	}
	order := make([]int, 0, f.nodes)
	used := make([]bool, f.nodes)
	cur := 0
	order = append(order, 0)
	used[0] = true
	for len(order) < f.nodes {
		next := -1
		for n := 0; n < f.nodes; n++ {
			if !used[n] && !inj.LinkFaulted(cur, n) {
				next = n
				break
			}
		}
		if next < 0 {
			for n := 0; n < f.nodes; n++ {
				if !used[n] {
					next = n
					break
				}
			}
		}
		order = append(order, next)
		used[next] = true
		cur = next
	}
	return order
}
