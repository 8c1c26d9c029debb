// Package omb ports the OSU Micro-Benchmark suite (OMB) workloads the
// paper uses — osu_latency, osu_bw, osu_bcast, osu_allgather — onto the
// simulated GPU-aware MPI runtime, including the paper's modification of
// OMB to transmit real datasets instead of dummy buffers (Section VI-B).
//
// Methodology mirrors OMB: warmup iterations are discarded, measured
// iterations are averaged; for collectives, the per-iteration latency is
// the slowest rank's (max) and ranks resynchronize with a barrier between
// iterations.
package omb

import (
	"fmt"
	"strings"
	"sync"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
)

// DataGen produces the float32 message contents for a given element count.
// OMB's default is dummy (constant) data; the paper's modified OMB draws
// from the Table III datasets.
type DataGen func(nFloats int) []float32

// DummyData is OMB's default constant-fill payload.
func DummyData(n int) []float32 { return datasets.Dummy(n) }

// DatasetData returns a DataGen drawing from a named Table III dataset.
func DatasetData(name string) (DataGen, error) {
	d, ok := datasets.ByName(name)
	if !ok {
		return nil, fmt.Errorf("omb: unknown dataset %q", name)
	}
	return func(n int) []float32 { return d.Values(n) }, nil
}

// DefaultSizes is the message-size sweep of the paper's point-to-point
// figures: 256 KB to 32 MB, doubling.
func DefaultSizes() []int {
	var sizes []int
	for s := 256 << 10; s <= 32<<20; s <<= 1 {
		sizes = append(sizes, s)
	}
	return sizes
}

// P2PResult is one row of a point-to-point sweep.
type P2PResult struct {
	Bytes int
	// Latency is the average one-way latency.
	Latency simtime.Duration
	// BandwidthGBps is payload bandwidth (osu_bw) or derived from
	// latency (osu_latency rows leave it zero).
	BandwidthGBps float64
	// Ratio is the average achieved compression ratio (1 = none).
	Ratio float64
}

// deviceBuffer wraps vals as a tracked device buffer. Tracking opts the
// buffer into the engine's compress-once cache: warm iterations that
// resend unchanged bytes reuse the first iteration's compressed payload,
// which is exactly the steady state an application sending a persistent
// buffer sees.
func deviceBuffer(r *mpi.Rank, vals []float32) *gpusim.Buffer {
	b := &gpusim.Buffer{Data: core.FloatsToBytes(nil, vals), Loc: gpusim.Device, Dev: r.Dev}
	return b.Track()
}

// emptyDeviceBuffer allocates a tracked all-zero device buffer.
func emptyDeviceBuffer(r *mpi.Rank, n int) *gpusim.Buffer {
	b := &gpusim.Buffer{Data: make([]byte, n), Loc: gpusim.Device, Dev: r.Dev}
	return b.Track()
}

// Latency runs osu_latency (ping-pong) between ranks 0 and 1 for each
// message size, with `warmup` discarded and `iters` measured iterations.
func Latency(w *mpi.World, sizes []int, warmup, iters int, gen DataGen) ([]P2PResult, error) {
	if w.Size() < 2 {
		return nil, fmt.Errorf("omb: latency needs at least 2 ranks")
	}
	if gen == nil {
		gen = DummyData
	}
	results := make([]P2PResult, 0, len(sizes))
	for _, size := range sizes {
		vals := gen(size / 4)
		var avg simtime.Duration
		w.ResetClocks()
		resetStats(w)
		_, err := w.Run(func(r *mpi.Rank) error {
			if r.ID() > 1 {
				return nil
			}
			buf := deviceBuffer(r, vals)
			scratch := emptyDeviceBuffer(r, size)
			var total simtime.Duration
			for it := 0; it < warmup+iters; it++ {
				start := r.Clock.Now()
				if r.ID() == 0 {
					if err := r.Send(1, 0, buf); err != nil {
						return err
					}
					if err := r.Recv(1, 0, scratch); err != nil {
						return err
					}
				} else {
					if err := r.Recv(0, 0, scratch); err != nil {
						return err
					}
					if err := r.Send(0, 0, buf); err != nil {
						return err
					}
				}
				if it >= warmup && r.ID() == 0 {
					total += r.Clock.Now().Sub(start) / 2
				}
			}
			if r.ID() == 0 {
				avg = total / simtime.Duration(iters)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		results = append(results, P2PResult{
			Bytes:   size,
			Latency: avg,
			Ratio:   avgRatio(w, 0, 1),
		})
	}
	return results, nil
}

// Bandwidth runs osu_bw between ranks 0 and 1: `window` back-to-back
// nonblocking sends per iteration, acknowledged by a small reply.
// extraPerMsg adds a fixed software overhead per message, used to model a
// less-optimized MPI library for the Figure 2(a) comparison.
func Bandwidth(w *mpi.World, sizes []int, warmup, iters, window int, extraPerMsg simtime.Duration) ([]P2PResult, error) {
	if w.Size() < 2 {
		return nil, fmt.Errorf("omb: bandwidth needs at least 2 ranks")
	}
	if window <= 0 {
		window = 64
	}
	results := make([]P2PResult, 0, len(sizes))
	for _, size := range sizes {
		var bw float64
		w.ResetClocks()
		_, err := w.Run(func(r *mpi.Rank) error {
			if r.ID() > 1 {
				return nil
			}
			bufs := make([]*gpusim.Buffer, window)
			for i := range bufs {
				bufs[i] = emptyDeviceBuffer(r, size)
			}
			ack := gpusim.NewHostBuffer(4)
			var measured simtime.Duration
			for it := 0; it < warmup+iters; it++ {
				start := r.Clock.Now()
				reqs := make([]*mpi.Request, window)
				var err error
				for i := 0; i < window; i++ {
					r.Clock.Advance(extraPerMsg)
					if r.ID() == 0 {
						reqs[i], err = r.Isend(1, i, bufs[i])
					} else {
						reqs[i], err = r.Irecv(0, i, bufs[i])
					}
					if err != nil {
						return err
					}
				}
				if err := r.Waitall(reqs...); err != nil {
					return err
				}
				if r.ID() == 0 {
					if err := r.Recv(1, 1000, ack); err != nil {
						return err
					}
				} else {
					if err := r.Send(0, 1000, ack); err != nil {
						return err
					}
				}
				if it >= warmup && r.ID() == 0 {
					measured += r.Clock.Now().Sub(start)
				}
			}
			if r.ID() == 0 {
				totalBytes := float64(size) * float64(window) * float64(iters)
				bw = totalBytes / measured.Seconds() / 1e9
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		results = append(results, P2PResult{Bytes: size, BandwidthGBps: bw})
	}
	return results, nil
}

// CollResult is one collective measurement.
type CollResult struct {
	Bytes   int
	Dataset string
	Latency simtime.Duration
	Ratio   float64
}

// collectiveLatency times one collective across all ranks: each rank
// runs setup once, allocating the buffers it will reuse for the whole
// measurement (the persistent-buffer pattern OMB and real applications
// follow — and what lets the compress-once cache serve warm
// iterations); then every iteration is barrier, run, measure the
// slowest rank, averaged over the measured iterations.
func collectiveLatency(w *mpi.World, warmup, iters int, setup func(r *mpi.Rank) (func() error, error)) (simtime.Duration, error) {
	if warmup+iters > maxIters {
		return 0, fmt.Errorf("omb: warmup+iters %d exceeds %d", warmup+iters, maxIters)
	}
	w.ResetClocks()
	resetStats(w)
	perIter := make([]simtime.Duration, warmup+iters)
	var mu chanMax
	_, errs := w.RunAll(func(r *mpi.Rank) error {
		op, err := setup(r)
		if err != nil {
			return err
		}
		for it := 0; it < warmup+iters; it++ {
			if err := r.Barrier(); err != nil {
				return err
			}
			start := r.Clock.Now()
			if err := op(); err != nil {
				return err
			}
			mu.update(it, r.Clock.Now().Sub(start))
		}
		return nil
	})
	for id, err := range errs {
		if err == nil {
			continue
		}
		// Under self-heal, a fated rank's own demise is expected — the
		// survivors rerouted around it and completed the measurement.
		if w.SelfHealing() && w.Fated(id) {
			continue
		}
		return 0, err
	}
	copy(perIter, mu.vals[:warmup+iters])
	var total simtime.Duration
	for _, d := range perIter[warmup:] {
		total += d
	}
	return total / simtime.Duration(iters), nil
}

// chanMax tracks the per-iteration maximum duration across ranks.
type chanMax struct {
	mu   sync.Mutex
	vals [maxIters]simtime.Duration
}

// maxIters bounds warmup+iters per measurement.
const maxIters = 1024

func (c *chanMax) update(it int, d simtime.Duration) {
	c.mu.Lock()
	if d > c.vals[it] {
		c.vals[it] = d
	}
	c.mu.Unlock()
}

// collective is one row of the collective benchmark table: the name
// ombrun's -bench flag selects it by, and the per-rank setup that
// allocates the buffers the rank reuses for the whole measurement and
// returns one iteration. data draws the message contents; draws of the
// same length are shared between ranks.
type collective struct {
	name  string
	setup setupFunc
}

type setupFunc func(r *mpi.Rank, bytes int, data DataGen) (func() error, error)

// bcastShape is osu_bcast: rank 0's buffer of `bytes` to everyone.
func bcastShape(call func(*mpi.Rank, int, *gpusim.Buffer) error) setupFunc {
	return func(r *mpi.Rank, bytes int, data DataGen) (func() error, error) {
		buf := deviceBuffer(r, data(bytes/4))
		return func() error { return call(r, 0, buf) }, nil
	}
}

// allgatherShape is osu_allgather: every rank contributes `bytes` and
// receives world*bytes.
func allgatherShape(call func(*mpi.Rank, *gpusim.Buffer, *gpusim.Buffer) error) setupFunc {
	return func(r *mpi.Rank, bytes int, data DataGen) (func() error, error) {
		send := deviceBuffer(r, data(bytes/4))
		recv := emptyDeviceBuffer(r, bytes*r.Size())
		return func() error { return call(r, send, recv) }, nil
	}
}

// allreduceShape is osu_allreduce: a float32 sum over `bytes` per rank.
func allreduceShape(call func(*mpi.Rank, *gpusim.Buffer, *gpusim.Buffer) error) setupFunc {
	return func(r *mpi.Rank, bytes int, data DataGen) (func() error, error) {
		send := deviceBuffer(r, data(bytes/4))
		recv := emptyDeviceBuffer(r, bytes)
		return func() error { return call(r, send, recv) }, nil
	}
}

// collectives is the table behind CollectiveLatency and ombrun's -bench
// names. The paper lists compressed Alltoall and Allreduce as future work;
// the rows past allgather-hier exercise them end to end. One row runs
// every allreduce schedule: the world's (Options.Allreduce, ombrun's
// -algo) picks it.
var collectives = []collective{
	{"bcast", bcastShape((*mpi.Rank).Bcast)},
	{"bcast-hier", bcastShape((*mpi.Rank).BcastHierarchical)},
	{"allgather", allgatherShape((*mpi.Rank).Allgather)},
	{"allgather-hier", allgatherShape((*mpi.Rank).AllgatherHierarchical)},
	{"allreduce", allreduceShape((*mpi.Rank).AllreduceSum)},
	{"reduce", allreduceShape(func(r *mpi.Rank, send, recv *gpusim.Buffer) error { return r.ReduceSum(0, send, recv) })},
	{"gather", func(r *mpi.Rank, bytes int, data DataGen) (func() error, error) {
		send := deviceBuffer(r, data(bytes/4))
		var recv *gpusim.Buffer
		if r.ID() == 0 {
			recv = emptyDeviceBuffer(r, bytes*r.Size())
		}
		return func() error { return r.Gather(0, send, recv) }, nil
	}},
	{"scatter", func(r *mpi.Rank, bytes int, data DataGen) (func() error, error) {
		var send *gpusim.Buffer
		if r.ID() == 0 {
			send = deviceBuffer(r, data(bytes/4*r.Size()))
		}
		recv := emptyDeviceBuffer(r, bytes)
		return func() error { return r.Scatter(0, send, recv) }, nil
	}},
	{"alltoall", func(r *mpi.Rank, bytes int, data DataGen) (func() error, error) {
		// Every rank exchanges a block of `bytes` with every other rank.
		send := deviceBuffer(r, data(bytes/4*r.Size()))
		recv := emptyDeviceBuffer(r, bytes*r.Size())
		return func() error { return r.Alltoall(send, recv) }, nil
	}},
	{"alltoallv", func(r *mpi.Rank, bytes int, data DataGen) (func() error, error) {
		// Rank i sends each peer j a ragged segment whose size follows a
		// deterministic (i+j)-keyed pattern averaging `bytes` — the vector
		// collective's defining feature, and what the TEMPI-style compressed
		// Alltoallv must get right per destination. In words: bytes/8 *
		// {1,2,3}.
		if bytes < 8 {
			return nil, fmt.Errorf("omb: alltoallv needs bytes >= 8, got %d", bytes)
		}
		segWords := func(i, j int) int { return bytes / 8 * (1 + (i+j)%3) }
		size, me := r.Size(), r.ID()
		sendCounts, sendDispls := make([]int, size), make([]int, size)
		recvCounts, recvDispls := make([]int, size), make([]int, size)
		stot, rtot := 0, 0
		for j := 0; j < size; j++ {
			sendDispls[j], recvDispls[j] = stot, rtot
			sendCounts[j] = 4 * segWords(me, j)
			recvCounts[j] = 4 * segWords(j, me)
			stot += sendCounts[j]
			rtot += recvCounts[j]
		}
		send := deviceBuffer(r, data(stot/4))
		recv := emptyDeviceBuffer(r, rtot)
		return func() error {
			return r.Alltoallv(send, sendCounts, sendDispls, recv, recvCounts, recvDispls)
		}, nil
	}},
}

// Collectives lists the collective benchmarks CollectiveLatency runs, in
// table order.
func Collectives() []string {
	names := make([]string, len(collectives))
	for i, c := range collectives {
		names[i] = c.name
	}
	return names
}

// CollectiveLatency runs the named osu_*-style collective measurement with
// `bytes` of payload per rank (per block for the all-to-alls, in total for
// the broadcasts) drawn from gen (nil: dummy data).
func CollectiveLatency(w *mpi.World, name string, bytes, warmup, iters int, gen DataGen) (CollResult, error) {
	var setup setupFunc
	for _, c := range collectives {
		if c.name == name {
			setup = c.setup
		}
	}
	if setup == nil {
		return CollResult{}, fmt.Errorf("omb: unknown collective %q (have %s)", name, strings.Join(Collectives(), ", "))
	}
	if gen == nil {
		gen = DummyData
	}
	// One draw per length, shared: ranks start from the same bytes.
	var mu sync.Mutex
	drawn := map[int][]float32{}
	data := func(n int) []float32 {
		mu.Lock()
		defer mu.Unlock()
		if _, ok := drawn[n]; !ok {
			drawn[n] = gen(n)
		}
		return drawn[n]
	}
	lat, err := collectiveLatency(w, warmup, iters, func(r *mpi.Rank) (func() error, error) {
		return setup(r, bytes, data)
	})
	if err != nil {
		return CollResult{}, err
	}
	return CollResult{Bytes: bytes, Latency: lat, Ratio: avgRatioAll(w)}, nil
}

// resetStats clears per-rank engine accounting so a measurement reflects
// only its own operations.
func resetStats(w *mpi.World) {
	for i := 0; i < w.Size(); i++ {
		w.Rank(i).Engine.ResetCounters()
	}
}

// avgRatio reports the achieved compression ratio aggregated over the
// named ranks' engines (1 when nothing was compressed).
func avgRatio(w *mpi.World, rankIDs ...int) float64 {
	var in, out float64
	for _, id := range rankIDs {
		e := w.Rank(id).Engine
		in += float64(e.BytesIn)
		out += float64(e.BytesOut)
	}
	if out == 0 {
		return 1
	}
	return in / out
}

func avgRatioAll(w *mpi.World) float64 {
	ids := make([]int, w.Size())
	for i := range ids {
		ids[i] = i
	}
	return avgRatio(w, ids...)
}

// BiBandwidth runs osu_bibw: both ranks stream `window` messages at each
// other simultaneously, measuring aggregate bidirectional bandwidth.
func BiBandwidth(w *mpi.World, sizes []int, warmup, iters, window int) ([]P2PResult, error) {
	if w.Size() < 2 {
		return nil, fmt.Errorf("omb: bibw needs at least 2 ranks")
	}
	if window <= 0 {
		window = 16
	}
	results := make([]P2PResult, 0, len(sizes))
	for _, size := range sizes {
		var bw float64
		w.ResetClocks()
		_, err := w.Run(func(r *mpi.Rank) error {
			if r.ID() > 1 {
				return nil
			}
			peer := 1 - r.ID()
			sendBufs := make([]*gpusim.Buffer, window)
			recvBufs := make([]*gpusim.Buffer, window)
			for i := range sendBufs {
				sendBufs[i] = emptyDeviceBuffer(r, size)
				recvBufs[i] = emptyDeviceBuffer(r, size)
			}
			var measured simtime.Duration
			for it := 0; it < warmup+iters; it++ {
				start := r.Clock.Now()
				reqs := make([]*mpi.Request, 0, 2*window)
				for i := 0; i < window; i++ {
					rq, err := r.Irecv(peer, i, recvBufs[i])
					if err != nil {
						return err
					}
					reqs = append(reqs, rq)
				}
				for i := 0; i < window; i++ {
					sq, err := r.Isend(peer, i, sendBufs[i])
					if err != nil {
						return err
					}
					reqs = append(reqs, sq)
				}
				if err := r.Waitall(reqs...); err != nil {
					return err
				}
				if it >= warmup && r.ID() == 0 {
					measured += r.Clock.Now().Sub(start)
				}
			}
			if r.ID() == 0 {
				totalBytes := 2 * float64(size) * float64(window) * float64(iters)
				bw = totalBytes / measured.Seconds() / 1e9
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		results = append(results, P2PResult{Bytes: size, BandwidthGBps: bw})
	}
	return results, nil
}
