// Package mpi is a GPU-aware MPI-style message-passing runtime over the
// simulated cluster: ranks are goroutines with logical clocks, point-to-
// point communication uses an eager protocol for small messages and the
// RTS/CTS rendezvous protocol for large ones, and the on-the-fly
// compression engine of package core hooks the rendezvous path exactly as
// the paper describes (header piggybacked on RTS, compressed payload
// transferred after CTS, decompression after the last byte arrives).
//
// Real bytes move between ranks; only time is simulated, so messages are
// bit-exact (lossless codecs) or within codec error bounds (ZFP) while
// latencies follow the calibrated hardware model.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mpicomp/internal/core"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/netsim"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
	"mpicomp/internal/trace"
)

// AnySource matches a message from any sender in Recv/Irecv.
const AnySource = -1

// AnyTag matches any user tag in Recv/Irecv (never a collective's).
const AnyTag = -2

// internalTagBase namespaces tags used by collectives and barriers so they
// cannot collide with user tags (which must be >= 0).
const internalTagBase = -1 << 20

// eagerLimit is the rendezvous threshold: messages at or above this size
// use RTS/CTS, below it they are sent eagerly.
const eagerLimit = 16 << 10

// deviceStreams is the number of CUDA streams per device: enough for
// MPC-OPT's maximum partitioning.
const deviceStreams = 8

// DefaultRetryLimit is the per-protocol-stage retransmission budget when
// RetryPolicy.Limit is zero: each RTS, CTS, data transfer, or eager
// message makes at most 1 + DefaultRetryLimit attempts.
const DefaultRetryLimit = 8

// DefaultRetryBackoff is the delay before the first retransmission when
// RetryPolicy.Backoff is zero. It doubles per attempt (exponential
// backoff on the virtual clock), capped at maxRetryBackoff.
const DefaultRetryBackoff = 20 * simtime.Microsecond

// maxRetryBackoff caps the exponential backoff so a deep retry chain
// cannot push the virtual timeline absurdly far out.
const maxRetryBackoff = 10 * simtime.Millisecond

// RetryPolicy bounds the transport's retransmission behavior under
// injected faults. The zero value means defaults.
type RetryPolicy struct {
	// Limit is the maximum retransmissions per protocol stage of one
	// message. Zero selects DefaultRetryLimit; any negative value
	// disables retries entirely (a single lost or corrupted attempt
	// surfaces ErrDeliveryFailed from Wait).
	Limit int
	// Backoff is the delay before the first retransmission, doubling
	// with each subsequent one. Zero selects DefaultRetryBackoff.
	Backoff simtime.Duration
	// ChunkLimit is the per-chunk retransmission budget of the pipelined
	// path: each chunk of a chunked transfer retries independently up to
	// this many times (selective retransmission — delivered chunks never
	// cross the wire again). Zero inherits the effective Limit; negative
	// disables chunk retries.
	ChunkLimit int
}

// limit returns the effective retransmission budget.
func (p RetryPolicy) limit() int {
	if p.Limit < 0 {
		return 0
	}
	if p.Limit == 0 {
		return DefaultRetryLimit
	}
	return p.Limit
}

// chunkLimit returns the effective per-chunk retransmission budget.
func (p RetryPolicy) chunkLimit() int {
	if p.ChunkLimit < 0 {
		return 0
	}
	if p.ChunkLimit == 0 {
		return p.limit()
	}
	return p.ChunkLimit
}

// delay returns the backoff before retransmission attempt+1 (attempt is
// the zero-based attempt that just failed). The doubling is clamped at
// maxRetryBackoff with an explicit wrap guard, so arbitrarily large
// attempt counts (or a huge configured Backoff) cannot overflow the
// virtual Duration into a negative delay.
func (p RetryPolicy) delay(attempt int) simtime.Duration {
	d := p.Backoff
	if d <= 0 {
		d = DefaultRetryBackoff
	}
	if d >= maxRetryBackoff {
		return maxRetryBackoff
	}
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= maxRetryBackoff || d < 0 {
			return maxRetryBackoff
		}
	}
	return d
}

// Options configures a World.
type Options struct {
	// Cluster selects the hardware model (default: hw.Longhorn()).
	Cluster hw.Cluster
	// Nodes and PPN (processes per node) define the job layout;
	// world size = Nodes * PPN.
	Nodes int
	PPN   int
	// Engine is the compression framework configuration applied to
	// every rank.
	Engine core.Config
	// Tracer, when non-nil, records every engine phase and network
	// transfer for timeline inspection (trace.WriteChromeTrace).
	Tracer *trace.Collector
	// Faults, when non-nil and enabled, injects deterministic wire
	// faults (drops, bit flips, degraded links) into the run; see
	// package faults. Nil or a zero config runs a perfect fabric.
	Faults *faults.Config
	// Retry bounds the transport's retransmission protocol. Only
	// consulted when faults are injected (a perfect fabric never
	// retries). The zero value selects the defaults.
	Retry RetryPolicy
	// Health configures the progress watchdog and collective failure
	// semantics (see HealthPolicy). The zero value selects the defaults;
	// it only matters when Faults draws crash/silence fates.
	Health HealthPolicy
	// Allreduce pins the AllreduceSum schedule for the whole world.
	// sched.AllreduceAuto (the zero value) routes through Tuner when wired
	// and the historical reduce+broadcast otherwise.
	Allreduce sched.AllreduceAlgo
	// Tuner, when non-nil, picks the AllreduceSum schedule per call
	// while Allreduce is sched.AllreduceAuto (see CollTuner; internal/tune
	// implements it).
	Tuner CollTuner
}

// World is one simulated MPI job.
type World struct {
	cluster    hw.Cluster
	nodes, ppn int
	size       int
	fabric     *netsim.Fabric
	ranks      []*Rank
	tracer     *trace.Collector
	inj        *faults.Injector
	retry      RetryPolicy
	allreduce  sched.AllreduceAlgo
	tuner      CollTuner

	// decodePerRank makes every rank run its own codec job on a relayed
	// payload (no core.Decoded companions). Set only by tests, which
	// compare the two ways of running the same simulation.
	decodePerRank bool

	// Failure handling (see health.go). doomed/live are fixed at
	// initialization — fate assignment is deterministic per seed — so
	// every survivor observes the identical failed set. shrunk is set by
	// the first retry verdict of a world with fated ranks (healRecover):
	// collectives then run on the live set.
	health   HealthPolicy
	doomed   []int
	live     []int
	everyone []int
	shrunk   atomic.Bool

	announceMu sync.Mutex
	announced  map[int]bool

	watchdogWakeups atomic.Int64
	cascadeQuiets   atomic.Int64

	// Self-healing state (see heal.go). healOn gates every hot-path check
	// — a world without SelfHeal never takes the revocation branches.
	// linkFaults gates the transport's per-attempt link queries the same
	// way. routeView is the fabric's static fault-avoiding node order
	// (nil = identity); revoked maps recovery epoch -> lowest revoked
	// collective-op index at that epoch.
	healOn     bool
	linkFaults bool
	routeView  []int
	revMu      sync.Mutex
	revoked    map[int]uint64

	reroutes          atomic.Int64
	shrinkCompletions atomic.Int64
	revokedOps        atomic.Int64
	resourcedChunks   atomic.Int64
	recoveryTime      atomic.Int64
}

// NewWorld builds the job: fabric, devices, per-rank engines (paying
// initialization-time costs such as ModeOpt's pool allocation).
func NewWorld(opt Options) (*World, error) {
	if opt.Cluster.Name == "" {
		opt.Cluster = hw.Longhorn()
	}
	if opt.Nodes < 1 || opt.PPN < 1 {
		return nil, fmt.Errorf("mpi: need at least 1 node and 1 ppn (got %d, %d)", opt.Nodes, opt.PPN)
	}
	if opt.PPN > opt.Cluster.GPUsPerNode {
		return nil, fmt.Errorf("mpi: ppn %d exceeds %s's %d GPUs/node", opt.PPN, opt.Cluster.Name, opt.Cluster.GPUsPerNode)
	}
	w := &World{
		cluster:   opt.Cluster,
		nodes:     opt.Nodes,
		ppn:       opt.PPN,
		size:      opt.Nodes * opt.PPN,
		fabric:    netsim.NewFabric(opt.Cluster, opt.Nodes),
		tracer:    opt.Tracer,
		retry:     opt.Retry,
		health:    opt.Health.withDefaults(),
		allreduce: opt.Allreduce,
		tuner:     opt.Tuner,
	}
	if opt.Faults != nil {
		// The fault model takes a node's last group, so a plan that lists
		// a node twice severs links it also keeps; a node outside the
		// world would be ignored.
		listed := make(map[int]bool)
		for _, g := range opt.Faults.PartitionGroups {
			for _, n := range g {
				if n < 0 || n >= opt.Nodes || listed[n] {
					return nil, fmt.Errorf("mpi: partition plan %v lists node %d twice or outside nodes 0..%d", opt.Faults.PartitionGroups, n, opt.Nodes-1)
				}
				listed[n] = true
			}
		}
		w.inj = faults.New(*opt.Faults) // nil when the config is disabled
		w.fabric.SetFaults(w.inj)
	}
	for id := 0; id < w.size; id++ {
		dev := gpusim.NewDevice(opt.Cluster.GPU, deviceStreams)
		// Engine construction (including ModeOpt's pool allocation) is
		// MPI_Init-time work: it happens before the simulated timeline
		// starts, exactly as the paper moves it off the critical path.
		initClk := simtime.NewClock(0)
		eng := core.NewEngine(initClk, dev, opt.Engine)
		eng.Tracer = opt.Tracer
		eng.Track = fmt.Sprintf("rank %d", id)
		r := &Rank{
			id:      id,
			world:   w,
			Clock:   simtime.NewClock(0),
			Dev:     dev,
			Engine:  eng,
			box:     newMailbox(w),
			sendSeq: make([]uint64, w.size),
			pipe:    make([]pipePeer, w.size),
			pipeTx:  make([]pipeLane, w.size),
		}
		w.ranks = append(w.ranks, r)
	}
	w.everyone = make([]int, w.size)
	for i := range w.everyone {
		w.everyone[i] = i
	}
	// Draw process-failure fates once per rank (fate assignment IS the
	// injection; see faults.RankFate). Purely seed-driven, so doomed/live
	// are identical for any host scheduling or worker-pool size.
	if w.inj != nil {
		for id := 0; id < w.size; id++ {
			if onset, silent, failed := w.inj.RankFate(id); failed {
				w.ranks[id].fate = &rankFate{onset: onset, silent: silent}
				w.doomed = append(w.doomed, id)
			}
		}
		if len(w.doomed) > 0 {
			w.buildLive()
		}
		// Take the fabric's static fault-avoiding node order: a pure
		// function of the seed, so the routing view every recovery epoch
		// activates is identical across ranks and host schedules.
		if w.inj.Config().LinkFaults() {
			w.linkFaults = true
			w.routeView = w.fabric.RouteAround()
		}
	}
	w.healOn = w.health.SelfHeal && w.inj != nil
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Nodes returns the node count.
func (w *World) Nodes() int { return w.nodes }

// PPN returns processes per node.
func (w *World) PPN() int { return w.ppn }

// Cluster returns the hardware model.
func (w *World) Cluster() hw.Cluster { return w.cluster }

// TopoClass classifies the world's node grouping for algorithm
// selection (see netsim.ClassifyTopo).
func (w *World) TopoClass() netsim.TopoClass { return w.fabric.TopoClass(w.ppn) }

// Fabric exposes the interconnect (for inspection in tests).
func (w *World) Fabric() *netsim.Fabric { return w.fabric }

// FaultStats snapshots the injected-fault counters (zero when fault
// injection is off).
func (w *World) FaultStats() faults.Stats { return w.inj.Stats() }

// FaultsEnabled reports whether this world injects faults.
func (w *World) FaultsEnabled() bool { return w.inj != nil }

// SelfHealing reports whether mid-collective recovery is armed (SelfHeal
// policy with an active fault injector).
func (w *World) SelfHealing() bool { return w.healOn }

// Fated reports whether rank id is fated to fail this run. Harnesses use
// it to tell a fated rank's own demise apart from a survivor's failure:
// under SelfHeal the survivors complete and only fated ranks error out.
func (w *World) Fated(id int) bool { return w.ranks[id].fate != nil }

// Rank returns rank id's state (for post-run inspection).
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// nodeOf maps a rank to its node (block distribution, as mpirun does).
func (w *World) nodeOf(rank int) int { return rank / w.ppn }

// ResetClocks rewinds all clocks, stream timelines, and fabric state to
// zero, keeping engine pools warm — used between measurement repetitions.
func (w *World) ResetClocks() {
	for _, r := range w.ranks {
		*r.Clock = *simtime.NewClock(0)
		r.Dev.ResetStreams()
	}
	w.fabric.Reset()
}

// Run executes fn concurrently on every rank and waits for completion.
// It returns the final per-rank clock values (the job's simulated
// timeline) and the first error any rank produced.
func (w *World) Run(fn func(r *Rank) error) ([]simtime.Time, error) {
	times, errs := w.RunAll(fn)
	for _, err := range errs {
		if err != nil {
			return times, err
		}
	}
	return times, nil
}

// RunAll is Run exposing every rank's error — failure tests assert that
// all survivors observe the same failed set, not just the first.
//
// A rank returning an error (or panicking) quiesces: it will issue no
// further sends, so it publishes a gone record and peers blocked on it
// are woken with PeerError instead of hanging — the cascade that
// propagates a crash through a collective deterministically (see
// health.go). Ranks that return nil publish nothing, so healthy runs are
// untouched.
func (w *World) RunAll(fn func(r *Rank) error) ([]simtime.Time, []error) {
	var wg sync.WaitGroup
	errs := make([]error, w.size)
	for _, r := range w.ranks {
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[r.id] = fmt.Errorf("mpi: rank %d panicked: %v", r.id, p)
					w.announceQuiet(r.id)
				}
			}()
			errs[r.id] = fn(r)
			if errs[r.id] != nil {
				w.announceQuiet(r.id)
			}
		}(r)
	}
	wg.Wait()
	w.reapInflight()
	times := make([]simtime.Time, w.size)
	for i, r := range w.ranks {
		times[i] = r.Clock.Now()
	}
	return times, errs
}

// reapInflight reclaims the staging buffers of requests abandoned by
// aborted collectives once every rank goroutine has joined: a receive that
// matched a rendezvous or pipelined envelope holds pool slots its Wait
// would have released. The pass is single-threaded and walks ranks and
// requests in order, resolving only channels that already settled, so it
// adds no blocking and no nondeterminism — each release lands at the
// owning rank's final clock.
func (w *World) reapInflight() {
	for _, r := range w.ranks {
		for _, req := range r.inflight {
			env := req.env
			if env == nil && req.early != nil {
				env = req.early
			}
			if env == nil && req.post != nil {
				select {
				case env = <-req.post.matched:
				default:
				}
			}
			if env == nil {
				continue
			}
			if req.isSend {
				continue // senders hold no staging
			}
			if env.pipelined {
				select {
				case <-env.done:
				default:
					continue // match never completed; nothing staged
				}
			}
			r.releaseStaging(env)
		}
		r.inflight = nil
		r.releaseRawStaged()
	}
}

// MaxTime returns the latest of the given instants (the job makespan).
func MaxTime(times []simtime.Time) simtime.Time {
	var m simtime.Time
	for _, t := range times {
		if t > m {
			m = t
		}
	}
	return m
}

// Rank is one MPI process: a logical clock, a GPU, a compression engine,
// and a mailbox.
type Rank struct {
	id    int
	world *World
	// Clock is the rank's logical time; every operation advances it.
	Clock *simtime.Clock
	// Dev is the rank's GPU.
	Dev *gpusim.GPUDevice
	// Engine is the rank's on-the-fly compression engine.
	Engine *core.Engine
	box    *mailbox
	// fate is this rank's precomputed process failure (nil for a healthy
	// rank — the common case, checked with one pointer test per call).
	fate *rankFate
	// sendSeq[dst] numbers this rank's messages to dst. The counter
	// advances in the rank goroutine's program order, so a message's
	// (src, dst, seq) identity — which the fault injector hashes — is
	// deterministic regardless of host scheduling.
	sendSeq []uint64
	// pipe[dst] tracks the chunk-stream health toward each peer for the
	// transport's degrade ladder (pipeline.go). It is read and written
	// only from this rank's own goroutine — at send eligibility checks
	// and at Wait — so the ladder's decisions follow program order and
	// stay deterministic.
	pipe []pipePeer
	// pipeTx[dst] orders pipelined match completions toward dst in this
	// rank's program order, keeping concurrent chunk timelines' fabric
	// reservations deterministic (see pipeLane in pipeline.go).
	pipeTx []pipeLane
	// Collective-operation context (heal.go). Collectives are called in
	// the same program order on every rank, so the per-rank op counter
	// stays in lockstep without communication; healEpoch advances only on
	// an agreed recovery verdict, keeping it in lockstep too. opDepth
	// makes nested collectives inherit the outermost operation's context.
	opDepth   int
	curOp     uint64
	nextOp    uint64
	healEpoch int
	// inflight tracks this rank's incomplete requests so an aborted
	// collective's staging buffers can be reclaimed — drained in place on
	// a self-heal retry, reaped after the join in abort mode. Touched only
	// by the owning goroutine (and by RunAll after the join). rawStaged
	// holds staging buffers of raw receives completed by Wait but not yet
	// handed back through consumeRaw.
	inflight  []*Request
	rawStaged []*gpusim.Buffer
	// scratch is the rank's pair of reusable collective scratch vectors,
	// scratchHeld how many a running collective holds (takeScratch).
	scratch     [2][]byte
	scratchHeld int
}

// trackInflight registers an incomplete request for abort reclamation.
// req.inf stores index+1 so the zero value means "untracked".
func (r *Rank) trackInflight(req *Request) {
	r.inflight = append(r.inflight, req)
	req.inf = len(r.inflight)
}

// untrackInflight drops a request that completed (swap-delete; order of
// the survivors follows program order of completion, which is
// deterministic).
func (r *Rank) untrackInflight(req *Request) {
	i := req.inf - 1
	if i < 0 || i >= len(r.inflight) || r.inflight[i] != req {
		return
	}
	last := len(r.inflight) - 1
	r.inflight[i] = r.inflight[last]
	r.inflight[i].inf = i + 1
	r.inflight[last] = nil // a completed request must not stay reachable
	r.inflight = r.inflight[:last]
	req.inf = 0
}

// nextSeq allocates the next per-destination message sequence number.
func (r *Rank) nextSeq(dst int) uint64 {
	s := r.sendSeq[dst]
	r.sendSeq[dst]++
	return s
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.size }

// Node returns the node hosting this rank.
func (r *Rank) Node() int { return r.world.nodeOf(r.id) }

// World returns the enclosing world.
func (r *Rank) World() *World { return r.world }

func (r *Rank) checkPeer(peer int) error {
	if peer < 0 || peer >= r.world.size {
		return fmt.Errorf("mpi: rank %d out of range [0,%d)", peer, r.world.size)
	}
	return nil
}
