package mpi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/dtype"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/sched"
	"mpicomp/internal/simtime"
)

// The transport golden pins what a program can observe of internal/mpi's
// transport and of every collective built on it: each rank's final clock,
// the CRC32-C of everything it received, its engine counters and pool
// balance, the world's fault, pipeline, cache, health and recovery
// counters, and the fabric's per-adapter bytes, messages, control packets
// and last booked instant. The file was generated at the commit before the
// per-tier transport copies (three retry loops, five receive completions)
// were merged into one path, through public API that exists on both sides
// of that change; a refactor of the transport or of a collective schedule
// must reproduce it byte for byte for codec worker counts 1, 2 and 8.
// Regenerate (only for an intended behaviour change) with
// TRANSPORT_GOLDEN=write go test -run TestTransportGolden ./internal/mpi/
//
// Each cell has two planes. The protocol plane holds what no host
// schedule can move (payload CRCs, error classes, pool balance and, on a
// fault-free fabric, every byte and message count). The timing plane
// holds the instants and whatever depends on them. A cell keeps its
// timing plane only if every replay agreed on it when the file was
// written (goldenReplays at each of GOMAXPROCS 1, 2 and 4) (the fabric books calendar reservations in host arrival
// order — ROADMAP item 1 — so some multi-sender cells take two or three
// values); the writer lists what it demoted, and cells whose ranks share
// a node's calendars (every ppn>1 collective, the one-node bidirectional
// exchange) pin the protocol plane only (DESIGN.md §13/§14).
//
// The point-to-point product runs at a scaled geometry (16 KiB chunks:
// eager 1 KiB, whole-message rendezvous 24 KiB, pipelined 128 KiB, ragged
// 128 KiB + 4 B) so that tiers x codecs x layouts x fault plans x
// patterns fits tier-1's time budget three times over; a flat-layout
// spine repeats the tiers at the paper's geometry (256 KiB chunks, 256 KiB
// / 4 MiB / 4 MiB + 4 B). Fault plans that cannot reach a cell are
// skipped (goldenFaults.reaches).

const (
	transportGolden = "testdata/transport_golden.json"
	goldenReplays   = 20
)

type transportCell struct {
	Name     string   `json:"name"`
	Protocol []string `json:"protocol"`
	Timing   []string `json:"timing,omitempty"`
	// protocolOnly forces the cell out of the timing plane: ranks sharing a
	// node share its calendars.
	protocolOnly bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errClass names an error by the sentinel it wraps, so the golden pins
// which failure a rank saw without pinning message wording.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrDeliveryFailed):
		return "delivery-failed"
	case errors.Is(err, ErrCollRevoked):
		return "revoked"
	case errors.Is(err, ErrRankCrashed):
		return "crashed"
	case errors.Is(err, ErrRankSilent):
		return "silent"
	case errors.Is(err, ErrPeerFailed):
		return "peer-failed"
	}
	return "error: " + err.Error()
}

// goldenPayload is a cheap deterministic payload: 12-bit noise on a
// per-rank ramp, so MPC compresses it about 2:1 (relayed payloads stay
// large enough to travel as chunk segments) and ZFP sees ordinary floats.
// Payloads are memoized — a thousand cells draw from a few dozen — and
// every buffer gets its own copy.
func goldenPayload(r *Rank, salt, words int) *gpusim.Buffer {
	key := [3]int{r.ID(), salt, words}
	goldenPayloads.Lock()
	data, ok := goldenPayloads.m[key]
	if !ok {
		data = make([]byte, 4*words)
		x := uint32(r.ID()*7919+salt*104729) | 1
		for i := 0; i < words; i++ {
			x = x*1664525 + 1013904223
			v := float32(r.ID()+1)*64 + float32(i%509) + float32(x>>20)*0.125
			binary.LittleEndian.PutUint32(data[4*i:], math.Float32bits(v))
		}
		goldenPayloads.m[key] = data
	}
	goldenPayloads.Unlock()
	return &gpusim.Buffer{Data: append([]byte(nil), data...), Loc: gpusim.Device, Dev: r.Dev}
}

var goldenPayloads = struct {
	sync.Mutex
	m map[[3]int][]byte
}{m: map[[3]int][]byte{}}

// rankObs is what one rank reports from inside the run.
type rankObs struct {
	crc   uint32
	errs  []string
	marks []int64 // the clock after each completed operation
}

func (o *rankObs) mark(r *Rank) { o.marks = append(o.marks, int64(r.Clock.Now())) }

func (o *rankObs) sum(bufs ...*gpusim.Buffer) {
	for _, b := range bufs {
		if b != nil {
			o.crc = crc32.Update(o.crc, castagnoli, b.Data)
		}
	}
}

func (o *rankObs) note(err error) { o.errs = append(o.errs, errClass(err)) }

// observeCell renders both planes of a finished run. Lines whose every
// value is zero are left out (most cells inject no fault, heal nothing and
// run no breaker), which keeps the file a quarter of the size.
func observeCell(name string, w *World, times []simtime.Time, obs []rankObs, faulted bool) transportCell {
	cell := transportCell{Name: name}
	// On a faulty fabric retransmissions move the counts with the instants
	// (link windows, codec healing, pool pressure), so the counters ride the
	// timing plane there.
	counters := &cell.Protocol
	if faulted {
		counters = &cell.Timing
	}
	add := func(plane *[]string, format string, args ...any) {
		zero := make([]any, len(args))
		for i, a := range args {
			zero[i] = reflect.Zero(reflect.TypeOf(a)).Interface()
		}
		if line := fmt.Sprintf(format, args...); line != fmt.Sprintf(format, zero...) {
			*plane = append(*plane, line)
		}
	}
	var cs core.CacheStats
	var bs core.BreakerStats
	for id := 0; id < w.Size(); id++ {
		e := w.Rank(id).Engine
		free, total := e.PoolBalance()
		// A pool miss grows the pool, and with several chunk streams staging
		// on one receiver how many miss depends on the host's interleaving:
		// the balance is timing, only a leak (free < total) is protocol.
		leaked := 0
		if free < total {
			leaked = total - free
		}
		add(&cell.Protocol, "rank %d: crc=%08x errs=%s leaked-slots=%d", id, obs[id].crc, strings.Join(obs[id].errs, ","), leaked)
		add(counters, "rank %[6]s: compressions=%[1]d decompressions=%[2]d bytes-in=%[3]d bytes-out=%[4]d fallback-recvs=%[5]d",
			e.Compressions, e.Decompressions, e.BytesIn, e.BytesOut, e.FallbackRecvs, fmt.Sprint(id))
		add(&cell.Timing, "rank %d: clock=%d marks=%v pool=%d/%d pool-fallbacks=%d", id, int64(times[id]), obs[id].marks, free, total, e.PoolFallbacks)
		cs.Add(e.CacheSnapshot())
		bs.Add(e.BreakerSnapshot())
	}
	ps := pipeTotals(w)
	add(counters, "cache: hits=%d misses=%d invalidations=%d evictions=%d entries=%d bytes=%d relayed=%d recompressed=%d",
		cs.Hits, cs.Misses, cs.Invalidations, cs.Evictions, cs.Entries, cs.Bytes, cs.RelayedBytes, cs.RecompressedBytes)
	add(counters, "pipeline: chunks=%d relay-chunks=%d bypass-small=%d", ps.Chunks, ps.RelayChunks, ps.BypassSmall)
	for n, ns := range w.Fabric().Stats() {
		add(counters, "node %[9]s: egress=%[1]dB/%[2]d ingress=%[3]dB/%[4]d intra=%[5]dB/%[6]d ctrl=%[7]d/%[8]d",
			ns.Egress.Bytes, ns.Egress.Messages, ns.Ingress.Bytes, ns.Ingress.Messages,
			ns.Intra.Bytes, ns.Intra.Messages, ns.ControlSent, ns.ControlRecv, fmt.Sprint(n))
		add(&cell.Timing, "node %[4]s: busy-until egress=%[1]d ingress=%[2]d intra=%[3]d",
			int64(ns.Egress.BusyUntil), int64(ns.Ingress.BusyUntil), int64(ns.Intra.BusyUntil), fmt.Sprint(n))
	}
	hs, rs := w.HealthStats(), w.RecoveryStats()
	add(&cell.Protocol, "health: doomed=%v crashes=%d silences=%d", hs.Doomed, hs.Crashes, hs.Silences)
	add(&cell.Protocol, "recovery: reroutes=%d shrink-completions=%d revoked-ops=%d resourced-chunks=%d",
		rs.Reroutes, rs.ShrinkCompletions, rs.RevokedOps, rs.ResourcedChunks)
	add(&cell.Timing, "faults: %+v", w.FaultStats())
	add(&cell.Timing, "pipeline: retransmits=%d retransmit-bytes=%d credit-stalls=%d window-shrinks=%d degrades=%d bypass-degraded=%d",
		ps.Retransmits, ps.RetransmitBytes, ps.CreditStalls, ps.WindowShrinks, ps.DegradeEvents, ps.BypassDegraded)
	add(&cell.Timing, "health: watchdog-wakeups=%d cascade-quiets=%d", hs.WatchdogWakeups, hs.CascadeQuiets)
	add(&cell.Timing, "recovery: link-drops=%d recovery-time=%d", rs.LinkDrops, int64(rs.RecoveryTime))
	add(&cell.Timing, "breaker: %+v", bs)
	return cell
}

// --- point-to-point cells ---

type goldenGeometry struct {
	name  string
	chunk int
	sizes []goldenSize
}

type goldenSize struct {
	tier  string
	words int
	sub   [3]int // Subarray3D box of exactly `words` words
	piped bool   // reaches the chunked tier
	rndv  bool   // rendezvous or above
}

var (
	scaledGeometry = goldenGeometry{"scaled", 16 << 10, []goldenSize{
		{"eager", 256, [3]int{16, 4, 4}, false, false},
		{"rendezvous", 6 << 10, [3]int{32, 16, 12}, false, true},
		{"pipelined", 32 << 10, [3]int{64, 32, 16}, true, true},
		{"ragged", 32<<10 + 1, [3]int{32<<10 + 1, 1, 1}, true, true},
	}}
	paperGeometry = goldenGeometry{"paper", 256 << 10, []goldenSize{
		{"rendezvous", 64 << 10, [3]int{}, false, true},
		{"pipelined", 1 << 20, [3]int{}, true, true},
		{"ragged", 1<<20 + 1, [3]int{}, true, true},
	}}
)

type goldenEngine struct {
	name  string
	cfg   core.Config
	codec bool
}

func goldenEngines() []goldenEngine {
	return []goldenEngine{
		{"off", core.Config{Mode: core.ModeOff}, false},
		{"mpc", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}, true},
		{"zfp8", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}, true},
	}
}

type goldenFaults struct {
	name    string
	cfg     *faults.Config
	retry   RetryPolicy
	breaker core.BreakerPolicy
	// which cells the plan can reach, beyond the common rules in reaches
	chunkOnly, codecOnly, flatOnly bool
}

// reaches prunes the product to the cells where a fault plan can change
// what the transport does: chunk fates need a chunk stream, codec faults a
// compressed rendezvous payload; a layout changes only how bytes enter and
// leave the codec, so it meets the plans that reorder or re-send the
// pieces it decodes; and inside one node (no link fates, one shared
// calendar) the retry loop is the same code, so generic loss covers it.
func (fp goldenFaults) reaches(nodes int, size goldenSize, eng goldenEngine, typed bool) bool {
	switch {
	case fp.cfg == nil:
		return true
	case fp.chunkOnly && !size.piped, fp.codecOnly && !(eng.codec && size.rndv), fp.flatOnly && typed:
		return false
	}
	return nodes > 1 || fp.name == "drop+corrupt"
}

func goldenFaultPlans() []goldenFaults {
	return []goldenFaults{
		{name: "fault-free"},
		{name: "drop+corrupt", cfg: &faults.Config{Seed: 101, DropRate: 0.15, CorruptRate: 0.15}},
		{name: "chunk-fates", cfg: &faults.Config{Seed: 102, ChunkDropRate: 0.1, ChunkCorruptRate: 0.1,
			ChunkDuplicateRate: 0.15, ChunkReorderRate: 0.15}, chunkOnly: true},
		{name: "codec+breaker", cfg: &faults.Config{Seed: 103, CodecRate: 0.7},
			breaker: core.BreakerPolicy{Threshold: 2, Cooldown: 300 * simtime.Microsecond}, codecOnly: true, flatOnly: true},
		{name: "link-flap", cfg: &faults.Config{Seed: 104, LinkFlapRate: 1, FlapPeriod: 150 * simtime.Microsecond, FlapDuty: 0.3},
			flatOnly: true},
		// Not a wire condition but the transport's other exit: budgets of one
		// retransmission under heavy loss, so some RTS, CTS, data, eager and
		// chunk stages give up and both endpoints take the failure paths.
		{name: "exhausted", cfg: &faults.Config{Seed: 105, DropRate: 0.45, CorruptRate: 0.2},
			retry: RetryPolicy{Limit: 1, ChunkLimit: 1}, flatOnly: true},
	}
}

// p2pPattern is one two-rank program. Operations never abort the program
// on error — both endpoints of a failed message observe the failure, so
// every Wait returns — and each outcome is recorded instead.
type p2pPattern struct {
	name string
	run  func(x *p2pCtx)
}

// p2pCtx is one rank's view of a point-to-point cell.
type p2pCtx struct {
	r    *Rank
	obs  *rankObs
	size goldenSize
	typ  dtype.Type // nil: contiguous
	ext  int        // buffer extent in words
}

func (x *p2pCtx) sendBuf(salt int) *gpusim.Buffer {
	return goldenPayload(x.r, salt, x.ext).Track()
}

func (x *p2pCtx) recvBuf() *gpusim.Buffer { return emptyDevBuf(x.r, x.ext) }

func (x *p2pCtx) isend(dst, tag int, b *gpusim.Buffer) *Request {
	var req *Request
	var err error
	if x.typ != nil {
		req, err = x.r.IsendTyped(dst, tag, b, x.typ)
	} else {
		req, err = x.r.Isend(dst, tag, b)
	}
	if err != nil {
		x.obs.note(err)
	}
	return req
}

func (x *p2pCtx) irecv(src, tag int, b *gpusim.Buffer) *Request {
	var req *Request
	var err error
	if x.typ != nil {
		req, err = x.r.IrecvTyped(src, tag, b, x.typ)
	} else {
		req, err = x.r.Irecv(src, tag, b)
	}
	if err != nil {
		x.obs.note(err)
	}
	return req
}

// wait completes the requests in order, recording each outcome and the
// clock after it.
func (x *p2pCtx) wait(reqs ...*Request) {
	for _, req := range reqs {
		if req != nil {
			x.obs.note(x.r.Wait(req))
			x.obs.mark(x.r)
		}
	}
}

// signal / await order the two ranks on the host as well as on the
// virtual clock: await returns only after the peer's signal was injected,
// and everything the peer sent before the signal is already queued.
func (x *p2pCtx) signal(dst int) {
	x.obs.note(x.r.Send(dst, 99, gpusim.NewHostBuffer(4)))
}

func (x *p2pCtx) await(src int) {
	x.obs.note(x.r.Recv(src, 99, gpusim.NewHostBuffer(4)))
}

func p2pPatterns() []p2pPattern {
	return []p2pPattern{
		{"send-recv", func(x *p2pCtx) {
			// Ping-pong: one message in flight at a time.
			in := x.recvBuf()
			if x.r.ID() == 0 {
				x.wait(x.isend(1, 0, x.sendBuf(0)))
				x.wait(x.irecv(1, 0, in))
			} else {
				x.wait(x.irecv(0, 0, in))
				x.wait(x.isend(0, 0, x.sendBuf(0)))
			}
			x.obs.sum(in)
		}},
		{"sendrecv", func(x *p2pCtx) {
			// Bidirectional exchange, receive posted first (Sendrecv's order).
			peer, in := 1-x.r.ID(), x.recvBuf()
			rreq := x.irecv(peer, 1, in)
			sreq := x.isend(peer, 1, x.sendBuf(1))
			x.wait(sreq, rreq)
			x.obs.sum(in)
		}},
		{"isend4", func(x *p2pCtx) {
			// Four outstanding sends of one tracked buffer into pre-posted
			// receives: every match completes on the sender's goroutine.
			if x.r.ID() == 0 {
				x.await(1)
				out := x.sendBuf(2)
				var reqs []*Request
				for tag := 0; tag < 4; tag++ {
					reqs = append(reqs, x.isend(1, tag, out))
				}
				x.wait(reqs...)
				return
			}
			var reqs []*Request
			var ins []*gpusim.Buffer
			for tag := 0; tag < 4; tag++ {
				ins = append(ins, x.recvBuf())
				reqs = append(reqs, x.irecv(0, tag, ins[tag]))
			}
			x.signal(0)
			x.wait(reqs...)
			x.obs.sum(ins...)
		}},
		{"anysource", func(x *p2pCtx) {
			// Two sends queue unexpected, then wildcard receives match them
			// on the receiver's goroutine in arrival order.
			if x.r.ID() == 0 {
				a := x.isend(1, 7, x.sendBuf(3))
				b := x.isend(1, 8, x.sendBuf(4))
				x.signal(1)
				x.wait(a, b)
				return
			}
			x.await(0)
			for i := 0; i < 2; i++ {
				in := x.recvBuf()
				x.wait(x.irecv(AnySource, AnyTag, in))
				x.obs.sum(in)
			}
		}},
	}
}

func runP2PCell(t *testing.T, name string, nodes, ppn int, geo goldenGeometry, size goldenSize, eng goldenEngine,
	typed bool, fp goldenFaults, pat p2pPattern, workers int) transportCell {
	t.Helper()
	cfg := eng.cfg
	cfg.Threshold = geo.chunk / 2
	cfg.PipelineChunkBytes = geo.chunk
	cfg.Workers = workers
	cfg.Breaker = fp.breaker
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn, Engine: cfg, Faults: fp.cfg, Retry: fp.retry})
	var typ dtype.Type
	ext := size.words
	if typed {
		sub := size.sub
		dims := [3]int{sub[0] + 2, sub[1] + 2, sub[2]}
		typ = dtype.Subarray3D{Dims: dims, Sub: sub, Start: [3]int{1, 1, 0}}
		ext = dims[0] * dims[1] * dims[2]
	}
	obs := make([]rankObs, w.Size())
	times, errs := w.RunAll(func(r *Rank) error {
		pat.run(&p2pCtx{r: r, obs: &obs[r.ID()], size: size, typ: typ, ext: ext})
		return nil
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("%s: rank %d: %v", name, id, err)
		}
	}
	cell := observeCell(name, w, times, obs, fp.cfg != nil)
	// Inside one node both directions of an exchange book the same GPU-link
	// calendar, in whichever order the two goroutines reach it.
	cell.protocolOnly = ppn > 1 && pat.name == "sendrecv"
	return cell
}

func p2pCells(t *testing.T, workers int) []transportCell {
	var cells []transportCell
	for _, topo := range [][2]int{{2, 1}, {1, 2}} {
		for _, size := range scaledGeometry.sizes {
			for _, eng := range goldenEngines() {
				for _, typed := range []bool{false, true} {
					for _, fp := range goldenFaultPlans() {
						if !fp.reaches(topo[0], size, eng, typed) {
							continue
						}
						for _, pat := range p2pPatterns() {
							layout := "flat"
							if typed {
								layout = "subarray"
							}
							name := fmt.Sprintf("p2p/%dx%d/%s/%s/%s/%s/%s", topo[0], topo[1], size.tier, eng.name, layout, fp.name, pat.name)
							cells = append(cells, runP2PCell(t, name, topo[0], topo[1], scaledGeometry, size, eng, typed, fp, pat, workers))
						}
					}
				}
			}
		}
	}
	// The paper-geometry spine: flat ping-pong across the three rendezvous
	// tiers at 256 KiB chunks, fault-free and under chunk fates.
	plans := goldenFaultPlans()
	for _, size := range paperGeometry.sizes {
		for _, eng := range goldenEngines() {
			for _, fp := range []goldenFaults{plans[0], plans[2]} {
				if !fp.reaches(2, size, eng, false) {
					continue
				}
				name := fmt.Sprintf("p2p/2x1/paper-%s/%s/flat/%s/send-recv", size.tier, eng.name, fp.name)
				cells = append(cells, runP2PCell(t, name, 2, 1, paperGeometry, size, eng, false, fp, p2pPatterns()[0], workers))
			}
		}
	}
	return cells
}

// --- collective cells ---

// collOp is one collective under the osu_* buffer shapes internal/omb
// uses: setup allocates the persistent (tracked) buffers once, the
// returned closure is one iteration, out is what the rank ends up with.
type collOp struct {
	name  string
	setup func(r *Rank, words int) (op func() error, out *gpusim.Buffer)
}

func goldenCollectives() []collOp {
	tracked := func(r *Rank, salt, words int) *gpusim.Buffer {
		return goldenPayload(r, salt, words).Track()
	}
	empty := func(r *Rank, words int) *gpusim.Buffer { return emptyDevBuf(r, words).Track() }
	allreduce := func(name string, call func(*Rank, *gpusim.Buffer, *gpusim.Buffer) error) collOp {
		return collOp{name, func(r *Rank, words int) (func() error, *gpusim.Buffer) {
			send, recv := tracked(r, 1, words), empty(r, words)
			return func() error { return call(r, send, recv) }, recv
		}}
	}
	bcast := func(name string, call func(*Rank, int, *gpusim.Buffer) error) collOp {
		return collOp{name, func(r *Rank, words int) (func() error, *gpusim.Buffer) {
			buf := tracked(r, 2, words)
			return func() error { return call(r, 0, buf) }, buf
		}}
	}
	allgather := func(name string, call func(*Rank, *gpusim.Buffer, *gpusim.Buffer) error) collOp {
		return collOp{name, func(r *Rank, words int) (func() error, *gpusim.Buffer) {
			blk := words / 4
			send, recv := tracked(r, 3, blk), empty(r, blk*r.Size())
			return func() error { return call(r, send, recv) }, recv
		}}
	}
	return []collOp{
		{"barrier", func(r *Rank, _ int) (func() error, *gpusim.Buffer) { return r.Barrier, nil }},
		bcast("bcast", (*Rank).Bcast),
		bcast("bcast-hier", (*Rank).BcastHierarchical),
		bcast("bcast-sag", (*Rank).BcastScatterAllgather),
		allgather("allgather", (*Rank).Allgather),
		allgather("allgather-hier", (*Rank).AllgatherHierarchical),
		allreduce("allreduce", (*Rank).AllreduceSum),
		allreduce("ring-allreduce", allreduceBy(sched.Ring, true)),
		allreduce("ring-allreduce-blocking", allreduceBy(sched.Ring, false)),
		allreduce("rd-allreduce", allreduceBy(sched.RecursiveDoubling, true)),
		allreduce("rd-allreduce-blocking", allreduceBy(sched.RecursiveDoubling, false)),
		allreduce("rab-allreduce", allreduceBy(sched.Rabenseifner, true)),
		allreduce("rab-allreduce-blocking", allreduceBy(sched.Rabenseifner, false)),
		allreduce("two-level-allreduce", allreduceBy(sched.TwoLevel, true)),
		{"reduce", func(r *Rank, words int) (func() error, *gpusim.Buffer) {
			send, recv := tracked(r, 4, words), empty(r, words)
			return func() error { return r.ReduceSum(0, send, recv) }, recv
		}},
		{"gather", func(r *Rank, words int) (func() error, *gpusim.Buffer) {
			blk := words / 4
			send := tracked(r, 5, blk)
			var recv *gpusim.Buffer
			if r.ID() == 0 {
				recv = empty(r, blk*r.Size())
			}
			return func() error { return r.Gather(0, send, recv) }, recv
		}},
		{"scatter", func(r *Rank, words int) (func() error, *gpusim.Buffer) {
			blk := words / 4
			var send *gpusim.Buffer
			if r.ID() == 0 {
				send = tracked(r, 6, blk*r.Size())
			}
			recv := empty(r, blk)
			return func() error { return r.Scatter(0, send, recv) }, recv
		}},
		{"alltoall", func(r *Rank, words int) (func() error, *gpusim.Buffer) {
			blk := words / 4
			send, recv := tracked(r, 7, blk*r.Size()), empty(r, blk*r.Size())
			return func() error { return r.Alltoall(send, recv) }, recv
		}},
		{"alltoallv", func(r *Rank, words int) (func() error, *gpusim.Buffer) {
			// omb's ragged (i+j)%3 segments around a quarter of the message.
			seg := func(i, j int) int { return 4 * (words / 8 * (1 + (i+j)%3)) }
			size, me := r.Size(), r.ID()
			sc, sd, rc, rd := make([]int, size), make([]int, size), make([]int, size), make([]int, size)
			stot, rtot := 0, 0
			for j := 0; j < size; j++ {
				sd[j], rd[j] = stot, rtot
				sc[j], rc[j] = seg(me, j), seg(j, me)
				stot += sc[j]
				rtot += rc[j]
			}
			send, recv := tracked(r, 8, stot/4), empty(r, rtot/4)
			return func() error { return r.Alltoallv(send, sc, sd, recv, rc, rd) }, recv
		}},
	}
}

// goldenCollWords is the message size of the collective cells (64 KiB
// vectors) and goldenCollChunk their chunk size when chunking is on: a
// 4-rank ring block is a two-chunk stream, a 3-rank one a ragged three,
// an 8-rank one an eager message, and a relayed broadcast payload travels
// as segments.
const (
	goldenCollWords = 16 << 10
	goldenCollChunk = 8 << 10
)

func runCollCell(t *testing.T, name string, nodes, ppn, chunk int, op collOp, workers int) transportCell {
	t.Helper()
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn, Engine: core.Config{
		Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 4 << 10, PipelineChunkBytes: chunk, Workers: workers}})
	obs := make([]rankObs, w.Size())
	times, err := w.Run(func(r *Rank) error {
		run, out := op.setup(r, goldenCollWords)
		// Two iterations: the first compresses, the second finds the
		// compress-once cache warm wherever the schedule sends unchanged bytes.
		for it := 0; it < 2; it++ {
			if err := r.Barrier(); err != nil {
				return err
			}
			if err := run(); err != nil {
				return err
			}
			obs[r.ID()].mark(r)
			obs[r.ID()].sum(out)
		}
		obs[r.ID()].note(nil)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cell := observeCell(name, w, times, obs, false)
	cell.protocolOnly = ppn > 1
	return cell
}

// runHealCell replays TestSelfHealPipelinedRingDeterminism's scenario: a
// chunked ring allreduce on 4x2 loses a crash-fated rank mid-run and the
// survivors shrink and complete.
func runHealCell(t *testing.T, workers int) transportCell {
	t.Helper()
	const nodes, ppn, words, iters = 4, 2, 8 << 10, 10
	fcfg := faults.Config{CrashRate: 0.15, FailWindow: 150 * simtime.Microsecond}
	fcfg.Seed = findHealSeed(t, nodes*ppn, fcfg, 1)
	w := mustWorld(t, Options{
		Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 2 << 10,
			PoolBufBytes: 2 << 20, PipelineChunkBytes: 4 << 10, Workers: workers},
		Faults: &fcfg,
		Health: HealthPolicy{SelfHeal: true, Deadline: 300 * simtime.Microsecond},
	})
	obs := make([]rankObs, w.Size())
	times, errs := w.RunAll(func(r *Rank) error {
		send, recv := goldenPayload(r, 9, words), emptyDevBuf(r, words)
		for it := 0; it < iters; it++ {
			if err := allreduceBy(sched.Ring, true)(r, send, recv); err != nil {
				return err
			}
		}
		obs[r.ID()].sum(recv)
		return nil
	})
	for id, err := range errs {
		obs[id].note(err)
	}
	return observeCell("heal/4x2/ring-allreduce/crash", w, times, obs, true)
}

func collCells(t *testing.T, workers int) []transportCell {
	var cells []transportCell
	for _, topo := range [][2]int{{4, 1}, {3, 1}, {8, 1}, {1, 4}, {4, 2}} {
		for _, chunk := range []int{0, goldenCollChunk} {
			for _, op := range goldenCollectives() {
				name := fmt.Sprintf("coll/%dx%d/%s/chunk=%d", topo[0], topo[1], op.name, chunk)
				cells = append(cells, runCollCell(t, name, topo[0], topo[1], chunk, op, workers))
			}
		}
	}
	return append(cells, runHealCell(t, workers))
}

func transportCells(t *testing.T, workers int) []transportCell {
	return append(p2pCells(t, workers), collCells(t, workers)...)
}

// stableTiming replays the cells goldenReplays times at each of three
// GOMAXPROCS settings and reports, by name, which ones produced one timing
// plane every time. A protocol plane that moves is a bug in the golden
// itself.
func stableTiming(t *testing.T, first []transportCell) map[string]bool {
	stable := make(map[string]bool, len(first))
	for _, c := range first {
		stable[c.Name] = true
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for replay := 0; replay < goldenReplays; replay++ {
			for i, c := range transportCells(t, 1) {
				if strings.Join(c.Protocol, "\n") != strings.Join(first[i].Protocol, "\n") {
					t.Fatalf("%s: protocol plane is not reproducible:\n%s\nvs\n%s", c.Name,
						strings.Join(c.Protocol, "\n"), strings.Join(first[i].Protocol, "\n"))
				}
				if strings.Join(c.Timing, "\n") != strings.Join(first[i].Timing, "\n") {
					stable[c.Name] = false
				}
			}
		}
	}
	return stable
}

func TestTransportGolden(t *testing.T) {
	write := os.Getenv("TRANSPORT_GOLDEN") == "write"
	var want []byte
	timed := map[string]bool{}
	if !write {
		var err error
		if want, err = os.ReadFile(transportGolden); err != nil {
			t.Fatal(err)
		}
		var cells []transportCell
		if err := json.Unmarshal(want, &cells); err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			timed[c.Name] = c.Timing != nil
		}
	}
	for _, workers := range []int{1, 2, 8} {
		cells := transportCells(t, workers)
		if write && want == nil {
			stable := stableTiming(t, cells)
			for _, c := range cells {
				timed[c.Name] = stable[c.Name] && !c.protocolOnly
				if !stable[c.Name] && !c.protocolOnly {
					t.Logf("demoted to the protocol plane: %s", c.Name)
				}
			}
		}
		for i := range cells {
			if !timed[cells[i].Name] {
				cells[i].Timing = nil
			}
		}
		got, err := json.MarshalIndent(cells, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if write && want == nil {
			// The first worker count writes the file; the others must match it.
			want = got
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(transportGolden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: transport diverges from %s: %s", workers, transportGolden, firstTransportDiff(got, want))
		}
	}
}

// firstTransportDiff names the first differing line and its cell.
func firstTransportDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	cell := ""
	for i := 0; i < len(g) && i < len(w); i++ {
		if bytes.Contains(g[i], []byte(`"name"`)) {
			cell = string(bytes.TrimSpace(g[i]))
		}
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d in cell %s:\n got  %s\n want %s", i+1, cell, g[i], w[i])
		}
	}
	return fmt.Sprintf("length differs: got %d lines, want %d", len(g), len(w))
}
