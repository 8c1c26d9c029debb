package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
	"mpicomp/internal/trace"
	"mpicomp/internal/tune"
	"mpicomp/internal/zfp"
)

// rotations is how many different cuts of the dataset each rank sends in
// turn. With MarkDirty before every operation it makes every message a
// compress-once cache miss: the paper's library has no cross-iteration
// cache, and an application's data changes every step.
const rotations = 4

// params are the generated inputs of one run. The program under test is
// built from them and never sees the seed or a workload name.
type params struct {
	seed    uint64
	scale   int    // payload divisor: 1 in benchmark runs, more in the smoke test and -check
	dataset string // Table III dataset the payloads are cut from
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// size scales a nominal payload and trims it by a seed-chosen amount of
// at most 0.4 %, in 16-byte units: fixed-rate ZFP and uncompressed
// transfers cost the same whatever the bytes are, so the length is the
// one input of theirs a seed can vary.
func (p params) size(nominal int) int {
	n := nominal / p.scale
	if units := n / 4096; units > 1 {
		n -= 16 * int(mix(p.seed)%uint64(units))
	}
	return n
}

// source is the dataset stream every send buffer of a run is a window of.
// Windows overlap and are shared between ranks; nothing writes to them.
type source struct {
	seed  uint64
	bytes []byte
	slack int // words a window's start may move by
}

func newSource(p params, maxBytes int) (*source, error) {
	ds, ok := datasets.ByName(p.dataset)
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", p.dataset)
	}
	const slack = 1 << 16
	vals := ds.Values(maxBytes/4 + slack)
	return &source{seed: p.seed, bytes: core.FloatsToBytes(nil, vals), slack: slack}, nil
}

// window returns the n-byte cut of the stream that rank q sends in
// rotation k.
func (s *source) window(q, k, n int) []byte {
	off := 4 * int(mix(s.seed^uint64(q)<<32^uint64(k)<<16)%uint64(s.slack))
	return s.bytes[off : off+n]
}

func deviceView(r *mpi.Rank, data []byte) *gpusim.Buffer {
	return (&gpusim.Buffer{Data: data, Loc: gpusim.Device, Dev: r.Dev}).Track()
}

func deviceBuf(r *mpi.Rank, n int) *gpusim.Buffer {
	return deviceView(r, make([]byte, n))
}

// opOut is what one operation produced: its simulated latency and the
// outputs the harness checks.
type opOut struct {
	sim   simtime.Duration
	crcs  []uint32 // CRC32-C of every receive buffer, in rank order
	value float64  // awp_halo: field checksum; p2p_zfp: worst abs error / worst abs value
	pick  mpi.AllreduceAlgo
	awp   awpodc.Result
}

// arm is one configured instance of a workload: the compressed arm that
// is timed, or the Mode-off arm that is the reference.
type arm struct {
	world *mpi.World
	tuner *tune.Tuner
	// op runs operation i on rotation i%rotations. The clocks are reset
	// first, so the simulated latency is the slowest rank's final clock.
	op func(i int, rec *recorder, parent int) (opOut, error)
	// digest fills in the checked outputs of the operation just run
	// (untimed).
	digest func(out *opOut)
	// payload is the application bytes one operation delivers.
	payload int64
	// ladderData is the message the layer ladder is run on: rank 0's
	// first rotation.
	ladderData []byte
	// halo, when set, is the typed layout the ladder's typed rungs use
	// over ladderData; other workloads get a layout of the same shape
	// sized to their message.
	halo *dtype.Subarray3D
	// epoch runs one tuner-observed allreduce on its own (coll_mix only),
	// so that the tuner converges without paying for the whole mix.
	epoch func(i int) (mpi.AllreduceAlgo, error)
}

// spec describes a workload. build makes one arm from generated inputs.
type spec struct {
	name string
	why  string
	// codec is the compressed arm's engine configuration.
	codec core.Config
	// lossless workloads must match the Mode-off arm bit for bit.
	lossless bool
	// mustGain workloads sit inside the paper's winning regime and fail
	// when compression does not beat the Mode-off arm.
	mustGain bool
	// noCodec workloads must never reach the codec.
	noCodec bool
	// field workloads are lossy and checked by the checksum of the field
	// they compute instead of message by message.
	field bool
	build builder
}

// builder makes one arm of a workload from generated inputs. algo pins
// the allreduce schedule where the workload has one to pin.
type builder func(p params, cfg core.Config, algo mpi.AllreduceAlgo, tr *trace.Collector) (*arm, error)

var (
	mpcOpt = core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1}
	zfpOpt = core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}
)

var specs = []spec{
	{
		name:     "p2p_mpc",
		why:      "16 MiB msg_sppm ping-pong on IB EDR, MPC-OPT, every message compressed: codec-bound host path, inside the paper's winning regime (Fig. 9a)",
		codec:    mpcOpt,
		lossless: true, mustGain: true,
		build: buildP2P(16 << 20),
	},
	{
		name:     "p2p_zfp",
		why:      "4 MiB ping-pong, ZFP-OPT rate 8: same stack, other codec (zfp + bitstream dominate), lossy so accuracy is an output; an MPC-only change must not move it",
		codec:    zfpOpt,
		mustGain: true,
		build:    buildP2P(4 << 20),
	},
	{
		name:     "small_msgs",
		why:      "8 ranks, 1000 ring Sendrecv rounds of 8 B to 64 KiB, all under the 256 KiB threshold: bypasses the codec, so host time is mpi + netsim + simtime + goroutine hand-off; a codec change predicts no move",
		codec:    mpcOpt,
		lossless: true, noCodec: true,
		build: buildSmall,
	},
	{
		name:     "coll_mix",
		why:      "Bcast + Allgather + tuned AllreduceSum of 4 MiB/rank on 4x2 (Fig. 11): about 1 compress to 7 decompress with in-op cache hits, where p2p is 1 to 1 with pure misses; schedules and tuner live here",
		codec:    mpcOpt,
		lossless: true, mustGain: true,
		build: buildColl,
	},
	{
		name:     "alltoallv_mpc",
		why:      "ragged 8 MiB-mean Alltoallv on 2x2: many concurrent large transfers on shared adapter calendars with wave barriers; the simulator's own per-byte cost shows (Mode-off host time is comparable)",
		codec:    mpcOpt,
		lossless: true,
		build:    buildAlltoallv,
	},
	{
		name:     "awp_halo",
		why:      "AWP-ODC 320x320x32 on Frontera Liquid 2x4, typed Subarray3D halos, ZFP-OPT rate 8 (Fig. 12): only workload on the dtype + typed path; host time is stencil-dominated, the dilution check",
		codec:    zfpOpt,
		mustGain: true, field: true,
		build: buildAWP,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runRanks resets the clocks, runs fn on every rank and returns the
// slowest rank's simulated time.
func runRanks(w *mpi.World, fn func(r *mpi.Rank) error) (simtime.Duration, error) {
	w.ResetClocks()
	times, err := w.Run(fn)
	return simtime.Duration(mpi.MaxTime(times)), err
}

// crcAll appends the CRC32-C of each buffer.
func crcAll(dst []uint32, bufs ...*gpusim.Buffer) []uint32 {
	for _, b := range bufs {
		dst = append(dst, core.Checksum(b.Data))
	}
	return dst
}

// buildP2P is the osu_latency shape: rank 0 sends, rank 1 answers with
// its own data, one operation is one round trip (2 compressions and 2
// decompressions).
func buildP2P(nominal int) builder {
	return func(p params, cfg core.Config, _ mpi.AllreduceAlgo, tr *trace.Collector) (*arm, error) {
		return newP2P(p, cfg, p.size(nominal), tr)
	}
}

func newP2P(p params, cfg core.Config, n int, tr *trace.Collector) (*arm, error) {
	src, err := newSource(p, n)
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg, Tracer: tr})
	if err != nil {
		return nil, err
	}
	var send [2][rotations]*gpusim.Buffer
	var recv [2]*gpusim.Buffer
	for q := 0; q < 2; q++ {
		for k := range send[q] {
			send[q][k] = deviceView(w.Rank(q), src.window(q, k, n))
		}
		recv[q] = deviceBuf(w.Rank(q), n)
	}
	a := &arm{world: w, payload: int64(2 * n), ladderData: send[0][0].Data}
	rot := 0
	a.op = func(i int, rec *recorder, parent int) (opOut, error) {
		rot = i % rotations
		sim, err := runRanks(w, func(r *mpi.Rank) error {
			q := r.ID()
			sb := send[q][rot]
			sb.MarkDirty()
			snd := func() error { return r.Send(1-q, 0, sb) }
			rcv := func() error { return r.Recv(1-q, 0, recv[q]) }
			first, second, names := snd, rcv, [2]string{"Send", "Recv"}
			if q == 1 {
				first, second, names = rcv, snd, [2]string{"Recv", "Send"}
			}
			if err := rec.do(parent, "mpi", names[0], i, q+1, first); err != nil {
				return err
			}
			return rec.do(parent, "mpi", names[1], i, q+1, second)
		})
		return opOut{sim: sim}, err
	}
	lossy := cfg.Mode != core.ModeOff && cfg.Algorithm == core.AlgoZFP
	a.digest = func(out *opOut) {
		out.crcs = crcAll(out.crcs[:0], recv[0], recv[1])
		if !lossy {
			return
		}
		// Worst error relative to the worst magnitude, over both
		// directions.
		var maxErr, maxAbs float64
		for q := 0; q < 2; q++ {
			got, want := recv[q].Data, send[1-q][rot].Data
			for j := 0; j < n; j += 4 {
				g := math.Float32frombits(binary.LittleEndian.Uint32(got[j:]))
				v := math.Float32frombits(binary.LittleEndian.Uint32(want[j:]))
				maxErr = math.Max(maxErr, math.Abs(float64(g)-float64(v)))
				maxAbs = math.Max(maxAbs, math.Abs(float64(v)))
			}
		}
		out.value = maxErr / maxAbs
		_, emax := math.Frexp(maxAbs)
		if maxErr > zfp.MaxError(emax, cfg.ZFPRate) {
			out.value = math.Inf(1) // past the codec's bound: a failed operation
		}
	}
	return a, nil
}

// smallRounds is the number of ring exchanges in one small_msgs operation.
const smallRounds = 1000

// buildSmall exchanges messages that all stay under the compression
// threshold and straddle the 16 KiB eager limit.
func buildSmall(p params, cfg core.Config, _ mpi.AllreduceAlgo, tr *trace.Collector) (*arm, error) {
	sizes := []int{8, 1 << 10, 16 << 10, p.size(64 << 10)}
	src, err := newSource(p, sizes[3])
	if err != nil {
		return nil, err
	}
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Engine: cfg, Tracer: tr})
	if err != nil {
		return nil, err
	}
	P := w.Size()
	send := make([][]*gpusim.Buffer, P)
	recv := make([][]*gpusim.Buffer, P)
	var all []*gpusim.Buffer
	for q := 0; q < P; q++ {
		for k, n := range sizes {
			send[q] = append(send[q], deviceView(w.Rank(q), src.window(q, k, n)))
			recv[q] = append(recv[q], deviceBuf(w.Rank(q), n))
		}
		all = append(all, recv[q]...)
	}
	rounds := smallRounds / p.scale
	var perRound int64
	for _, n := range sizes {
		perRound += int64(n)
	}
	a := &arm{world: w, payload: perRound * int64(P) * int64(rounds) / int64(len(sizes)), ladderData: send[0][3].Data}
	a.op = func(i int, rec *recorder, parent int) (opOut, error) {
		sim, err := runRanks(w, func(r *mpi.Rank) error {
			q := r.ID()
			right, left := (q+1)%P, (q+P-1)%P
			for round := 0; round < rounds; round++ {
				k := round % len(sizes)
				err := rec.do(parent, "mpi", "Sendrecv", i, q+1, func() error {
					return r.Sendrecv(right, k, send[q][k], left, k, recv[q][k])
				})
				if err != nil {
					return err
				}
				if round%8 == 7 {
					if err := rec.do(parent, "mpi", "Barrier", i, q+1, r.Barrier); err != nil {
						return err
					}
				}
			}
			return nil
		})
		return opOut{sim: sim}, err
	}
	a.digest = func(out *opOut) { out.crcs = crcAll(out.crcs[:0], all...) }
	return a, nil
}

// buildColl runs the three collectives of Fig. 11 back to back. algo
// pins the Mode-off arm to the schedule the compressed arm's tuner
// converged on, so both arms add in the same order and their outputs
// can be compared bit for bit; AllreduceAuto wires a fresh tuner.
func buildColl(p params, cfg core.Config, algo mpi.AllreduceAlgo, tr *trace.Collector) (*arm, error) {
	n := p.size(4 << 20)
	src, err := newSource(p, n)
	if err != nil {
		return nil, err
	}
	opt := mpi.Options{Cluster: hw.Longhorn(), Nodes: 4, PPN: 2, Engine: cfg, Tracer: tr, Allreduce: algo}
	a := &arm{}
	if algo == mpi.AllreduceAuto {
		a.tuner = tune.NewTuner(tune.Options{Seed: int64(p.seed), Cluster: opt.Cluster})
		opt.Tuner = a.tuner
	}
	w, err := mpi.NewWorld(opt)
	if err != nil {
		return nil, err
	}
	P := w.Size()
	send := make([][rotations]*gpusim.Buffer, P)
	bc := make([]*gpusim.Buffer, P)
	ag := make([]*gpusim.Buffer, P)
	ar := make([]*gpusim.Buffer, P)
	var all []*gpusim.Buffer
	for q := 0; q < P; q++ {
		r := w.Rank(q)
		for k := range send[q] {
			send[q][k] = deviceView(r, src.window(q, k, n))
		}
		bc[q], ag[q], ar[q] = deviceBuf(r, n), deviceBuf(r, P*n), deviceBuf(r, n)
		if q != 0 {
			all = append(all, bc[q])
		}
		all = append(all, ag[q], ar[q])
	}
	a.world = w
	// Bytes delivered: a broadcast to P-1 ranks, P-1 foreign blocks
	// gathered by each of P ranks, and one reduced vector per rank.
	a.payload = int64(n) * int64((P-1)+P*(P-1)+P)
	a.ladderData = send[0][0].Data
	point := mpi.TunePoint{Bytes: n, Ranks: P, Nodes: 4, PPN: 2}
	a.op = func(i int, rec *recorder, parent int) (opOut, error) {
		out := opOut{pick: algo}
		if a.tuner != nil {
			out.pick = a.tuner.PickAllreduce(point)
		}
		k := i % rotations
		sim, err := runRanks(w, func(r *mpi.Rank) error {
			q := r.ID()
			sb := send[q][k]
			sb.MarkDirty()
			root := sb
			if q != 0 {
				root = bc[q]
			}
			if err := rec.do(parent, "mpi", "Bcast", i, q+1, func() error { return r.Bcast(0, root) }); err != nil {
				return err
			}
			if err := rec.do(parent, "mpi", "Allgather", i, q+1, func() error { return r.Allgather(sb, ag[q]) }); err != nil {
				return err
			}
			return rec.do(parent, "mpi", "AllreduceSum", i, q+1, func() error { return r.AllreduceSum(sb, ar[q]) })
		})
		if a.tuner != nil {
			a.tuner.Advance()
		}
		out.sim = sim
		return out, err
	}
	a.digest = func(out *opOut) { out.crcs = crcAll(out.crcs[:0], all...) }
	a.epoch = func(i int) (mpi.AllreduceAlgo, error) {
		pick := a.tuner.PickAllreduce(point)
		k := i % rotations
		_, err := runRanks(w, func(r *mpi.Rank) error {
			q := r.ID()
			send[q][k].MarkDirty()
			return r.AllreduceSum(send[q][k], ar[q])
		})
		a.tuner.Advance()
		return pick, err
	}
	return a, nil
}

// converge runs allreduce epochs until the tuner has sampled every
// candidate schedule and starts exploiting, then returns its pick.
func (a *arm) converge() (mpi.AllreduceAlgo, error) {
	seen := map[mpi.AllreduceAlgo]bool{}
	for e := 0; e < 16; e++ {
		pick, err := a.epoch(e)
		if err != nil {
			return 0, err
		}
		if seen[pick] {
			return pick, nil
		}
		seen[pick] = true
	}
	return 0, fmt.Errorf("tuner still exploring after 16 epochs: %s", a.tuner.StatsLine())
}

// buildAlltoallv uses omb.AlltoallvLatency's ragged (i+j)%3 segments.
func buildAlltoallv(p params, cfg core.Config, _ mpi.AllreduceAlgo, tr *trace.Collector) (*arm, error) {
	mean := p.size(8 << 20)
	segBytes := func(i, j int) int { return 4 * (mean / 8 * (1 + (i+j)%3)) }
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 2, Engine: cfg, Tracer: tr})
	if err != nil {
		return nil, err
	}
	P := w.Size()
	type layout struct{ sc, sd, rc, rd []int }
	lay := make([]layout, P)
	stot := make([]int, P)
	rtot := make([]int, P)
	maxSend := 0
	for q := 0; q < P; q++ {
		l := &lay[q]
		for j := 0; j < P; j++ {
			l.sd, l.rd = append(l.sd, stot[q]), append(l.rd, rtot[q])
			l.sc, l.rc = append(l.sc, segBytes(q, j)), append(l.rc, segBytes(j, q))
			stot[q] += segBytes(q, j)
			rtot[q] += segBytes(j, q)
		}
		if stot[q] > maxSend {
			maxSend = stot[q]
		}
	}
	src, err := newSource(p, maxSend)
	if err != nil {
		return nil, err
	}
	send := make([][rotations]*gpusim.Buffer, P)
	recv := make([]*gpusim.Buffer, P)
	a := &arm{world: w}
	for q := 0; q < P; q++ {
		for k := range send[q] {
			send[q][k] = deviceView(w.Rank(q), src.window(q, k, stot[q]))
		}
		recv[q] = deviceBuf(w.Rank(q), rtot[q])
		a.payload += int64(rtot[q])
	}
	a.ladderData = send[0][0].Data[:lay[0].sc[1]]
	a.op = func(i int, rec *recorder, parent int) (opOut, error) {
		k := i % rotations
		sim, err := runRanks(w, func(r *mpi.Rank) error {
			q := r.ID()
			sb, l := send[q][k], lay[q]
			sb.MarkDirty()
			return rec.do(parent, "mpi", "Alltoallv", i, q+1, func() error {
				return r.Alltoallv(sb, l.sc, l.sd, recv[q], l.rc, l.rd)
			})
		})
		return opOut{sim: sim}, err
	}
	a.digest = func(out *opOut) { out.crcs = crcAll(out.crcs[:0], recv...) }
	return a, nil
}

// buildAWP runs the paper's application: one operation is a 4-step
// AWP-ODC run exchanging typed halos. Its inputs are the mesh, so the
// seed has nothing to choose.
func buildAWP(p params, cfg core.Config, _ mpi.AllreduceAlgo, tr *trace.Collector) (*arm, error) {
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.FronteraLiquid(), Nodes: 2, PPN: 4, Engine: cfg, Tracer: tr})
	if err != nil {
		return nil, err
	}
	nz := 32 / p.scale
	if nz < 8 {
		nz = 8
	}
	acfg := awpodc.Config{NX: 320, NY: 320, NZ: nz, Fields: 9, Steps: 4}
	px, py := awpodc.ProcessGrid(w.Size())
	hx, hy := acfg.HaloBytesX(), acfg.HaloBytesY()
	a := &arm{world: w}
	a.payload = int64(acfg.Steps) * 2 * (int64((px-1)*py)*int64(hx) + int64(px*(py-1))*int64(hy))
	// The ladder's message is an X-face boundary mirror like the one
	// awpodc sends from: two interleaved sides, one of them selected.
	a.halo = &dtype.Subarray3D{Dims: [3]int{2, acfg.NY, acfg.Fields * nz}, Sub: [3]int{1, acfg.NY, acfg.Fields * nz}}
	a.ladderData = core.FloatsToBytes(nil, datasets.Smooth(2*hx/4, p.seed, 1e-3))
	var last awpodc.Result
	a.op = func(i int, rec *recorder, parent int) (opOut, error) {
		w.ResetClocks()
		err := rec.do(parent, "awpodc", "Run", i, 0, func() error {
			var err error
			last, err = awpodc.Run(w, acfg)
			return err
		})
		return opOut{sim: last.TimePerStep, awp: last}, err
	}
	a.digest = func(out *opOut) { out.value = last.Checksum }
	return a, nil
}
