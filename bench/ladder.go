package main

import (
	"math"
	"runtime"
	"time"

	"mpicomp/internal/bitstream"
	"mpicomp/internal/codecpool"
	"mpicomp/internal/core"
	"mpicomp/internal/dtype"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpc"
	"mpicomp/internal/mpi"
	"mpicomp/internal/netsim"
	"mpicomp/internal/simtime"
	"mpicomp/internal/tune"
	"mpicomp/internal/zfp"
)

// The ladder times calls into each layer's public API, from the bit
// stream up to a two-rank world, on the workload's own message. Every
// call is a span; a rung's figure is the median of its spans. A layer's
// own cost is its rung minus the rungs it is built on.

const (
	rungBudget  = 200 * time.Millisecond // default of options.rung
	rungWarmup  = 2                      // unrecorded calls: first touches of fresh memory are not the layer's cost
	rungMinReps = 5
	rungMaxReps = 400
	// otherCodecCap bounds the rung of the codec the workload does not
	// use, which is there to show that it did not move.
	otherCodecCap = 1 << 20
	// zfpCap bounds ZFP rungs: the pure-Go codec runs at about 22 MB/s.
	zfpCap = 4 << 20
)

// sink keeps results alive so that the compiler cannot drop the calls.
var sink uint64

type ladder struct {
	rec   *recorder
	root  int
	msg   []byte
	cfg   core.Config
	halo  *dtype.Subarray3D
	delay time.Duration // -check: added in the wrapper around CompressAppend
	spend time.Duration // per rung
	m     *metricSet
	wire  int // bytes the engine put on the wire for the message
}

// rung calls f under a span layer.name until l.spend is spent, at
// least rungMinReps times, and returns the median span.
func (l *ladder) rung(layer, name string, f func(span int)) time.Duration {
	for i := 0; i < rungWarmup; i++ {
		f(0)
	}
	start := time.Now()
	for i := 0; i < rungMaxReps && (i < rungMinReps || time.Since(start) < l.spend); i++ {
		id := l.rec.begin(l.root, layer, name, -1, 0)
		f(id)
		l.rec.end(id)
	}
	return medianDur(l.rec.durations(layer, name))
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

func mbPerS(bytes int, d time.Duration) float64 { return float64(bytes) / 1e6 / d.Seconds() }

func capTo(b []byte, n int) []byte {
	if len(b) > n {
		return b[:n&^15]
	}
	return b[:len(b)&^15]
}

// run climbs the ladder and returns the engine's default-worker compress
// and decompress times per byte, which the traced run uses to attribute
// an operation's host time.
func (l *ladder) run() (compPerByte, decompPerByte float64) {
	l.bitstream()
	mc, md, mv := l.mpc()
	zc, zd, zv := l.zfp()
	codec := mc + md + 2*mv
	if len(l.msg) < core.DefaultThreshold {
		codec = 0 // the engine bypasses the codec for this message
	}
	if l.cfg.Algorithm == core.AlgoZFP {
		codec = zc + zd + 2*zv
		l.m.set("core.convert_mb_s", mbPerS(len(capTo(l.msg, zfpCap)), zv))
	} else {
		l.m.set("core.convert_mb_s", mbPerS(len(l.msg), mv))
	}
	compPerByte, decompPerByte = l.engine(codec)
	l.typed()
	l.substrate()
	l.mpi()
	return compPerByte, decompPerByte
}

func (l *ladder) bitstream() {
	const calls = 1 << 16
	buf := make([]byte, 0, calls*4)
	var w bitstream.Writer
	var out []byte
	d := l.rung("bitstream", "WriteBits", func(int) {
		w.Reset(buf[:0])
		for i := 0; i < calls; i++ {
			w.WriteBits(uint64(i)*0x9e3779b97f4a7c15, uint(1+i%32))
		}
		out = w.Final()
	})
	l.m.set("bitstream.write_ns", float64(d)/calls)
	var r bitstream.Reader
	d = l.rung("bitstream", "ReadBits", func(int) {
		r.Reset(out)
		var acc uint64
		for i := 0; i < calls; i++ {
			acc += r.ReadBits(uint(1 + i%32))
		}
		sink += acc
	})
	l.m.set("bitstream.read_ns", float64(d)/calls)
}

// mpc returns the raw codec's compress and decompress times on the
// message and the time of one word->byte conversion pass. The engine
// makes two such passes per round trip (bytes->words before compressing,
// words->bytes after decompressing) into its own scratch; WordsToBytes
// into a reused buffer is the public call that does the same work
// without allocating.
func (l *ladder) mpc() (c, d, v time.Duration) {
	msg := l.msg
	if l.cfg.Algorithm == core.AlgoZFP {
		msg = capTo(msg, otherCodecCap)
	}
	words := core.BytesToWords(msg)
	var back []byte
	v = l.rung("core", "WordsToBytes", func(int) {
		back = core.WordsToBytes(back[:0], words)
	})
	comp := make([]byte, 0, mpc.Bound(len(words)))
	c = l.rung("mpc", "AppendCompressWords", func(int) {
		comp, _ = mpc.AppendCompressWords(comp[:0], words, 1)
	})
	out := make([]uint32, len(words))
	d = l.rung("mpc", "DecompressWordsInto", func(int) {
		if err := mpc.DecompressWordsInto(out, comp, 1); err != nil {
			panic(err)
		}
	})
	l.m.set("mpc.compress_mb_s", mbPerS(len(msg), c))
	l.m.set("mpc.decompress_mb_s", mbPerS(len(msg), d))
	l.m.set("mpc.ratio", float64(len(msg))/float64(len(comp)))
	return c, d, v
}

func (l *ladder) zfp() (c, d, v time.Duration) {
	msg := capTo(l.msg, zfpCap)
	if l.cfg.Algorithm != core.AlgoZFP {
		msg = capTo(msg, otherCodecCap)
	}
	rate := l.cfg.ZFPRate
	if rate == 0 {
		rate = zfpOpt.ZFPRate
	}
	vals := core.BytesToFloats(msg)
	var back []byte
	v = l.rung("core", "FloatsToBytes", func(int) {
		back = core.FloatsToBytes(back[:0], vals)
	})
	var comp []byte
	c = l.rung("zfp", "AppendCompress", func(int) {
		comp, _ = zfp.AppendCompress(comp[:0], vals, rate)
	})
	out := make([]float32, len(vals))
	d = l.rung("zfp", "DecompressInto", func(int) {
		if err := zfp.DecompressInto(out, comp, rate); err != nil {
			panic(err)
		}
	})
	var maxErr, maxAbs float64
	for i, x := range vals {
		maxErr = math.Max(maxErr, math.Abs(float64(out[i])-float64(x)))
		maxAbs = math.Max(maxAbs, math.Abs(float64(x)))
	}
	l.m.set("zfp.compress_mb_s", mbPerS(len(msg), c))
	l.m.set("zfp.decompress_mb_s", mbPerS(len(msg), d))
	l.m.set("zfp.max_rel_err", maxErr/maxAbs)
	return c, d, v
}

// roundTrip times fresh CompressAppend + Decompress of the message on a
// standalone engine with the given worker count, as two child spans of
// one core.roundtrip span. The -check delay goes into the benchmark's
// own wrapper around CompressAppend, so it must show in this rung and in
// none below it.
func (l *ladder) roundTrip(name string, workers int, msg []byte) (comp, decomp time.Duration, eng *core.Engine) {
	cfg := l.cfg
	cfg.Workers = workers
	dev := gpusim.NewDevice(hw.Longhorn().GPU, 8)
	clk := simtime.NewClock(0)
	eng = core.NewEngine(clk, dev, cfg)
	src := &gpusim.Buffer{Data: msg, Loc: gpusim.Device, Dev: dev}
	dst := &gpusim.Buffer{Data: make([]byte, len(msg)), Loc: gpusim.Device, Dev: dev}
	var payload []byte
	l.rung("core", name, func(span int) {
		rec := l.rec
		if span == 0 {
			rec = nil // warm-up call
		}
		id := rec.begin(span, "core", name+".CompressAppend", -1, 0)
		// Spinning, not sleeping: a sleep overshoots by a timer tick and
		// leaves the caches cold for the call that follows.
		for t0 := time.Now(); time.Since(t0) < l.delay; {
		}
		var hdr core.Header
		payload, hdr = eng.CompressAppend(clk, src, payload[:0])
		rec.end(id)
		id = rec.begin(span, "core", name+".Decompress", -1, 0)
		err := eng.Decompress(clk, hdr, payload, dst)
		rec.end(id)
		if err != nil {
			panic(err)
		}
	})
	l.wire = len(payload)
	return medianDur(l.rec.durations("core", name+".CompressAppend")),
		medianDur(l.rec.durations("core", name+".Decompress")), eng
}

// engine measures the engine's round trip serially (its own cost is that
// minus the raw codec and conversion rungs) and with the default worker
// pool (what users get; the ratio of the two is codecpool's efficiency).
func (l *ladder) engine(codec time.Duration) (compPerByte, decompPerByte float64) {
	msg := l.msg
	if l.cfg.Algorithm == core.AlgoZFP {
		msg = capTo(msg, zfpCap)
	}
	c1, d1, _ := l.roundTrip("roundtrip.serial", 1, msg)
	cw, dw, eng := l.roundTrip("roundtrip", 0, msg)
	l.m.set("core.roundtrip_mb_s", mbPerS(len(msg), cw+dw))
	l.m.set("core.self_ms_per_op", ms(c1+d1-codec))
	if w := eng.CodecWorkers(); w > 1 && len(msg) >= core.DefaultThreshold {
		l.m.set("codecpool.parallel_eff", float64(c1+d1)/float64(cw+dw)/float64(w))
	}

	// Allocations of one steady-state round trip.
	dev := eng.Device()
	clk := simtime.NewClock(0)
	src := &gpusim.Buffer{Data: msg, Loc: gpusim.Device, Dev: dev}
	dst := &gpusim.Buffer{Data: make([]byte, len(msg)), Loc: gpusim.Device, Dev: dev}
	var payload []byte
	var before, after runtime.MemStats
	const trips = 4
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		var hdr core.Header
		payload, hdr = eng.CompressAppend(clk, src, payload[:0])
		if err := eng.Decompress(clk, hdr, payload, dst); err != nil {
			panic(err)
		}
	}
	runtime.ReadMemStats(&after)
	l.m.set("core.allocs_per_roundtrip", float64(after.Mallocs-before.Mallocs)/trips)

	// The send side of a round trip on a tracked buffer nobody wrote to.
	tracked := (&gpusim.Buffer{Data: msg, Loc: gpusim.Device, Dev: dev}).Track()
	bw := hw.Longhorn().InterNode.BandwidthGBps
	eng.CompressForLinkCached(clk, tracked, bw)
	const hits = 1000
	d := l.rung("core", "CompressForLinkCached.hit", func(int) {
		for i := 0; i < hits; i++ {
			p, _ := eng.CompressForLinkCached(clk, tracked, bw)
			sink += uint64(len(p))
		}
	})
	l.m.set("core.cache_hit_us", float64(d)/hits/1e3)
	return float64(cw) / float64(len(msg)), float64(dw) / float64(len(msg))
}

// typed times the fused typed path and the reference pack/unpack on a
// halo-shaped layout: one side of a two-wide boundary mirror.
func (l *ladder) typed() {
	t := l.halo
	if t == nil {
		rows := len(l.msg) / 4 / (2 * 64)
		t = &dtype.Subarray3D{Dims: [3]int{2, 64, rows}, Sub: [3]int{1, 64, rows}}
	}
	extent := 4 * t.Dims[0] * t.Dims[1] * t.Dims[2]
	msg := l.msg[:extent]
	packed := make([]byte, t.Size())
	d := l.rung("dtype", "Pack", func(int) {
		if err := dtype.Pack(packed, msg, *t); err != nil {
			panic(err)
		}
	})
	l.m.set("dtype.pack_mb_s", mbPerS(t.Size(), d))
	scratch := make([]byte, extent)
	d = l.rung("dtype", "Unpack", func(int) {
		if err := dtype.Unpack(scratch, packed, *t); err != nil {
			panic(err)
		}
	})
	l.m.set("dtype.unpack_mb_s", mbPerS(t.Size(), d))

	dev := gpusim.NewDevice(hw.Longhorn().GPU, 8)
	clk := simtime.NewClock(0)
	eng := core.NewEngine(clk, dev, l.cfg)
	src := &gpusim.Buffer{Data: msg, Loc: gpusim.Device, Dev: dev}
	dst := &gpusim.Buffer{Data: scratch, Loc: gpusim.Device, Dev: dev}
	d = l.rung("core", "CompressTyped+DecompressTyped", func(int) {
		payload, hdr := eng.CompressTyped(clk, src, *t)
		if err := eng.DecompressTyped(clk, hdr, payload, dst, *t); err != nil {
			panic(err)
		}
	})
	l.m.set("core.typed_roundtrip_mb_s", mbPerS(t.Size(), d))
}

type noJob struct{}

func (noJob) RunPart(int, *codecpool.Scratch) {}

// substrate times the simulator's own primitives: what every message
// pays whether or not it is compressed.
func (l *ladder) substrate() {
	const calls = 1000
	pool := codecpool.Shared()
	d := l.rung("codecpool", "Run.empty", func(int) {
		for i := 0; i < calls; i++ {
			pool.Run(4, noJob{})
		}
	})
	l.m.set("codecpool.dispatch_us", float64(d)/calls/1e3)

	dev := gpusim.NewDevice(hw.Longhorn().GPU, 8)
	clk := simtime.NewClock(0)
	bufs := gpusim.NewBufferPool(clk, dev, 8, 1<<20)
	d = l.rung("gpusim", "BufferPool.Get+Put", func(int) {
		for i := 0; i < calls; i++ {
			bufs.Put(bufs.Get(clk, 4096))
		}
	})
	l.m.set("gpusim.pool_getput_ns", float64(d)/calls)
	kernel := gpusim.KernelSpec{Blocks: dev.Spec.SMs, Bytes: 1 << 20, ThroughputGbps: 200}
	d = l.rung("gpusim", "LaunchKernel", func(int) {
		for i := 0; i < calls; i++ {
			dev.LaunchKernel(clk, dev.Stream(i%8), kernel)
		}
	})
	l.m.set("gpusim.launch_ns", float64(d)/calls)

	// 1000 live reservations with gaps, then 1000 bookings that land in
	// the gaps (netsim's gap-backfill case).
	d = l.rung("simtime", "Calendar.Reserve", func(int) {
		cal := simtime.NewCalendar()
		for i := 0; i < calls; i++ {
			cal.Reserve(simtime.Time(i*1000), 500)
		}
		for i := 0; i < calls; i++ {
			_, end := cal.Reserve(simtime.Time((i*7919%calls)*1000+500), 100)
			sink += uint64(end)
		}
	})
	l.m.set("simtime.reserve_ns", float64(d)/(2*calls))

	fab := netsim.NewFabric(hw.Longhorn(), 4)
	d = l.rung("netsim", "Fabric.Transfer", func(int) {
		fab.Reset()
		for i := 0; i < calls; i++ {
			sink += uint64(fab.Transfer(i%4, (i+1)%4, simtime.Time(i*100), 64<<10))
		}
	})
	l.m.set("netsim.transfer_ns", float64(d)/calls)

	tn := tune.NewTuner(tune.Options{Seed: 1, Cluster: hw.Longhorn()})
	pt := mpi.TunePoint{Bytes: len(l.msg), Ranks: 8, Nodes: 4, PPN: 2}
	d = l.rung("tune", "PickAllreduce", func(int) {
		for i := 0; i < calls; i++ {
			sink += uint64(tn.PickAllreduce(pt))
		}
	})
	l.m.set("tune.pick_ns", float64(d)/calls)
}

// mpi times ping-pongs through a two-rank world with the codec off: the
// runtime, fabric and clock cost of moving a message, by itself.
func (l *ladder) mpi() {
	w, err := mpi.NewWorld(mpi.Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: core.Config{Mode: core.ModeOff}})
	if err != nil {
		panic(err)
	}
	pingPong := func(name string, n, trips int) time.Duration {
		var send, recv [2]*gpusim.Buffer
		for q := range send {
			send[q], recv[q] = deviceView(w.Rank(q), l.msg[:n]), deviceBuf(w.Rank(q), n)
		}
		return l.rung("mpi", name, func(int) {
			_, err := runRanks(w, func(r *mpi.Rank) error {
				q := r.ID()
				for i := 0; i < trips; i++ {
					var err error
					if q == 0 {
						if err = r.Send(1, 0, send[q]); err == nil {
							err = r.Recv(1, 0, recv[q])
						}
					} else {
						if err = r.Recv(0, 0, recv[q]); err == nil {
							err = r.Send(0, 0, send[q])
						}
					}
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
		})
	}
	const trips = 500
	small := 64 << 10
	if small > len(l.msg) {
		small = len(l.msg)
	}
	l.m.set("mpi.eager_us_per_msg", float64(pingPong("pingpong.8B", 8, trips))/(2*trips)/1e3)
	l.m.set("mpi.rndv_us_per_msg", float64(pingPong("pingpong.64KiB", small, trips))/(2*trips)/1e3)
	// The message as the runtime sees it on the compressed arm: as many
	// bytes as the engine put on the wire.
	l.m.set("mpi.p2p_self_ms", ms(pingPong("pingpong.wire", l.wire&^3, 1)))
}
