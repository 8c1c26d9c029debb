package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"slices"
	"testing"

	"mpicomp/internal/core"
	"mpicomp/internal/datasets"
	"mpicomp/internal/dtype"
	"mpicomp/internal/faults"
	"mpicomp/internal/gpusim"
	"mpicomp/internal/hw"
	"mpicomp/internal/simtime"
)

// typedP2PLayout builds a layout sized to exercise one protocol tier:
// eager (< 16 KB packed), rendezvous, or pipelined (>= 2 chunks).
func typedP2PLayout(packedWords int) (dtype.Type, int) {
	// A vector of 64-word blocks with a 96-word stride: strided enough to
	// differ from contiguous, coarse enough for word-run gathers.
	count := packedWords / 64
	ty := dtype.Vector{Count: count, BlockLen: 64, Stride: 96}
	return ty, (count-1)*96 + 64
}

// TestTypedSendRecvMatchesPacked is the end-to-end differential oracle
// over every protocol tier: a typed send must deliver exactly the bytes
// an explicit Pack + contiguous send delivers, into exactly the
// layout's positions, for eager, rendezvous, and pipelined messages.
func TestTypedSendRecvMatchesPacked(t *testing.T) {
	cases := []struct {
		name        string
		packedWords int
		cfg         core.Config
	}{
		{"eager", 1 << 10, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}},
		{"rendezvous", 1 << 18, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}},
		{"rendezvous-zfp", 1 << 18, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}},
		{"rendezvous-off", 1 << 18, core.Config{}},
		{"pipelined", 1 << 18, core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: 256 << 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ty, extentWords := typedP2PLayout(tc.packedWords)
			vals := datasets.Smooth(extentWords, 7, 1e-3)
			w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: tc.cfg})
			var typedDst, packedDst []byte
			_, err := w.Run(func(r *Rank) error {
				if r.ID() == 0 {
					src := devBuf(r, vals)
					if err := r.SendTyped(1, 1, src, ty); err != nil {
						return err
					}
					// Reference message: explicitly packed, sent contiguously.
					packed := emptyDevBuf(r, ty.Size()/4)
					if err := dtype.Pack(packed.Data, src.Data, ty); err != nil {
						return err
					}
					return r.Send(1, 2, packed)
				}
				dst := emptyDevBuf(r, extentWords)
				if err := r.RecvTyped(0, 1, dst, ty); err != nil {
					return err
				}
				ref := emptyDevBuf(r, ty.Size()/4)
				if err := r.Recv(0, 2, ref); err != nil {
					return err
				}
				typedDst = make([]byte, ty.Size())
				if err := dtype.Pack(typedDst, dst.Data, ty); err != nil {
					return err
				}
				packedDst = ref.Data
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(typedDst, packedDst) {
				t.Fatalf("%s: typed transfer differs from pack-then-send", tc.name)
			}
		})
	}
}

// TestTypedSendWireBytesIdentical pins the acceptance gate at the wire
// level: the typed rendezvous send must put the same number of bytes on
// the wire (same compressed payload) as pack-then-send — compression
// stats on both sides must agree exactly.
func TestTypedSendWireBytesIdentical(t *testing.T) {
	ty, extentWords := typedP2PLayout(1 << 18)
	vals := datasets.Smooth(extentWords, 3, 1e-3)
	cfg := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1}

	wireBytes := func(typed bool) int64 {
		w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg})
		if _, err := w.Run(func(r *Rank) error {
			if r.ID() == 0 {
				src := devBuf(r, vals)
				if typed {
					return r.SendTyped(1, 1, src, ty)
				}
				packed := emptyDevBuf(r, ty.Size()/4)
				if err := dtype.Pack(packed.Data, src.Data, ty); err != nil {
					return err
				}
				return r.Send(1, 1, packed)
			}
			dst := emptyDevBuf(r, extentWords)
			if typed {
				return r.RecvTyped(0, 1, dst, ty)
			}
			return r.Recv(0, 1, dst.Slice(0, ty.Size()))
		}); err != nil {
			t.Fatal(err)
		}
		return w.Rank(0).Engine.BytesOut
	}

	typed, packed := wireBytes(true), wireBytes(false)
	if typed != packed || typed == 0 {
		t.Fatalf("typed send put %d bytes on the wire, pack-then-send %d", typed, packed)
	}
}

// typedTierConfigs are the two rendezvous tiers a 256 KiB face can take:
// whole-message, and chunked (four 64 KiB chunks).
var typedTierConfigs = []struct {
	name string
	cfg  core.Config
}{
	{"rendezvous", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}},
	{"pipelined", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: 64 << 10}},
}

// typedFace is a 256 KiB Subarray3D face of a 34x130x130-word brick.
var typedFace = dtype.Subarray3D{Dims: [3]int{34, 130, 130}, Sub: [3]int{4, 128, 128}, Start: [3]int{1, 1, 1}}

// TestTypedSendFailureConfirmsRealPeer: a typed send that dies with its
// destination must fail with the destination's rank. The typed fork used to
// build its rendezvous envelope without dst, so the outcome was filed under
// rank 0. Both tiers run so they cannot diverge again.
func TestTypedSendFailureConfirmsRealPeer(t *testing.T) {
	const ranks = 4
	fcfg := faults.Config{CrashRate: 0.2, FailWindow: 100 * simtime.Microsecond}
	for seed := int64(1); ; seed++ {
		if seed == 20000 {
			t.Fatal("no seed crashes rank 3 alone")
		}
		fcfg.Seed = seed
		inj := faults.New(fcfg)
		alone := true
		for id := 0; id < ranks; id++ {
			_, silent, failed := inj.RankFate(id)
			alone = alone && failed == (id == 3) && !silent
		}
		if alone {
			break
		}
	}
	for _, tier := range typedTierConfigs {
		t.Run(tier.name, func(t *testing.T) {
			w := mustWorld(t, Options{
				Cluster: hw.Longhorn(), Nodes: ranks, PPN: 1, Engine: tier.cfg, Faults: &fcfg,
				Health: HealthPolicy{Deadline: 300 * simtime.Microsecond},
			})
			_, errs := w.RunAll(func(r *Rank) error {
				grid := emptyDevBuf(r, 34*130*130)
				switch r.ID() {
				case 2:
					return r.SendTyped(3, 1, grid, typedFace)
				case 3:
					r.Clock.Advance(fcfg.FailWindow) // past the onset: the next call halts
					return r.RecvTyped(2, 1, grid, typedFace)
				}
				return nil
			})
			assertNoRankGoroutines(t)
			if !errors.Is(errs[3], ErrRankCrashed) {
				t.Fatalf("rank 3: %v, want ErrRankCrashed", errs[3])
			}
			var pe *PeerError
			if !errors.As(errs[2], &pe) || len(pe.Ranks) != 1 || pe.Ranks[0] != 3 {
				t.Fatalf("rank 2: %v, want a PeerError naming rank 3", errs[2])
			}
		})
	}
}

// TestTypedSendIsTrackedInflight: an outstanding typed send sits in the
// rank's inflight list exactly like a plain one — that list is what the
// self-heal drain completes across a retry — and leaves it at Wait.
func TestTypedSendIsTrackedInflight(t *testing.T) {
	for _, tier := range typedTierConfigs {
		t.Run(tier.name, func(t *testing.T) {
			w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: tier.cfg})
			if _, err := w.Run(func(r *Rank) error {
				grid := emptyDevBuf(r, 34*130*130)
				flat := grid.Slice(0, typedFace.Size())
				if r.ID() == 1 {
					if err := r.RecvTyped(0, 1, grid, typedFace); err != nil {
						return err
					}
					return r.Recv(0, 2, flat)
				}
				for _, send := range []func() (*Request, error){
					func() (*Request, error) { return r.IsendTyped(1, 1, grid, typedFace) },
					func() (*Request, error) { return r.Isend(1, 2, flat) },
				} {
					req, err := send()
					if err != nil {
						return err
					}
					if len(r.inflight) != 1 || r.inflight[0] != req {
						return fmt.Errorf("outstanding send not tracked: inflight=%d", len(r.inflight))
					}
					if err := r.Wait(req); err != nil {
						return err
					}
					if len(r.inflight) != 0 {
						return fmt.Errorf("completed send still tracked")
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTypedValidationAtBoundary: invalid layouts are rejected before any
// protocol state exists, wrapping dtype.ErrInvalid like the negative-tag
// errors wrap nothing but carry the same boundary discipline.
func TestTypedValidationAtBoundary(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	if _, err := w.Run(func(r *Rank) error {
		if r.ID() != 0 {
			return nil
		}
		buf := emptyDevBuf(r, 256)
		bad := []dtype.Type{
			dtype.Vector{Count: 2, BlockLen: 1, Stride: -3},                                       // negative stride
			dtype.Vector{Count: 2, BlockLen: 0, Stride: 1},                                        // zero blocklen
			dtype.Contiguous{Words: 1 << 20},                                                      // exceeds buffer
			dtype.Subarray3D{Dims: [3]int{8, 8, 8}, Sub: [3]int{4, 4, 4}, Start: [3]int{6, 0, 0}}, // sub exceeds dims
		}
		for i, ty := range bad {
			if _, err := r.IsendTyped(1, 0, buf, ty); !errors.Is(err, dtype.ErrInvalid) {
				return fmt.Errorf("layout %d: Isend error %v does not wrap dtype.ErrInvalid", i, err)
			}
			if _, err := r.IrecvTyped(1, 0, buf, ty); !errors.Is(err, dtype.ErrInvalid) {
				return fmt.Errorf("layout %d: Irecv error %v does not wrap dtype.ErrInvalid", i, err)
			}
		}
		if _, err := r.IsendTyped(1, -5, buf, dtype.Contiguous{Words: 4}); err == nil {
			return fmt.Errorf("negative tag accepted")
		}
		// Extents that wrap in int: over an 8 MiB buffer both subarrays
		// used to pass validation (4 * 2^63 and 4 * 2^62 are 0 mod 2^64)
		// and the eager pack then sliced out of range.
		big := emptyDevBuf(r, 2<<20)
		for i, ty := range []dtype.Type{
			dtype.Subarray3D{Dims: [3]int{1 << 21, 1 << 21, 1 << 21}, Sub: [3]int{1, 1, 2}},
			dtype.Subarray3D{Dims: [3]int{1 << 21, 1 << 21, 1 << 20}, Sub: [3]int{1, 1, 2}},
			dtype.Vector{Count: 1<<31 + 1, BlockLen: 1, Stride: 1 << 31},
			dtype.Contiguous{Words: 1 << 62},
		} {
			if err := r.SendTyped(1, 0, big, ty); !errors.Is(err, dtype.ErrInvalid) {
				return fmt.Errorf("overflowing layout %d: SendTyped error %v does not wrap dtype.ErrInvalid", i, err)
			}
			if err := r.RecvTyped(1, 0, big, ty); !errors.Is(err, dtype.ErrInvalid) {
				return fmt.Errorf("overflowing layout %d: RecvTyped error %v does not wrap dtype.ErrInvalid", i, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTypedHaloExchange drives SendrecvTyped with subarray faces on a
// 2-rank brick — the awpodc pattern in miniature.
func TestTypedHaloExchange(t *testing.T) {
	const nx, ny, nz = 36, 32, 32
	sendFace := dtype.Subarray3D{Dims: [3]int{nx, ny, nz}, Sub: [3]int{2, ny, nz}, Start: [3]int{2, 0, 0}}
	recvFace := dtype.Subarray3D{Dims: [3]int{nx, ny, nz}, Sub: [3]int{2, ny, nz}, Start: [3]int{0, 0, 0}}
	cfg := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1, Engine: cfg})
	if _, err := w.Run(func(r *Rank) error {
		vals := datasets.Smooth(nx*ny*nz, uint64(r.ID()+1), 1e-3)
		grid := devBuf(r, vals)
		peer := 1 - r.ID()
		if err := r.SendrecvTyped(peer, 3, grid, sendFace, peer, 3, grid, recvFace); err != nil {
			return err
		}
		// The received ghost face must equal the peer's interior face.
		peerVals := datasets.Smooth(nx*ny*nz, uint64(peer+1), 1e-3)
		peerGrid := core.FloatsToBytes(nil, peerVals)
		want := make([]byte, sendFace.Size())
		if err := dtype.Pack(want, peerGrid, sendFace); err != nil {
			return err
		}
		got := make([]byte, recvFace.Size())
		if err := dtype.Pack(got, grid.Data, recvFace); err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("rank %d: ghost face does not match peer interior", r.ID())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestAlltoallvCorrectness checks the vector all-to-all with ragged
// per-peer segment sizes on pow2 and non-pow2 worlds, compressed and
// not.
func TestAlltoallvCorrectness(t *testing.T) {
	for _, size := range []struct{ nodes, ppn int }{{4, 1}, {3, 2}} {
		for _, cfg := range []core.Config{
			{},
			{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, Threshold: 1 << 10},
		} {
			w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: size.nodes, PPN: size.ppn, Engine: cfg})
			P := w.Size()
			// Segment i->j holds 4*(1024*(i+j+1)) bytes of smooth data
			// seeded by (i, j): ragged, and both ends can compute it.
			segWords := func(i, j int) int { return 1024 * (i + j + 1) }
			segData := func(i, j int) []byte {
				return core.FloatsToBytes(nil, datasets.Smooth(segWords(i, j), uint64(101+i*31+j), 1e-3))
			}
			if _, err := w.Run(func(r *Rank) error {
				sendCounts := make([]int, P)
				sendDispls := make([]int, P)
				recvCounts := make([]int, P)
				recvDispls := make([]int, P)
				stot, rtot := 0, 0
				for j := 0; j < P; j++ {
					sendDispls[j], recvDispls[j] = stot, rtot
					sendCounts[j] = 4 * segWords(r.ID(), j)
					recvCounts[j] = 4 * segWords(j, r.ID())
					stot += sendCounts[j]
					rtot += recvCounts[j]
				}
				sendBuf := &gpusim.Buffer{Data: make([]byte, stot), Loc: gpusim.Device, Dev: r.Dev}
				recvBuf := &gpusim.Buffer{Data: make([]byte, rtot), Loc: gpusim.Device, Dev: r.Dev}
				for j := 0; j < P; j++ {
					copy(sendBuf.Data[sendDispls[j]:], segData(r.ID(), j))
				}
				if err := r.Alltoallv(sendBuf, sendCounts, sendDispls, recvBuf, recvCounts, recvDispls); err != nil {
					return err
				}
				for j := 0; j < P; j++ {
					got := recvBuf.Data[recvDispls[j] : recvDispls[j]+recvCounts[j]]
					if !bytes.Equal(got, segData(j, r.ID())) {
						return fmt.Errorf("rank %d: segment from %d corrupted", r.ID(), j)
					}
				}
				return nil
			}); err != nil {
				t.Fatalf("world %dx%d cfg %+v: %v", size.nodes, size.ppn, cfg.Algorithm, err)
			}
		}
	}
}

// raggedAlltoallv runs omb's ragged (i+j)%3 Alltoallv — segments of 1, 2
// and 3 times seg bytes cut from msg_sppm, each rank's at its own offset —
// on nodes x ppn Longhorn and returns the makespan and the CRC of each
// rank's receive buffer. The buffers are untracked, so every segment the
// model sends compressed is compressed at each send.
func raggedAlltoallv(t *testing.T, nodes, ppn, seg int, cfg core.Config) (simtime.Time, []uint32) {
	t.Helper()
	sppm, _ := datasets.ByName("msg_sppm")
	stream := core.FloatsToBytes(nil, sppm.Values(4<<20))
	size := func(i, j int) int { return seg * (1 + (i+j)%3) }
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: nodes, PPN: ppn, Engine: cfg})
	crcs := make([]uint32, w.Size())
	times, err := w.Run(func(r *Rank) error {
		P, me := r.Size(), r.ID()
		sc, sd, rc, rd := make([]int, P), make([]int, P), make([]int, P), make([]int, P)
		stot, rtot := 0, 0
		for j := 0; j < P; j++ {
			sd[j], rd[j] = stot, rtot
			sc[j], rc[j] = size(me, j), size(j, me)
			stot += sc[j]
			rtot += rc[j]
		}
		send := &gpusim.Buffer{Data: stream[me<<16 : me<<16+stot], Loc: gpusim.Device, Dev: r.Dev}
		recv := emptyDevBuf(r, rtot/4)
		if err := r.Alltoallv(send, sc, sd, recv, rc, rd); err != nil {
			return err
		}
		crcs[me] = crc32.ChecksumIEEE(recv.Data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return MaxTime(times), crcs
}

// TestAlltoallvReplaysOnEveryLayout: every segment's transfer is booked at
// the instant its wire form was ready, earlier than the barrier waves that
// order the bookings, so nothing else may reserve an adapter calendar in
// host order meanwhile (a barrier token that did made 3x2 spread over
// runs). Alltoallv's latency and bytes must be the same every run, Mode
// off and MPC, on 2x2, 3x2 (the ring), 4x2 and 2x4, under GOMAXPROCS
// 1/2/4.
func TestAlltoallvReplaysOnEveryLayout(t *testing.T) {
	const seg = 128 << 10
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"off", core.Config{}},
		{"mpc", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1, Threshold: 64 << 10}},
	}
	type ref struct {
		at   simtime.Time
		crcs []uint32
	}
	layouts := [][2]int{{2, 2}, {3, 2}, {4, 2}, {2, 4}}
	refs := map[string]ref{}
	for _, l := range layouts {
		for _, m := range modes {
			at, crcs := raggedAlltoallv(t, l[0], l[1], seg, m.cfg)
			refs[fmt.Sprintf("%dx%d/%s", l[0], l[1], m.name)] = ref{at, crcs}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, l := range layouts {
			for _, m := range modes {
				name := fmt.Sprintf("%dx%d/%s", l[0], l[1], m.name)
				at, crcs := raggedAlltoallv(t, l[0], l[1], seg, m.cfg)
				if want := refs[name]; at != want.at || !slices.Equal(crcs, want.crcs) {
					t.Errorf("%s GOMAXPROCS=%d: latency %v, CRCs %08x; first run %v, %08x", name, procs, at, crcs, want.at, want.crcs)
				}
			}
		}
	}
}

// TestAlltoallvWinsWhereWavesBind pins the payoff of keeping codec kernels
// out of Alltoallv's barrier waves where the waves bind: with two ranks per
// node, a rank that compressed or decoded inside its wave held its
// neighbour's wire time hostage, and the compressed exchange lost to the
// uncompressed one (0.73x here). Compressed must beat Mode-off on the same
// bytes by at least minGain — it reads 1.79x; 1.28x while each segment's
// wire waited for its wave, 1.06x with the compression inside the wave
// too — and its latency must be the same instant for every codec worker
// count and GOMAXPROCS: the waves still make the bookings deterministic.
func TestAlltoallvWinsWhereWavesBind(t *testing.T) {
	const minGain = 1.15
	off, offCRC := raggedAlltoallv(t, 2, 2, 2<<20, core.Config{})
	mpc := core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, MPCDim: 1}
	ref, refCRC := raggedAlltoallv(t, 2, 2, 2<<20, mpc)
	if !slices.Equal(refCRC, offCRC) {
		t.Fatalf("compressed exchange delivered different bytes (CRCs %08x, Mode-off %08x)", refCRC, offCRC)
	}
	gain := float64(off) / float64(ref)
	if gain < minGain {
		t.Fatalf("compressed Alltoallv took %v, Mode-off %v: gain %.3fx, want >= %.2fx on 2x2", ref, off, gain, minGain)
	}
	t.Logf("2x2 Longhorn, msg_sppm: MPC %v, Mode-off %v (%.3fx)", ref, off, gain)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 8} {
			cfg := mpc
			cfg.Workers = workers
			if got, _ := raggedAlltoallv(t, 2, 2, 2<<20, cfg); got != ref {
				t.Errorf("GOMAXPROCS=%d workers=%d: latency %v, want %v", procs, workers, got, ref)
			}
		}
	}
}

// TestAlltoallvValidation: malformed count/displacement vectors fail
// fast on every rank, before any message moves.
func TestAlltoallvValidation(t *testing.T) {
	w := mustWorld(t, Options{Cluster: hw.Longhorn(), Nodes: 2, PPN: 1})
	if _, err := w.Run(func(r *Rank) error {
		buf := emptyDevBuf(r, 1024)
		good := []int{2048, 2048}
		goodD := []int{0, 2048}
		cases := []struct {
			name   string
			sc, sd []int
		}{
			{"short vectors", []int{2048}, []int{0}},
			{"negative count", []int{-4, 2048}, goodD},
			{"segment past end", good, []int{0, 4000}},
		}
		for _, tc := range cases {
			if err := r.Alltoallv(buf, tc.sc, tc.sd, buf, good, goodD); err == nil {
				return fmt.Errorf("%s accepted", tc.name)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
