package core

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mpicomp/internal/gpusim"
	"mpicomp/internal/simtime"
)

// relayed builds what a relay's origin sends around: a wire payload, its
// header and an unpublished companion, plus the bytes every consumer must
// end up with.
func relayed(t *testing.T, cfg Config) (payload []byte, hdr Header, dec *Decoded, want []byte) {
	t.Helper()
	origin, dev, clk := newTestEngine(t, cfg)
	src := deviceBufferWith(dev, smooth(1<<18, 77))
	payload, hdr = origin.Compress(clk, src)
	if !hdr.Compressed {
		t.Fatal("the relayed message did not compress")
	}
	ref, rdev, rclk := newTestEngine(t, cfg)
	out := &gpusim.Buffer{Data: make([]byte, hdr.OrigBytes), Loc: gpusim.Device, Dev: rdev}
	if err := ref.Decompress(rclk, hdr, payload, out); err != nil {
		t.Fatal(err)
	}
	return payload, hdr, NewDecoded(hdr), out.Data
}

// consumer is one rank's receive side of a relayed payload.
type consumer struct {
	e   *Engine
	dev *gpusim.GPUDevice
	clk *simtime.Clock
	dst *gpusim.Buffer
}

func newConsumer(t *testing.T, cfg Config, n int) *consumer {
	e, dev, clk := newTestEngine(t, cfg)
	return &consumer{e, dev, clk, (&gpusim.Buffer{Data: make([]byte, n), Loc: gpusim.Device, Dev: dev}).Track()}
}

// simulated is everything of a consumer a figure could read.
type simulated struct {
	Clock                      simtime.Time
	Stats                      Breakdown
	Decompressions, Mallocs    int
	Frees, PoolFree, PoolTotal int
	Epoch                      uint64
}

func (c *consumer) simulated() simulated {
	free, total := c.e.PoolBalance()
	_, _, epoch, _ := c.dst.Version()
	return simulated{c.clk.Now(), c.e.Stats, c.e.Decompressions, c.dev.MallocCount, c.dev.FreeCount, free, total, epoch}
}

// TestDecompressRelayedSharesOneDecode: of the consumers of one relayed
// payload the first runs the codec job and the rest copy its output, for
// both codecs and both integration modes, and the simulated side of every
// consumer is the plain Decompress's to the last charge.
func TestDecompressRelayedSharesOneDecode(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: ModeOpt, Algorithm: AlgoMPC}, {Mode: ModeNaive, Algorithm: AlgoMPC},
		{Mode: ModeOpt, Algorithm: AlgoZFP, ZFPRate: 8}, {Mode: ModeNaive, Algorithm: AlgoZFP, ZFPRate: 8},
	} {
		payload, hdr, dec, want := relayed(t, cfg)
		plain := newConsumer(t, cfg, hdr.OrigBytes)
		if err := plain.e.VerifyPayload(plain.clk, hdr, payload); err != nil {
			t.Fatal(err)
		}
		if err := plain.e.Decompress(plain.clk, hdr, payload, plain.dst); err != nil {
			t.Fatal(err)
		}
		jobs := 0
		for i := 0; i < 4; i++ {
			c := newConsumer(t, cfg, hdr.OrigBytes)
			// A chunked relay reassembles into a fresh slice per hop: the
			// companion is served on the verified header, not on slice identity.
			hop := append([]byte(nil), payload...)
			if err := c.e.VerifyPayload(c.clk, hdr, hop); err != nil {
				t.Fatal(err)
			}
			if err := c.e.DecompressRelayed(c.clk, hdr, hop, c.dst, dec); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.dst.Data, want) {
				t.Fatalf("%v/%v consumer %d: wrong bytes", cfg.Algorithm, cfg.Mode, i)
			}
			if got, ref := c.simulated(), plain.simulated(); !reflect.DeepEqual(got, ref) {
				t.Fatalf("%v/%v consumer %d: simulated side %+v, plain Decompress %+v", cfg.Algorithm, cfg.Mode, i, got, ref)
			}
			jobs += c.e.HostSnapshot().DecodeJobs
		}
		if jobs != 1 {
			t.Fatalf("%v/%v: 4 consumers ran %d codec jobs, want 1", cfg.Algorithm, cfg.Mode, jobs)
		}
		// The published form is the companion's own memory: a consumer
		// overwriting its buffer cannot reach the next one.
		c := newConsumer(t, cfg, hdr.OrigBytes)
		if err := c.e.DecompressRelayed(c.clk, hdr, payload, c.dst, dec); err != nil {
			t.Fatal(err)
		}
		for i := range c.dst.Data {
			c.dst.Data[i] = 0xa5
		}
		c2 := newConsumer(t, cfg, hdr.OrigBytes)
		if err := c2.e.DecompressRelayed(c2.clk, hdr, payload, c2.dst, dec); err != nil || !bytes.Equal(c2.dst.Data, want) {
			t.Fatalf("%v/%v: a consumer's buffer aliases the published form (%v)", cfg.Algorithm, cfg.Mode, err)
		}
	}
}

// TestDecodedFailurePublishesNothing: a decode that fails leaves the latch
// unpublished and the next consumer decodes for itself; a message whose
// header is not the one the companion was created with is neither served
// from it nor published to it.
func TestDecodedFailurePublishesNothing(t *testing.T) {
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC}
	payload, hdr, dec, want := relayed(t, cfg)

	// Same header, garbage where a partition's stream should be (the CRC
	// collision case: verification is the transport's, not the decoder's).
	bad := append([]byte(nil), payload...)
	for i := 64; i < 512; i++ {
		bad[i] = 0xff
	}
	first := newConsumer(t, cfg, hdr.OrigBytes)
	if err := first.e.DecompressRelayed(first.clk, hdr, bad, first.dst, dec); err == nil {
		t.Fatal("a corrupt partition decoded")
	}
	if dec.data != nil {
		t.Fatal("a failed decode published its output")
	}
	if free, total := first.e.PoolBalance(); free != total {
		t.Fatalf("failed decode leaked staging: %d/%d", free, total)
	}

	// A header that differs from the companion's: decoded, not published.
	other := hdr
	other.Checksum ^= 1
	second := newConsumer(t, cfg, hdr.OrigBytes)
	if err := second.e.DecompressRelayed(second.clk, other, payload, second.dst, dec); err != nil {
		t.Fatal(err)
	}
	if dec.data != nil || second.e.HostSnapshot().DecodeJobs != 1 {
		t.Fatalf("a message with a foreign header touched the companion (jobs %d)", second.e.HostSnapshot().DecodeJobs)
	}

	third, fourth := newConsumer(t, cfg, hdr.OrigBytes), newConsumer(t, cfg, hdr.OrigBytes)
	for _, c := range []*consumer{third, fourth} {
		if err := c.e.DecompressRelayed(c.clk, hdr, payload, c.dst, dec); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(c.dst.Data, want) {
			t.Fatal("wrong bytes after a failed first consumer")
		}
	}
	if a, b := third.e.HostSnapshot().DecodeJobs, fourth.e.HostSnapshot().DecodeJobs; a != 1 || b != 0 {
		t.Fatalf("after the failure: %d and %d codec jobs, want 1 and 0", a, b)
	}
	// Without a companion, and for a payload that travels uncompressed,
	// DecompressRelayed is Decompress.
	fifth := newConsumer(t, cfg, hdr.OrigBytes)
	if err := fifth.e.DecompressRelayed(fifth.clk, hdr, payload, fifth.dst, nil); err != nil || fifth.e.HostSnapshot().DecodeJobs != 1 {
		t.Fatalf("nil companion: %v", err)
	}
	raw, rawHdr := fifth.e.BypassChunk(fifth.clk, fifth.dst, nil, 0, fifth.dst.Len())
	plainDec := NewDecoded(rawHdr)
	sixth := newConsumer(t, cfg, hdr.OrigBytes)
	if err := sixth.e.DecompressRelayed(sixth.clk, rawHdr, raw, sixth.dst, plainDec); err != nil || plainDec.data != nil {
		t.Fatalf("an uncompressed payload reached the companion (%v)", err)
	}
}

// TestDecodedLatchRace: ranks racing to one latch (run under -race): one
// job, identical bytes everywhere, nobody waits under an engine lock — a
// waiter's engine stays usable by the transport's progress path, which
// this test plays by staging and releasing on every consumer's engine
// while the decodes are in flight.
func TestDecodedLatchRace(t *testing.T) {
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC, Workers: 2}
	for round := 0; round < 4; round++ {
		payload, hdr, dec, want := relayed(t, cfg)
		const ranks = 8
		cs := make([]*consumer, ranks)
		for i := range cs {
			cs[i] = newConsumer(t, cfg, hdr.OrigBytes)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range cs {
			wg.Add(2)
			go func(c *consumer) {
				defer wg.Done()
				<-start
				if err := c.e.DecompressRelayed(c.clk, hdr, payload, c.dst, dec); err != nil {
					t.Error(err)
				}
			}(cs[i])
			go func(c *consumer) {
				defer wg.Done()
				<-start
				clk := simtime.NewClock(0)
				for k := 0; k < 50; k++ {
					c.e.ReleaseRecv(clk, c.e.StageRecv(clk, hdr))
				}
			}(cs[i])
		}
		close(start)
		wg.Wait()
		jobs := 0
		for i, c := range cs {
			if !bytes.Equal(c.dst.Data, want) {
				t.Fatalf("round %d: consumer %d has wrong bytes", round, i)
			}
			jobs += c.e.HostSnapshot().DecodeJobs
		}
		if jobs != 1 {
			t.Fatalf("round %d: %d ranks ran %d codec jobs, want 1", round, ranks, jobs)
		}
	}
}

// TestCacheHoldsNoDecodedBytes: the compress-once cache stores (payload,
// hdr) and nothing that can reach a Decoded — the decoded form lives and
// dies with the message.
func TestCacheHoldsNoDecodedBytes(t *testing.T) {
	target := reflect.TypeOf(Decoded{})
	seen := map[reflect.Type]bool{}
	var reaches func(reflect.Type) bool
	reaches = func(ty reflect.Type) bool {
		if ty == target {
			return true
		}
		if seen[ty] {
			return false
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Ptr, reflect.Slice, reflect.Array, reflect.Chan:
			return reaches(ty.Elem())
		case reflect.Map:
			return reaches(ty.Key()) || reaches(ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				if reaches(ty.Field(i).Type) {
					return true
				}
			}
		case reflect.Interface, reflect.Func, reflect.UnsafePointer:
			return true // cannot be ruled out
		}
		return false
	}
	if reaches(reflect.TypeOf(cacheEntry{})) {
		t.Fatal("a cache entry can hold a decoded companion")
	}
	// And the engine itself keeps none between messages.
	ety := reflect.TypeOf(Engine{})
	for i := 0; i < ety.NumField(); i++ {
		if f := ety.Field(i); f.Type == target || f.Type == reflect.PointerTo(target) {
			t.Fatalf("Engine.%s holds a decoded companion", f.Name)
		}
	}
}

// TestPoolMissOwnsNoHostBytes: staging is simulated memory. A receive
// staged on a drained pool grows it by one default-size buffer — the
// cudaMalloc charge, MemUsed, MallocCount, Gets/Misses and the grown
// balance all as ever — without allocating those 36 MiB on the host, and a
// staged round trip leaves no host bytes behind in the pool.
func TestPoolMissOwnsNoHostBytes(t *testing.T) {
	cfg := Config{Mode: ModeOpt, Algorithm: AlgoMPC, PoolBuffers: 2}
	e, dev, clk := newTestEngine(t, cfg)
	src := deviceBufferWith(dev, smooth(1<<18, 5))
	payload, hdr := e.Compress(clk, src)
	dst := &gpusim.Buffer{Data: make([]byte, hdr.OrigBytes), Loc: gpusim.Device, Dev: dev}

	held := []*gpusim.Buffer{e.StageRecv(clk, hdr), e.StageRecv(clk, hdr)}
	mallocs, used, gets := dev.MallocCount, dev.MemUsed(), e.pool.Gets
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	before := clk.Now()
	miss := e.StageRecv(clk, hdr)
	cost := clk.Now().Sub(before)
	runtime.ReadMemStats(&m1)
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew >= DefaultPoolBufBytes {
		t.Fatalf("a pool miss allocated %d host bytes", grew)
	}
	spec := dev.Spec
	wantCost := spec.CudaMallocBase + simtime.Duration(float64(spec.CudaMallocPerMB)*float64(DefaultPoolBufBytes)/(1<<20))
	if cost != wantCost || dev.MallocCount != mallocs+1 || dev.MemUsed() != used+DefaultPoolBufBytes ||
		e.pool.Misses != 1 || e.pool.Gets != gets+1 || miss.Len() != DefaultPoolBufBytes {
		t.Fatalf("miss: cost %v (want %v) mallocs %d->%d used %d->%d misses %d gets %d->%d len %d",
			cost, wantCost, mallocs, dev.MallocCount, used, dev.MemUsed(), e.pool.Misses, gets, e.pool.Gets, miss.Len())
	}
	if err := e.Decompress(clk, hdr, payload, dst); err != nil || !bytes.Equal(dst.Data, src.Data) {
		t.Fatalf("round trip through a starved pool: %v", err)
	}
	for _, b := range append(held, miss) {
		if b.Data != nil {
			t.Fatalf("a staging buffer owns %d host bytes", len(b.Data))
		}
		e.ReleaseRecv(clk, b)
	}
	if free, total := e.PoolBalance(); free != 3 || total != 2 {
		t.Fatalf("the pool must keep the buffer it grew by: %d/%d", free, total)
	}

	// Naive mode stages through cudaMalloc/cudaFree: same accounting, no bytes.
	ne, ndev, nclk := newTestEngine(t, Config{Mode: ModeNaive, Algorithm: AlgoMPC})
	b := ne.StageRecv(nclk, hdr)
	if b.Data != nil || b.Len() != hdr.CompBytes || ndev.MallocCount != 1 || ndev.MemUsed() != int64(hdr.CompBytes) {
		t.Fatalf("naive staging: %d host bytes, len %d, mallocs %d, used %d", len(b.Data), b.Len(), ndev.MallocCount, ndev.MemUsed())
	}
	ne.ReleaseRecv(nclk, b)
	if ndev.FreeCount != 1 || ndev.MemUsed() != 0 {
		t.Fatalf("naive release: frees %d, used %d", ndev.FreeCount, ndev.MemUsed())
	}
}
