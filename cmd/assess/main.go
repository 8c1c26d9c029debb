// Command assess reproduces the paper's Section II-B assessment of GPU
// compression libraries across the three codecs of Table I that this
// repository implements: MPC and ZFP (the two the paper integrates) plus
// SZ (the error-bounded prior GPU codec it compares against).
//
// For every Table III dataset it reports the measured compression ratio
// of each codec and the host-side throughput of this implementation: the
// best of three warm calls of the entry point the engine uses, into a
// reused destination, so the figure is the coder and not allocation or
// first-touch page faults.
//
//	assess            # 4 MB of each dataset
//	assess -mb 16     # larger samples
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"mpicomp/internal/cli"
	"mpicomp/internal/datasets"
	"mpicomp/internal/mpc"
	"mpicomp/internal/sz"
	"mpicomp/internal/zfp"
)

// main measures the real (host) throughput of each codec over the
// Table III datasets; wall-clock timing is the point of the tool, not
// an accident.
func main() {
	mb := flag.Int("mb", 4, "megabytes of each dataset to assess")
	rate := flag.Int("rate", 16, "ZFP fixed rate")
	bound := flag.Float64("szbound", 1e-4, "SZ absolute error bound (scaled by dataset magnitude)")
	flag.Parse()

	fmt.Printf("Assessment of GPU compression codecs (Section II-B, extended)\n")
	fmt.Printf("%d MB per dataset; ZFP rate %d; SZ relative bound %g\n\n", *mb, *rate, *bound)

	t := cli.NewTable("Dataset", "CR-MPC", "CR-ZFP", "CR-SZ",
		"MPC MB/s", "MPC dec MB/s", "ZFP MB/s", "SZ MB/s")
	for _, d := range datasets.All() {
		vals := d.Values(*mb << 18)
		n := len(vals) * 4
		raw := make([]byte, 0, n)
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}

		// MPC (lossless), through the byte entry points the engine calls.
		mpcComp, err := mpc.AppendCompressBytes(nil, raw, d.Dim)
		cli.Fatal(err)
		mpcTime := best(func() error {
			_, err := mpc.AppendCompressBytes(mpcComp[:0], raw, d.Dim)
			return err
		})
		out := make([]byte, n)
		mpcDecTime := best(func() error { return mpc.DecompressBytesInto(out, mpcComp, d.Dim) })

		// ZFP (fixed-rate lossy).
		zfpComp, err := zfp.AppendCompressBytes(nil, raw, *rate)
		cli.Fatal(err)
		zfpTime := best(func() error {
			_, err := zfp.AppendCompressBytes(zfpComp[:0], raw, *rate)
			return err
		})

		// SZ (error-bounded lossy; bound scaled to the data magnitude).
		var scale float64
		for _, v := range vals {
			scale = math.Max(scale, math.Abs(float64(v)))
		}
		eb := *bound * scale
		if eb <= 0 {
			eb = *bound
		}
		szComp, err := sz.Compress(nil, vals, eb)
		cli.Fatal(err)
		szTime := best(func() error {
			_, err := sz.Compress(szComp[:0], vals, eb)
			return err
		})

		mbps := func(dur time.Duration) string {
			return fmt.Sprintf("%.0f", float64(n)/dur.Seconds()/1e6)
		}
		t.Row(d.Name,
			fmt.Sprintf("%.3f", float64(n)/float64(len(mpcComp))),
			fmt.Sprintf("%.3f", zfp.Ratio(*rate)),
			fmt.Sprintf("%.3f", float64(n)/float64(len(szComp))),
			mbps(mpcTime), mbps(mpcDecTime), mbps(zfpTime), mbps(szTime))
	}
	t.Write(os.Stdout)
	fmt.Println("\nRatios are measured on the synthetic Table III stand-ins; throughputs")
	fmt.Println("are this Go implementation on the host CPU (the paper's Gb/s figures")
	fmt.Println("are CUDA kernels — see internal/hw for the calibrated GPU model).")
	fmt.Println("Each is the best of 3 warm calls into a reused destination.")
}

// best returns the fastest of three calls of f, after one warm-up call
// that faults in the destination and the caches.
func best(f func() error) time.Duration {
	cli.Fatal(f())
	d := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		cli.Fatal(f())
		d = min(d, time.Since(start))
	}
	return d
}
