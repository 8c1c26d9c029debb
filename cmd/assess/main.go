// Command assess reproduces the paper's Section II-B assessment of GPU
// compression libraries across the three codecs of Table I that this
// repository implements: MPC and ZFP (the two the paper integrates) plus
// SZ (the error-bounded prior GPU codec it compares against).
//
// For every Table III dataset it reports the measured compression ratio
// of each codec and the host-side throughput of this implementation.
//
//	assess            # 4 MB of each dataset
//	assess -mb 16     # larger samples
package main

import (
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
//
//simlint:wallclock codec assessment harness measures real host throughput
func main() {
	mb := flag.Int("mb", 4, "megabytes of each dataset to assess")
	rate := flag.Int("rate", 16, "ZFP fixed rate")
	bound := flag.Float64("szbound", 1e-4, "SZ absolute error bound (scaled by dataset magnitude)")
	flag.Parse()

	fmt.Printf("Assessment of GPU compression codecs (Section II-B, extended)\n")
	fmt.Printf("%d MB per dataset; ZFP rate %d; SZ relative bound %g\n\n", *mb, *rate, *bound)

	t := cli.NewTable("Dataset", "CR-MPC", "CR-ZFP", "CR-SZ",
		"MPC MB/s", "ZFP MB/s", "SZ MB/s")
	for _, d := range datasets.All() {
		vals := d.Values(*mb << 18)
		bytes := len(vals) * 4

		// MPC (lossless, float32).
		start := time.Now()
		mpcComp, err := mpc.CompressFloat32(nil, vals, d.Dim)
		cli.Fatal(err)
		mpcTime := time.Since(start)

		// ZFP (fixed-rate lossy).
		start = time.Now()
		zfpComp, err := zfp.Compress(nil, vals, *rate)
		cli.Fatal(err)
		zfpTime := time.Since(start)

		// SZ (error-bounded lossy; bound scaled to the data magnitude).
		var scale float64
		for _, v := range vals {
			scale = math.Max(scale, math.Abs(float64(v)))
		}
		eb := *bound * scale
		if eb <= 0 {
			eb = *bound
		}
		start = time.Now()
		szComp, err := sz.Compress(nil, vals, eb)
		cli.Fatal(err)
		szTime := time.Since(start)

		mbps := func(n int, dur time.Duration) string {
			return fmt.Sprintf("%.0f", float64(n)/dur.Seconds()/1e6)
		}
		t.Row(d.Name,
			fmt.Sprintf("%.3f", float64(bytes)/float64(len(mpcComp))),
			fmt.Sprintf("%.3f", zfp.Ratio(*rate)),
			fmt.Sprintf("%.3f", float64(bytes)/float64(len(szComp))),
			mbps(bytes, mpcTime), mbps(bytes, zfpTime), mbps(bytes, szTime))
		_ = zfpComp
	}
	t.Write(os.Stdout)
	fmt.Println("\nRatios are measured on the synthetic Table III stand-ins; throughputs")
	fmt.Println("are this Go implementation on the host CPU (the paper's Gb/s figures")
	fmt.Println("are CUDA kernels — see internal/hw for the calibrated GPU model).")
}
