// Halo3d: the AWP-ODC motif — a 3-D wave simulation whose ranks exchange
// multi-megabyte halo planes every step, run four ways (no compression,
// MPC-OPT static and under the cost model, ZFP-OPT) to show the
// application-level effect the paper reports in Figures 12/13: higher
// sustained GPU computing FLOPS purely from cheaper communication.
//
// The halo travels as typed sends of Subarray3D boundary views — the
// gather rides the compression kernel's read pass — so no staging
// buffers and no pack/unpack kernels exist. A final staged-path run
// (HaloPacked) shows what that fusion saves.
//
//	go run ./examples/halo3d
package main

import (
	"fmt"
	"log"
	"os"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/cli"
	"mpicomp/internal/core"
	"mpicomp/internal/hw"
	"mpicomp/internal/mpi"
	"mpicomp/internal/simtime"
)

func main() {
	const (
		nodes = 4
		ppn   = 4 // 16 GPUs in a 4x4 process grid
	)
	app := awpodc.Config{NX: 256, NY: 256, NZ: 96, Fields: 9, Steps: 3}
	px, py := awpodc.ProcessGrid(nodes * ppn)
	fmt.Printf("AWP-ODC proxy: %d GPUs (%dx%d grid) on %s, halo %s per face\n\n",
		nodes*ppn, px, py, hw.Lassen().Name, cli.FormatBytes(app.HaloBytesX()))

	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"baseline (no compression)", core.Config{}},
		{"MPC-OPT static (lossless)", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC, PipelineChunkBytes: -1}},
		{"MPC-OPT model (lossless)", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoMPC}},
		{"ZFP-OPT rate 8 (lossy)", core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}},
	}

	t := cli.NewTable("Configuration", "TFLOPS", "ms/step", "comm/step", "ratio", "checksum")
	var baseline awpodc.Result
	var zfpComm simtime.Duration
	for i, c := range configs {
		world, err := mpi.NewWorld(mpi.Options{Cluster: hw.Lassen(), Nodes: nodes, PPN: ppn, Engine: c.cfg})
		if err != nil {
			log.Fatal(err)
		}
		res, err := awpodc.Run(world, app)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			baseline = res
		}
		if i == len(configs)-1 {
			zfpComm = res.CommTime
		}
		t.Row(c.name,
			fmt.Sprintf("%.2f", res.TFlops),
			fmt.Sprintf("%.2f", res.TimePerStep.Milliseconds()),
			res.CommTime.String(),
			fmt.Sprintf("%.1f", res.Ratio),
			fmt.Sprintf("%.6g", res.Checksum))
	}
	t.Write(os.Stdout)

	fmt.Println()
	fmt.Println("Notes: the MPC rows' checksums equal the baseline's — lossless")
	fmt.Println("compression cannot change the physics; ZFP's differs slightly")
	fmt.Printf("(rate-8 quantization, baseline checksum %.6g).\n", baseline.Checksum)
	fmt.Println("At this halo size static MPC-OPT, compressing every halo, loses (the")
	fmt.Println("paper's Fig. 9c effect). The cost model prices each halo on its node's")
	fmt.Println("share of the link, compresses only the ones it predicts a win on, and")
	fmt.Println("beats the baseline. ZFP-OPT's cheaper kernels win outright — the")
	fmt.Println("paper's conclusion that ZFP-OPT helps almost everywhere.")

	// The staged arm: identical physics and wire bytes, but every face
	// is packed into a staging buffer (one kernel per wavefield
	// component) before sending and unpacked after receiving.
	stagedApp := app
	stagedApp.HaloPacked = true
	world, err := mpi.NewWorld(mpi.Options{Cluster: hw.Lassen(), Nodes: nodes, PPN: ppn,
		Engine: core.Config{Mode: core.ModeOpt, Algorithm: core.AlgoZFP, ZFPRate: 8}})
	if err != nil {
		log.Fatal(err)
	}
	staged, err := awpodc.Run(world, stagedApp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("Typed halo (Subarray3D views) vs staged pack+send, ZFP-OPT rate 8:\n")
	fmt.Printf("  staging copies eliminated: %s (%s per step)\n",
		cli.FormatBytes(int(staged.StagingBytes)), cli.FormatBytes(int(staged.StagingBytes)/app.Steps))
	fmt.Printf("  comm/step: staged %v -> typed %v\n", staged.CommTime, zfpComm)
}
