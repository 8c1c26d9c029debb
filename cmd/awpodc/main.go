// Command awpodc runs the AWP-ODC proxy application (Section VII-A):
// a 3-D wave-propagation simulation with multi-field halo exchange over
// the compression-enabled MPI runtime, reporting the paper's metrics
// (GPU computing TFLOPS, time per step, compression ratio).
//
//	awpodc -cluster frontera -gpus 16 -ppn 4 -codec zfp -rate 8
//	awpodc -cluster lassen -gpus 64 -ppn 4 -codec mpc -steps 5
package main

import (
	"flag"
	"fmt"
	"os"

	"mpicomp/internal/awpodc"
	"mpicomp/internal/cli"
	"mpicomp/internal/mpi"
)

func main() {
	cluster := flag.String("cluster", "frontera", "cluster model")
	gpus := flag.Int("gpus", 8, "total GPUs (ranks)")
	ppn := flag.Int("ppn", 4, "GPUs per node")
	nx := flag.Int("nx", 320, "per-rank X extent")
	ny := flag.Int("ny", 320, "per-rank Y extent")
	nz := flag.Int("nz", 128, "per-rank Z extent")
	fields := flag.Int("fields", 9, "wavefield components per halo")
	steps := flag.Int("steps", 4, "time steps")
	eng := cli.AddEngineFlags(flag.CommandLine)
	prof := cli.AddProfileFlags(flag.CommandLine)
	flag.Parse()
	stopProfiles, err := prof.Start()
	cli.Fatal(err)
	defer stopProfiles()

	cfg, err := eng.Config()
	cli.Fatal(err)
	c, err := cli.ClusterByName(*cluster)
	cli.Fatal(err)

	nodes := *gpus / *ppn
	p := *ppn
	if nodes < 1 {
		nodes, p = 1, *gpus
	}
	w, err := mpi.NewWorld(mpi.Options{Cluster: c, Nodes: nodes, PPN: p, Engine: cfg})
	cli.Fatal(err)

	app := awpodc.Config{NX: *nx, NY: *ny, NZ: *nz, Fields: *fields, Steps: *steps}
	px, py := awpodc.ProcessGrid(*gpus)
	fmt.Printf("# AWP-ODC proxy on %s: %d GPUs (%dx%d grid), %d nodes x %d ppn\n",
		c.Name, *gpus, px, py, nodes, p)
	fmt.Printf("# mesh %dx%dx%d per rank, %d fields, halo X=%s Y=%s\n",
		*nx, *ny, *nz, *fields, cli.FormatBytes(app.HaloBytesX()), cli.FormatBytes(app.HaloBytesY()))

	res, err := awpodc.Run(w, app)
	cli.Fatal(err)

	t := cli.NewTable("Metric", "Value")
	t.Row("GPU computing flops", fmt.Sprintf("%.3f TFLOPS", res.TFlops))
	t.Row("Run time per step", res.TimePerStep)
	t.Row("Compute per step (worst rank)", res.ComputeTime)
	t.Row("Comm per step (worst rank)", res.CommTime)
	t.Row("Compression ratio", fmt.Sprintf("%.2f", res.Ratio))
	t.Row("Field checksum", fmt.Sprintf("%.6g", res.Checksum))
	t.Write(os.Stdout)
}
