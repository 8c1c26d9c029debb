// Command daskbench runs the Dask data-science benchmark of Section VII-B:
// the cuPy transpose-sum (y = x + x.T) over distributed array chunks,
// reporting execution time and aggregate throughput per worker count.
//
//	daskbench -ranks 8 -dim 10000 -chunkdim 1000 -codec zfp -rate 8
//
// -ranks is the number of Dask workers (one MPI rank each) and -chunkdim the
// edge of an array chunk; -workers and -chunk, as in every other driver, are
// the host codec pool size and the pipelined-rendezvous chunk size from
// cli.AddEngineFlags.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpicomp/internal/cli"
	"mpicomp/internal/dask"
	"mpicomp/internal/mpi"
)

func main() {
	cluster := flag.String("cluster", "ri2", "cluster model (paper: RI2, 1 GPU/node)")
	ranks := flag.Int("ranks", 8, "Dask workers (one MPI rank each)")
	dim := flag.Int("dim", 8192, "square matrix dimension")
	chunk := flag.Int("chunkdim", 1024, "array chunk edge length")
	eng := cli.AddEngineFlags(flag.CommandLine)
	flag.Parse()

	cfg, err := eng.Config()
	cli.Fatal(err)
	c, err := cli.ClusterByName(*cluster)
	cli.Fatal(err)

	w, err := mpi.NewWorld(mpi.Options{Cluster: c, Nodes: *ranks, PPN: 1, Engine: cfg})
	cli.Fatal(err)

	fmt.Printf("# Dask transpose-sum on %s: %d workers, %dx%d array, %dx%d chunks\n",
		c.Name, *ranks, *dim, *dim, *chunk, *chunk)
	res, err := dask.TransposeSum(w, dask.Matrix{Dim: *dim, ChunkDim: *chunk})
	cli.Fatal(err)

	t := cli.NewTable("Metric", "Value")
	t.Row("Execution time", res.ExecTime)
	t.Row("Aggregate throughput", fmt.Sprintf("%.2f GB/s", res.ThroughputGBps))
	t.Row("Compression ratio", fmt.Sprintf("%.2f", res.Ratio))
	t.Row("Max abs error vs exact", fmt.Sprintf("%.3g", res.MaxErr))
	t.Write(os.Stdout)
}
