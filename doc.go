// Package mpicomp is a reproduction of "Designing High-Performance MPI
// Libraries with On-the-fly Compression for Modern GPU Clusters" (Zhou et
// al., IPDPS 2021): a GPU-aware MPI runtime with on-the-fly MPC (lossless)
// and ZFP (fixed-rate lossy) message compression, running on a simulated
// GPU cluster substrate.
//
// The public surface lives in the internal packages (this module is a
// self-contained research artifact):
//
//   - internal/core:   the compression framework: one send path and one
//     receive path for contiguous and derived-datatype messages alike,
//     instantiated by a two-row codec table (MPC-OPT, ZFP-OPT, naive
//     integration, dynamic selection)
//   - internal/mpi:    the message-passing runtime (eager, rendezvous and
//     pipelined protocols, collectives)
//   - internal/mpc:    the lossless MPC codec (float32)
//   - internal/zfp:    the fixed-rate ZFP codec (float32, 1-D on the wire)
//   - internal/dtype:  derived-datatype layouts
//   - internal/omb:    OSU microbenchmark workloads
//   - internal/awpodc: the AWP-ODC proxy application
//   - internal/dask:   the Dask data-science workload
//
// See README.md for a tour, DESIGN.md for the architecture, and
// EXPERIMENTS.md for the paper-vs-measured record. cmd/figures and
// cmd/tables regenerate every figure and table of the paper's evaluation
// as text tables; bench/ times the reproduction itself.
package mpicomp
