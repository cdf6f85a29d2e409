// Package scidp is a from-scratch Go reproduction of SciDP ("SciDP:
// Support HPC and Big Data Applications via Integrated Scientific Data
// Processing", Feng, Sun, Yang, Zhou — IEEE CLUSTER 2018): a runtime that
// lets a Hadoop-style big-data engine process scientific data (netCDF /
// HDF5) in place on an HPC parallel file system — no copy to HDFS, no
// text conversion — through three components:
//
//   - a File Explorer that classifies PFS inputs (scientific vs. flat),
//   - a Data Mapper that mirrors scientific files as virtual HDFS inodes
//     whose dummy blocks map to PFS file segments / variable hyperslabs,
//   - a PFS Reader that each map task spawns to pull its block's bytes
//     straight from the PFS.
//
// Because the paper's environment (Lustre, HDFS, Hadoop, the netCDF C
// library, R) has no Go equivalent, every substrate is implemented here
// from scratch and runs under a deterministic discrete-event simulation
// for timing: see DESIGN.md for the system inventory and EXPERIMENTS.md
// for the paper-versus-measured record.
//
// This package declares nothing. The code lives under internal/; the
// commands in cmd/, the programs in examples/ and the benchmark call it
// directly (examples/quickstart is the smallest end-to-end flow).
package scidp
