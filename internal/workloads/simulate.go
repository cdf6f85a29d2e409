package workloads

import (
	"fmt"

	"scidp/internal/cluster"
	"scidp/internal/mpiio"
	"scidp/internal/pfs"
	"scidp/internal/sim"
)

// SimSpec drives SimulateRun: the HPC simulation phase of the paper's
// workflow (Section II-A) played in virtual time — ranks compute for a
// while, then collectively write one timestamp's netCDF output to the
// PFS, repeating for every timestamp.
type SimSpec struct {
	// Comm is the MPI communicator the simulation runs on.
	Comm *mpiio.Comm
	// FS is the PFS outputs land on.
	FS *pfs.FS
	// Blobs are the pre-generated file contents, keyed by PFS path.
	Blobs map[string][]byte
	// Files are the output paths in timestamp order.
	Files []string
	// ComputeSeconds is the simulated compute time per timestep.
	ComputeSeconds float64
	// OnFile, when set, fires (in virtual time, from the process playing
	// the simulation) right after each file completes — the hook in-situ
	// analysis attaches to.
	OnFile func(path string)
}

// SimulateRun plays the simulation from the driver process, blocking in
// virtual time until the last output file is on the PFS.
func SimulateRun(p *sim.Proc, spec SimSpec) error {
	if spec.Comm == nil || spec.FS == nil {
		return fmt.Errorf("workloads: SimulateRun needs a communicator and a PFS")
	}
	n := spec.Comm.Size()
	for _, file := range spec.Files {
		blob, ok := spec.Blobs[file]
		if !ok {
			return fmt.Errorf("workloads: no blob for %s", file)
		}
		// Compute phase: ranks advance the model in lockstep.
		if spec.ComputeSeconds > 0 {
			p.Sleep(spec.ComputeSeconds)
		}
		// I/O phase: collective write of the timestep's file.
		if _, err := spec.Comm.Ranks()[0].Client.Create(p, file, 0, 0); err != nil {
			return err
		}
		reqs := mpiio.ContiguousSplit(int64(len(blob)), n)
		data := make([][]byte, n)
		for r := range data {
			data[r] = blob[reqs[r].Off : reqs[r].Off+reqs[r].Len]
		}
		res := spec.Comm.CollectiveWrite(file, reqs, data, min(n, 8))
		res.Await(p)
		if res.Err != nil {
			return res.Err
		}
		if spec.OnFile != nil {
			spec.OnFile(file)
		}
	}
	return nil
}

// NewComm builds a communicator with one rank per node of cl, each
// mounting fs through its own NIC plus the given extra path.
func NewComm(k *sim.Kernel, cl *cluster.Cluster, fs *pfs.FS, extra ...*sim.Resource) *mpiio.Comm {
	ranks := make([]mpiio.Rank, len(cl.Nodes))
	for i, n := range cl.Nodes {
		path := append(append([]*sim.Resource(nil), extra...), n.NIC)
		ranks[i] = mpiio.Rank{Node: n, Client: fs.NewClient(path...)}
	}
	return mpiio.NewComm(k, cl, ranks)
}
