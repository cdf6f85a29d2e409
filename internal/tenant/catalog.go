package tenant

import (
	"fmt"
	"slices"
	"strconv"

	"scidp/internal/mapreduce"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// marker is the word the grep kind counts; InstallTextInputs scatters
// it through the shared input pool.
const marker = "storm"

// installInputs puts the shared read-only input pool on HDFS (instant
// placement — setup, not measured). Every job reads a size-dependent
// prefix of the pool, so concurrent jobs share blocks without ever
// writing into each other's namespace.
func (s *Service) installInputs() {
	s.inputs = workloads.InstallTextInputs(s.be, workloads.MiniConfig{
		Files: inputFiles, FileBytes: inputFileBytes,
	}, marker)
}

// sizeFiles maps a JobSpec size to its input-file count.
func (s *Service) sizeFiles(size string) (int, error) {
	var n int
	switch size {
	case "small":
		n = 2
	case "medium":
		n = 4
	case "large":
		n = 8
	default:
		return 0, fmt.Errorf("tenant: unknown size %q", size)
	}
	if n > inputFiles {
		n = inputFiles
	}
	return n, nil
}

// demand computes a spec's slot demand (map tasks plus reducers) and
// validates the kind and size.
func (s *Service) demand(spec JobSpec) (int, error) {
	if spec.Tenant == "" {
		return 0, fmt.Errorf("tenant: empty tenant name")
	}
	n, err := s.sizeFiles(spec.Size)
	if err != nil {
		return 0, err
	}
	switch spec.Kind {
	case "grep":
		return n + 1, nil
	case "sort":
		return n + reducers, nil
	case "write":
		return n, nil
	default:
		return 0, fmt.Errorf("tenant: unknown kind %q", spec.Kind)
	}
}

// outDir is a job's private HDFS output namespace, formatted once a job.
func (s *Service) outDir(j *Job) string {
	if j.dir == "" {
		j.dir = numbered(j.ID, 4, "/tenant/", j.Spec.Tenant, "/job-")
	}
	return j.dir
}

// numbered is prefix's strings followed by n >= 0 zero-padded to width
// digits (fmt's %0*d), made in one allocation.
func numbered(n, width int, prefix ...string) string {
	var buf [64]byte
	b := buf[:0]
	for _, p := range prefix {
		b = append(b, p...)
	}
	digits := len(b)
	for b = strconv.AppendInt(b, int64(n), 10); len(b)-digits < width; {
		b = slices.Insert(b, digits, '0')
	}
	return string(b)
}

// runJob executes one catalog job on the cluster from the driver
// process p, with the job's lease gating its slots and the env's chaos
// injector and retry budget applied. It fills j.Result / j.OutputBytes.
func (s *Service) runJob(p *sim.Proc, j *Job) error {
	files, err := s.sizeFiles(j.Spec.Size)
	if err != nil {
		return err
	}
	base := &mapreduce.Job{
		Name:        numbered(j.ID, 4, j.Spec.Kind, "-", j.Spec.Size, "-"),
		Cluster:     s.env.BD,
		TaskStartup: taskStartup,
		MaxAttempts: s.env.Cfg.MaxAttempts,
		Faults:      s.env.Faults(),
		Obs:         s.obs,
		Lease:       j.lease,
	}
	switch j.Spec.Kind {
	case "grep":
		return s.runGrep(p, j, base, files)
	case "sort":
		return s.runSort(p, j, base, files)
	case "write":
		return s.runWrite(p, j, base, files)
	}
	return fmt.Errorf("tenant: unknown kind %q", j.Spec.Kind)
}

// runGrep counts the marker across the job's input prefix (Figure 2's
// Grep), and the driver writes the count to the job's output dir.
func (s *Service) runGrep(p *sim.Proc, j *Job, job *mapreduce.Job, files int) error {
	workloads.Grep(job, s.be.Input(s.inputs[:files], 0), s.cfg.ScanPerMB, marker)
	res, err := job.Run(p)
	if err != nil {
		return err
	}
	j.Result = workloads.Matches(res)
	return s.writeResult(p, j, fmt.Sprintf("%s=%d\n", marker, j.Result))
}

// runSort is Figure 2's TeraSort whose pairs carry a placeholder, not
// their records: reducers count them, and the driver writes the sorted
// runs into the job's output dir.
func (s *Service) runSort(p *sim.Proc, j *Job, job *mapreduce.Job, files int) error {
	workloads.Sort(job, s.be.Input(s.inputs[:files], 0), s.cfg.ScanPerMB, reducers, 100)
	res, err := job.Run(p)
	if err != nil {
		return err
	}
	outBytes := workloads.Sorted(res)
	j.Result = outBytes
	// Reducers' sorted runs land in the job's namespace, written from
	// the driver (the reduce wave has completed; sizes are exact).
	perRed := outBytes / reducers
	for r := 0; r < reducers; r++ {
		node := s.env.BD.Nodes[r%len(s.env.BD.Nodes)]
		path := numbered(r, 5, s.outDir(j), "/part-")
		if err := s.be.Write(p, node, path, workloads.Zeros(perRed)); err != nil {
			return err
		}
		j.OutputBytes += perRed
	}
	return nil
}

// runWrite is Figure 2's TestDFSIO write: one map task per output file,
// each writing an input file's worth of bytes into the job's output dir
// from its node after a format charge. The job is map-only, so its
// demand is exactly the file count.
func (s *Service) runWrite(p *sim.Proc, j *Job, job *mapreduce.Job, files int) error {
	data := workloads.Zeros(inputFileBytes)
	workloads.Write(job, s.be, files, func(i int) string {
		return numbered(i, 4, s.outDir(j), "/part-")
	}, data, s.cfg.ScanPerMB*float64(len(data))/2e6)
	res, err := job.Run(p)
	if err != nil {
		return err
	}
	var written int64
	for _, kv := range res.Output {
		written += kv.V.(int64)
	}
	j.Result = written
	j.OutputBytes = written
	return nil
}

// writeResult stores a small result file in the job's output dir from
// a deterministic home node.
func (s *Service) writeResult(p *sim.Proc, j *Job, content string) error {
	node := s.env.BD.Nodes[j.ID%len(s.env.BD.Nodes)]
	if err := s.be.Write(p, node, s.outDir(j)+"/result", []byte(content)); err != nil {
		return err
	}
	j.OutputBytes += int64(len(content))
	return nil
}
