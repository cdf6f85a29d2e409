package tenant

import (
	"fmt"

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
		Files: s.cfg.InputFiles, FileBytes: s.cfg.FileBytes,
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
	if n > s.cfg.InputFiles {
		n = s.cfg.InputFiles
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
		return n + s.cfg.Reducers, nil
	case "write":
		return n, nil
	default:
		return 0, fmt.Errorf("tenant: unknown kind %q", spec.Kind)
	}
}

// outDir is a job's private HDFS output namespace.
func (s *Service) outDir(j *Job) string {
	return fmt.Sprintf("/tenant/%s/job-%04d", j.Spec.Tenant, j.ID)
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
		Name:        fmt.Sprintf("%s-%s-%04d", j.Spec.Kind, j.Spec.Size, j.ID),
		Cluster:     s.env.BD,
		TaskStartup: s.cfg.TaskStartup,
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

// runGrep counts the marker across the job's input prefix: map scans
// each block (modeled cost Charge("Scan"), real count on the data
// plane), one reducer sums, and the driver writes the count to the
// job's output dir.
func (s *Service) runGrep(p *sim.Proc, j *Job, job *mapreduce.Job, files int) error {
	job.Input = s.be.Input(s.inputs[:files], 0)
	job.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		data := value.([]byte)
		tc.Charge("Scan", s.cfg.ScanPerMB*float64(len(data))/1e6)
		var n int64
		tc.Compute(func() { n = int64(workloads.CountWord(data, marker)) })
		tc.Emit("count", n)
		return nil
	}
	job.Reduce = func(tc *mapreduce.TaskContext, key string, values []any) error {
		var sum int64
		for _, v := range values {
			sum += v.(int64)
		}
		tc.Emit(key, sum)
		return nil
	}
	res, err := job.Run(p)
	if err != nil {
		return err
	}
	j.Result = res.Output[0].V.(int64)
	return s.writeResult(p, j, fmt.Sprintf("%s=%d\n", marker, j.Result))
}

// runSort is a TeraSort-style shuffle: map emits fixed-width records
// keyed by their first bytes, reducers count them and write sorted runs
// into the job's output dir.
func (s *Service) runSort(p *sim.Proc, j *Job, job *mapreduce.Job, files int) error {
	const rec = 100
	job.Input = s.be.Input(s.inputs[:files], 0)
	job.NumReducers = s.cfg.Reducers
	job.PairBytes = func(kv mapreduce.KV) int64 { return rec }
	job.Partition = func(key string, n int) int {
		if len(key) == 0 {
			return 0
		}
		return int(key[0]) * n / 256
	}
	job.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		data := value.([]byte)
		tc.Charge("Scan", s.cfg.ScanPerMB*float64(len(data))/1e6)
		tc.Compute(func() { workloads.EmitRecords(tc, data, rec, 10, rec) })
		return nil
	}
	job.Reduce = func(tc *mapreduce.TaskContext, key string, values []any) error {
		tc.Emit(key, len(values))
		return nil
	}
	res, err := job.Run(p)
	if err != nil {
		return err
	}
	// Output sizes come from the committed reduce output, so retried
	// attempts can never double-count.
	var outBytes int64
	for _, kv := range res.Output {
		outBytes += rec * int64(kv.V.(int))
	}
	j.Result = outBytes
	// Reducers' sorted runs land in the job's namespace, written from
	// the driver (the reduce wave has completed; sizes are exact).
	perRed := outBytes / int64(s.cfg.Reducers)
	for r := 0; r < s.cfg.Reducers; r++ {
		node := s.env.BD.Nodes[r%len(s.env.BD.Nodes)]
		path := fmt.Sprintf("%s/part-%05d", s.outDir(j), r)
		if err := s.be.Write(p, node, path, workloads.Zeros(perRed)); err != nil {
			return err
		}
		j.OutputBytes += perRed
	}
	return nil
}

// runWrite is a TestDFSIO-style write: one map task per output file,
// each writing FileBytes into the job's output dir from its node. The
// job is map-only, so its demand is exactly the file count. The format
// charge precedes the write: preemption kills land only inside Charge,
// so a preempted (or fault-failed) attempt has never written its file
// and the retry's create cannot collide.
func (s *Service) runWrite(p *sim.Proc, j *Job, job *mapreduce.Job, files int) error {
	job.Input = writeInput(files)
	job.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		i := value.(int)
		path := fmt.Sprintf("%s/part-%04d", s.outDir(j), i)
		data := workloads.Zeros(s.cfg.FileBytes)
		tc.Charge("Format", s.cfg.ScanPerMB*float64(len(data))/2e6)
		var err error
		tc.Phase("Write", func() {
			err = s.be.Write(tc.Proc(), tc.Node(), path, data)
		})
		if err != nil {
			return err
		}
		tc.Emit("bytes", int64(len(data)))
		return nil
	}
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

// writeInput mints n location-free splits whose payload is the output
// index — the input side of the write kind.
func writeInput(n int) mapreduce.InputFormat {
	out := make(mapreduce.StaticInput, n)
	for i := range out {
		out[i] = &mapreduce.Split{Label: fmt.Sprintf("w#%d", i), Payload: i, Length: 1}
	}
	return out
}
