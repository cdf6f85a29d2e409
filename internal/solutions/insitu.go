package solutions

import (
	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/mapreduce"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// WorkflowReport times the paper's end-to-end workflow: HPC simulation
// producing files on the PFS, then analysis/visualization of every file.
type WorkflowReport struct {
	// Strategy names the workflow variant.
	Strategy string
	// SimulationSeconds is when the last output file landed on the PFS.
	SimulationSeconds float64
	// EndToEndSeconds is simulation start to last image stored.
	EndToEndSeconds float64
	// AnalysisLagSeconds is EndToEnd - Simulation: how long after the
	// simulation finished the analysis kept running.
	AnalysisLagSeconds float64
	// Images is the number of PNGs produced.
	Images int
}

// WorkflowConfig drives RunWorkflow.
type WorkflowConfig struct {
	// Blobs and Files describe the run the simulation will write.
	Blobs map[string][]byte
	// Dataset describes the run (for grid dimensions).
	Dataset *workloads.Dataset
	// Var is the analyzed variable.
	Var string
	// ComputeSecondsPerStep is the simulation compute time per output.
	ComputeSecondsPerStep float64
	// HPCNodes is the simulation cluster size.
	HPCNodes int
	// InSitu analyzes each file the moment it lands; false waits for the
	// whole run, then executes the standard SciDP pipeline.
	InSitu bool
}

// RunWorkflow plays the full simulate-then-analyze workflow on env and
// reports end-to-end timing. With InSitu, SciDP maps and processes each
// output immediately after the simulation writes it — the paper's "launch
// data analysis on a Hadoop computing environment immediately after data
// is generated"; otherwise analysis starts only after the run completes
// (the conventional offline workflow).
func RunWorkflow(p *sim.Proc, env *Env, cfg WorkflowConfig) (*WorkflowReport, error) {
	env.ensureOpen()
	if cfg.HPCNodes <= 0 {
		cfg.HPCNodes = 8
	}
	hpc := cluster.New(env.K, "hpc", cluster.DefaultHardware(cfg.HPCNodes, 1).Scaled(env.Cfg.ByteScale))
	run := workloads.SimSpec{
		Comm:           workloads.NewComm(env.K, hpc, env.PFS),
		FS:             env.PFS,
		Blobs:          cfg.Blobs,
		Files:          cfg.Dataset.Files,
		ComputeSeconds: cfg.ComputeSecondsPerStep,
	}
	wl := &Workload{Dataset: cfg.Dataset, Var: cfg.Var}
	start := p.Now()
	if cfg.InSitu {
		return runInSitu(p, env, wl, run)
	}
	rep := &WorkflowReport{Strategy: "offline"}
	if err := workloads.SimulateRun(p, run); err != nil {
		return nil, err
	}
	rep.SimulationSeconds = p.Now() - start
	srep, err := RunSciDP(p, env, wl)
	if err != nil {
		return nil, err
	}
	rep.Images = srep.Images
	rep.EndToEndSeconds = p.Now() - start
	rep.AnalysisLagSeconds = rep.EndToEndSeconds - rep.SimulationSeconds
	return rep, nil
}

// runInSitu is the in-situ arm: the simulation runs as its own process on
// the HPC side and announces each file it lands on a queue; the driver
// runs one stage on the Hadoop cluster whose feed waits on that queue,
// maps the file — on the feed's caller, so the simulation's timeline is
// the offline arm's — and mints a task per dummy block. A task is a SciDP
// map task that stores its own images: read the block through the PFS
// Reader, plot every level, write the PNGs to HDFS.
func runInSitu(p *sim.Proc, env *Env, wl *Workload, run workloads.SimSpec) (*WorkflowReport, error) {
	rep := &WorkflowReport{Strategy: "in-situ"}
	start := p.Now()
	landed := env.K.NewQueue()
	var simErr error
	run.OnFile = func(file string) { landed.Push(file) }
	env.K.Go("simulation", func(sp *sim.Proc) {
		simErr = workloads.SimulateRun(sp, run)
		rep.SimulationSeconds = sp.Now() - start
		landed.Close()
	})

	mapper := core.NewMapper(env.HDFS, env.Registry, "/scidp")
	input := env.pfsInput("")
	input.Cost = env.sciCost()
	input.Tier = env.Tier
	// analyze is one dummy block's task body.
	analyze := func(tc *mapreduce.TaskContext, split *mapreduce.Split) (commit func(), err error) {
		var stored Report
		err = input.ForEach(tc, split, func(_ string, value any) error {
			g, err := gridFromSlab(value)
			if err != nil {
				return err
			}
			out, err := processGrid(env, wl, tc, g, false)
			if err != nil {
				return err
			}
			return storeTimestamp(env, tc, wl, "/results/insitu", out.imgs, &stored)
		})
		if err != nil {
			return nil, err
		}
		return func() { rep.Images += stored.Images }, nil
	}
	var minted []*mapreduce.Split // the newest file's blocks not yet handed out
	err := env.job("insitu").RunStage(p, "map", func(fp *sim.Proc) (*mapreduce.Task, error) {
		for len(minted) == 0 {
			file, ok := fp.Pop(landed)
			if !ok {
				return nil, simErr
			}
			mf, err := mapper.MapFile(fp, env.Mount(env.BD.Node(0)), file.(string), core.MapOptions{
				Vars:         []string{wl.Var},
				RowsPerBlock: wl.Dataset.Spec.Levels,
			})
			if err != nil {
				return nil, err
			}
			for _, mv := range mf.Vars {
				minted = core.AppendBlockSplits(minted, mv.INode)
			}
		}
		split := minted[0]
		minted = minted[1:]
		return &mapreduce.Task{Label: split.Label, Run: func(tc *mapreduce.TaskContext) (func(), error) {
			return analyze(tc, split)
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	rep.EndToEndSeconds = p.Now() - start
	rep.AnalysisLagSeconds = rep.EndToEndSeconds - rep.SimulationSeconds
	return rep, nil
}
