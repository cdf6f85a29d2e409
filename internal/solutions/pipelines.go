package solutions

import (
	"fmt"
	"path"

	"scidp/internal/core"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/mapreduce"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// hdfsWholeFileInput yields one split per HDFS file and reads the whole
// file (all blocks, locality-preferred) as the record value.
type hdfsWholeFileInput struct {
	env   *Env
	paths []string
}

func (in *hdfsWholeFileInput) Splits(p *sim.Proc) ([]*mapreduce.Split, error) {
	var out []*mapreduce.Split
	for _, pth := range in.paths {
		n, err := in.env.HDFS.Stat(p, pth)
		if err != nil {
			return nil, err
		}
		locs := map[string]bool{}
		var hosts []string
		for _, b := range n.Blocks {
			for _, h := range hdfs.HostsOf(b) {
				if !locs[h] {
					locs[h] = true
					hosts = append(hosts, h)
				}
			}
		}
		out = append(out, &mapreduce.Split{Label: pth, Payload: pth, Length: n.Size(), Locations: hosts})
	}
	return out, nil
}

func (in *hdfsWholeFileInput) ForEach(tc *mapreduce.TaskContext, s *mapreduce.Split, fn func(key string, value any) error) error {
	var data []byte
	var err error
	tc.Phase("Read", func() {
		data, err = in.env.HDFS.ReadFile(tc.Proc(), tc.Node(), s.Payload.(string))
	})
	if err != nil {
		return err
	}
	return fn(s.Label, data)
}

// hdfsRandomReader adapts an HDFS file to the netcdf.ReaderAt interface,
// charging block-range reads on the task's node.
type hdfsRandomReader struct {
	env  *Env
	tc   *mapreduce.TaskContext
	path string
	size int64
}

func (r *hdfsRandomReader) ReadAt(off, n int64) ([]byte, error) {
	return r.env.HDFS.ReadAt(r.tc.Proc(), r.tc.Node(), r.path, off, n)
}

func (r *hdfsRandomReader) Size() int64 { return r.size }

// hdfsNetCDFInput is the SciHadoop-style input: one split per
// HDFS-resident netCDF file; reading a split opens the file in place and
// pulls only the analyzed variable (header + its chunks), not the whole
// file.
type hdfsNetCDFInput struct {
	hdfsWholeFileInput
	varName string
}

func (in *hdfsNetCDFInput) ForEach(tc *mapreduce.TaskContext, s *mapreduce.Split, fn func(key string, value any) error) error {
	path := s.Payload.(string)
	node, err := in.env.HDFS.Stat(tc.Proc(), path)
	if err != nil {
		return err
	}
	var arr *netcdf.Array
	tc.Phase("Read", func() {
		r := &hdfsRandomReader{env: in.env, tc: tc, path: path, size: node.Size()}
		var f *netcdf.File
		f, err = netcdf.Open(r)
		if err != nil {
			return
		}
		arr, err = f.GetVar(in.varName)
	})
	if err != nil {
		return err
	}
	return fn(s.Label, arr)
}

// distcp copies files from the PFS into HDFS with one map task per file
// (Hadoop's parallel copy; what SciHadoop and Vanilla Hadoop must run
// before processing). Returns destination paths and bytes moved.
func distcp(p *sim.Proc, env *Env, files []string, dstDir string) ([]string, int64, error) {
	splits := make([]*mapreduce.Split, len(files))
	dsts := make([]string, len(files))
	for i, f := range files {
		dsts[i] = path.Join(dstDir, path.Base(f))
		splits[i] = &mapreduce.Split{Label: f, Payload: i}
	}
	var moved int64
	job := env.job("distcp")
	job.Input = mapreduce.StaticInput(splits)
	job.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		i := value.(int)
		mount := env.Mount(tc.Node())
		size, err := mount.Stat(tc.Proc(), files[i])
		if err != nil {
			return err
		}
		data, err := mount.ReadAt(tc.Proc(), files[i], 0, size)
		if err != nil {
			return err
		}
		moved += int64(len(data))
		return env.HDFS.WriteFile(tc.Proc(), tc.Node(), dsts[i], data)
	}
	if _, err := job.Run(p); err != nil {
		return nil, 0, err
	}
	return dsts, moved, nil
}

// seqCopy copies files one at a time through a single node — the Naive
// path's serial copy.
func seqCopy(p *sim.Proc, env *Env, files []string, dstDir string) ([]string, int64, error) {
	node := env.BD.Node(0)
	mount := env.Mount(node)
	dsts := make([]string, len(files))
	var moved int64
	for i, f := range files {
		dsts[i] = path.Join(dstDir, path.Base(f))
		size, err := mount.Stat(p, f)
		if err != nil {
			return nil, 0, err
		}
		data, err := mount.ReadAt(p, f, 0, size)
		if err != nil {
			return nil, 0, err
		}
		moved += int64(len(data))
		if err := env.HDFS.WriteFile(p, node, dsts[i], data); err != nil {
			return nil, 0, err
		}
	}
	return dsts, moved, nil
}

// RunNaive is Table I's first row: sequential conversion, sequential
// copy, sequential processing on one node.
func RunNaive(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	env.ensureOpen()
	rep := &Report{Solution: "naive"}
	start := p.Now()
	csvs, textBytes, err := ConvertToCSV(p, env, wl)
	if err != nil {
		return nil, err
	}
	rep.ConvertSeconds = p.Now() - start
	rep.TextBytes = textBytes

	start = p.Now()
	staged, moved, err := seqCopy(p, env, csvs, "/staged-csv")
	if err != nil {
		return nil, err
	}
	rep.CopySeconds = p.Now() - start
	rep.CopiedBytes = moved

	start = p.Now()
	node := env.BD.Node(0)
	sc := newSerialCtx(p, node)
	stats := &procStats{}
	for _, f := range staged {
		var data []byte
		var rerr error
		sc.Phase("Read", func() {
			data, rerr = env.HDFS.ReadFile(p, node, f)
		})
		if rerr != nil {
			return nil, rerr
		}
		g, err := gridFromCSV(env, sc, data, wl.Dataset.Spec)
		if err != nil {
			return nil, err
		}
		out, err := processGrid(env, wl, sc, g, true)
		if err != nil {
			return nil, err
		}
		for i, png := range out.images {
			dst := fmt.Sprintf("/results/naive/img/t%04d_l%03d.png", g.t, out.levels[i])
			if err := env.HDFS.WriteFile(p, node, dst, png); err != nil {
				return nil, err
			}
			stats.images++
		}
		if out.analysis != nil {
			text := out.analysis.WriteCSV()
			stats.analysisBytes += int64(len(text))
			dst := fmt.Sprintf("/results/naive/analysis/t%04d.csv", g.t)
			if err := env.HDFS.WriteFile(p, node, dst, text); err != nil {
				return nil, err
			}
		}
	}
	rep.ProcessSeconds = p.Now() - start
	rep.TotalSeconds = rep.CopySeconds + rep.ProcessSeconds
	rep.PhaseMeans = map[string]float64{}
	for name, total := range sc.phases {
		rep.PhaseMeans[name] = total / float64(len(staged))
	}
	rep.LevelsPerTask = float64(wl.Dataset.Spec.Levels)
	rep.Images = stats.images
	rep.AnalysisBytes = stats.analysisBytes
	return rep, nil
}

// RunVanillaHadoop is Table I's second row: conversion, then parallel
// copy of the text onto HDFS, then parallel processing of the text.
func RunVanillaHadoop(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	env.ensureOpen()
	rep := &Report{Solution: "vanilla-hadoop"}
	start := p.Now()
	csvs, textBytes, err := ConvertToCSV(p, env, wl)
	if err != nil {
		return nil, err
	}
	rep.ConvertSeconds = p.Now() - start
	rep.TextBytes = textBytes

	start = p.Now()
	staged, moved, err := distcp(p, env, csvs, "/staged-csv")
	if err != nil {
		return nil, err
	}
	rep.CopySeconds = p.Now() - start
	rep.CopiedBytes = moved

	start = p.Now()
	input := &hdfsWholeFileInput{env: env, paths: staged}
	res, stats, err := runProcessing(p, env, wl, "vanilla", input,
		func(tc *mapreduce.TaskContext, key string, value any) (*grid, error) {
			return gridFromCSV(env, tc, value.([]byte), wl.Dataset.Spec)
		})
	if err != nil {
		return nil, err
	}
	rep.ProcessSeconds = p.Now() - start
	rep.TotalSeconds = rep.CopySeconds + rep.ProcessSeconds
	fillReport(rep, env, res, stats, wl)
	return rep, nil
}

// RunPortHadoop is Table I's third row: conversion is still required, but
// the text is processed in place on the PFS through flat virtual blocks
// (PortHadoop's virtual-block design, which SciDP generalizes).
func RunPortHadoop(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	env.ensureOpen()
	rep := &Report{Solution: "porthadoop"}
	start := p.Now()
	_, textBytes, err := ConvertToCSV(p, env, wl)
	if err != nil {
		return nil, err
	}
	rep.ConvertSeconds = p.Now() - start
	rep.TextBytes = textBytes

	start = p.Now()
	mapper := core.NewMapper(env.HDFS, env.Registry, "/porthadoop")
	// One dummy block per text file: the whole file is one task's input.
	mapping, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), csvDir(wl), core.MapOptions{
		FlatBlockSize: 1 << 40,
	})
	if err != nil {
		return nil, err
	}
	res, stats, err := runProcessing(p, env, wl, "porthadoop", env.pfsInput(mapping.Root),
		func(tc *mapreduce.TaskContext, key string, value any) (*grid, error) {
			text := value.([]byte)
			// The flat mapping lost the record structure: PortHadoop
			// scans the text to re-align records before parsing.
			tc.Charge("Convert", env.Cfg.Cost.TextIndexPerMB*env.scaleMB(len(text)))
			return gridFromCSV(env, tc, text, wl.Dataset.Spec)
		})
	if err != nil {
		return nil, err
	}
	rep.ProcessSeconds = p.Now() - start
	rep.TotalSeconds = rep.ProcessSeconds
	fillReport(rep, env, res, stats, wl)
	return rep, nil
}

// RunSciHadoop is Table I's fourth row: no conversion (native netCDF
// support), but the whole files — all 23 variables — must be copied onto
// HDFS before processing ("the netCDF file is not dividable in the
// variable level, the whole file has to be moved").
func RunSciHadoop(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	env.ensureOpen()
	rep := &Report{Solution: "scihadoop"}
	start := p.Now()
	staged, moved, err := distcp(p, env, wl.Dataset.Files, "/staged-nc")
	if err != nil {
		return nil, err
	}
	rep.CopySeconds = p.Now() - start
	rep.CopiedBytes = moved

	start = p.Now()
	// SciHadoop is netCDF-aware: although it had to copy the whole files,
	// its tasks read only the analyzed variable's chunks out of the
	// HDFS-resident netCDF (block-range reads, locality-preferred).
	input := &hdfsNetCDFInput{hdfsWholeFileInput: hdfsWholeFileInput{env: env, paths: staged}, varName: wl.Var}
	res, stats, err := runProcessing(p, env, wl, "scihadoop", input,
		func(tc *mapreduce.TaskContext, key string, value any) (*grid, error) {
			arr := value.(*netcdf.Array)
			rawMB := env.scaleMB(len(arr.Data))
			tc.Charge("Read", env.Cfg.Cost.DecompressPerMB*rawMB)
			tc.Charge("Convert", env.Cfg.Cost.BinConvertPerMB*rawMB)
			return &grid{
				t:      workloads.TimestampIndex(key),
				levels: arr.Shape[0], ny: arr.Shape[1], nx: arr.Shape[2],
				vals: arr.Float32s(),
			}, nil
		})
	if err != nil {
		return nil, err
	}
	rep.ProcessSeconds = p.Now() - start
	rep.TotalSeconds = rep.CopySeconds + rep.ProcessSeconds
	fillReport(rep, env, res, stats, wl)
	return rep, nil
}

// SciDPOptions tunes the SciDP pipeline (ablations).
type SciDPOptions struct {
	// RowsPerBlock overrides dummy-block granularity (0 = one task per
	// variable, the configuration the paper's Figure 7 measures).
	RowsPerBlock int
	// Name namespaces the run's HDFS mirror and results directories
	// (default "scidp"), letting several runs share one environment.
	Name string
	// Engine configures each task's PFS Reader I/O engine (chunk cache
	// budget, readahead depth).
	Engine core.EngineOptions
	// Caches, when non-nil, is the per-node chunk cache set the run uses
	// — pass the same set to a later run to start it warm, or inspect
	// its Stats afterwards.
	Caches *ioengine.CacheSet
}

// RunSciDP is Table I's last row: no conversion, no copy — the Data
// Mapper mirrors the netCDF files as virtual HDFS inodes (selected
// variable only) and every map task's PFS Reader pulls its hyperslab
// straight from the PFS, overlapping with other tasks' plotting.
func RunSciDP(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	return RunSciDPWith(p, env, wl, SciDPOptions{})
}

// RunSciDPWith is RunSciDP with explicit tuning.
func RunSciDPWith(p *sim.Proc, env *Env, wl *Workload, opts SciDPOptions) (*Report, error) {
	env.ensureOpen()
	name := opts.Name
	if name == "" {
		name = "scidp"
	}
	if opts.Caches != nil {
		opts.Caches.RegisterObs(env.Obs, obs.L("set", name))
	}
	rep := &Report{Solution: name}
	start := p.Now()
	rows := opts.RowsPerBlock
	if rows == 0 {
		rows = wl.Dataset.Spec.Levels // one task per (file, variable)
	}
	mapper := core.NewMapper(env.HDFS, env.Registry, "/"+name)
	mapping, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), wl.Dataset.Spec.Dir, core.MapOptions{
		Vars:         []string{wl.Var},
		RowsPerBlock: rows,
		// Mirror only the files this workload reads: a workload whose
		// Dataset.Files is a window of the generated directory gets a
		// window-sized job (the full list reproduces the full mirror).
		Paths: wl.Dataset.Files,
	})
	if err != nil {
		return nil, err
	}
	input := env.pfsInput(mapping.Root)
	input.Cost = env.sciCost()
	input.Engine = opts.Engine
	input.Caches = opts.Caches
	input.Tier = env.Tier
	res, stats, err := runProcessing(p, env, wl, name, input,
		func(tc *mapreduce.TaskContext, key string, value any) (*grid, error) {
			return gridFromSlab(value)
		})
	if err != nil {
		return nil, err
	}
	rep.ProcessSeconds = p.Now() - start
	rep.TotalSeconds = rep.ProcessSeconds
	fillReport(rep, env, res, stats, wl)
	rep.LevelsPerTask = float64(rows)
	return rep, nil
}

// RunSciDPStaged is the no-overlap ablation of SciDP: a first map wave
// reads every slab from the PFS (same selective reads, same slots), a
// barrier, then a second wave plots from memory. The difference to
// RunSciDP isolates the benefit of overlapping PFS reads with other
// tasks' computation.
func RunSciDPStaged(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	env.ensureOpen()
	rep := &Report{Solution: "scidp-staged"}
	start := p.Now()
	mapper := core.NewMapper(env.HDFS, env.Registry, "/scidp-staged")
	mapping, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), wl.Dataset.Spec.Dir, core.MapOptions{
		Vars:         []string{wl.Var},
		RowsPerBlock: wl.Dataset.Spec.Levels,
	})
	if err != nil {
		return nil, err
	}
	// Wave 1: read-only job materializing every slab (decompression
	// charged here; conversion deferred to the compute wave).
	input := env.pfsInput(mapping.Root)
	input.Cost.DecompressPerRawMB = env.sciCost().DecompressPerRawMB
	// Wave 2's input, in the order wave 1's tasks finished.
	var staged mapreduce.StaticInput
	readJob := env.job("scidp-staged-read")
	readJob.Input = input
	readJob.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		staged = append(staged, &mapreduce.Split{Label: key, Payload: value})
		return nil
	}
	if _, err := readJob.Run(p); err != nil {
		return nil, err
	}
	// Wave 2: compute from memory.
	res, stats, err := runProcessing(p, env, wl, "scidp-staged", staged,
		func(tc *mapreduce.TaskContext, key string, value any) (*grid, error) {
			g, err := gridFromSlab(value)
			if err != nil {
				return nil, err
			}
			// A float slab's raw bytes are its values' 4 bytes each.
			tc.Charge("Convert", env.Cfg.Cost.BinConvertPerMB*env.scaleMB(len(g.vals)*4))
			return g, nil
		})
	if err != nil {
		return nil, err
	}
	rep.ProcessSeconds = p.Now() - start
	rep.TotalSeconds = rep.ProcessSeconds
	fillReport(rep, env, res, stats, wl)
	return rep, nil
}

// Runner is one solution's entry point.
type Runner func(p *sim.Proc, env *Env, wl *Workload) (*Report, error)

// All returns the five solutions in Table I order.
func All() map[string]Runner {
	return map[string]Runner{
		"naive":          RunNaive,
		"vanilla-hadoop": RunVanillaHadoop,
		"porthadoop":     RunPortHadoop,
		"scihadoop":      RunSciHadoop,
		"scidp":          RunSciDP,
	}
}

// DataPathRow is Table I's qualitative matrix.
type DataPathRow struct {
	// Solution is the row name.
	Solution string
	// Conversion reports whether text conversion is required.
	Conversion bool
	// Copy describes the data-copy column ("Sequential", "Parallel",
	// "No").
	Copy string
	// Processing describes the processing column.
	Processing string
}

// TableI returns the paper's Table I rows.
func TableI() []DataPathRow {
	return []DataPathRow{
		{Solution: "Naive", Conversion: true, Copy: "Sequential", Processing: "Sequential"},
		{Solution: "Vanilla Hadoop", Conversion: true, Copy: "Parallel", Processing: "Parallel"},
		{Solution: "PortHadoop", Conversion: true, Copy: "No", Processing: "Parallel"},
		{Solution: "SciHadoop", Conversion: false, Copy: "Parallel", Processing: "Parallel"},
		{Solution: "SciDP", Conversion: false, Copy: "No", Processing: "Parallel"},
	}
}
