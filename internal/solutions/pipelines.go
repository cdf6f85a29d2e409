package solutions

import (
	"cmp"
	"path"

	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/hdfs"
	"scidp/internal/ioengine"
	"scidp/internal/mapreduce"
	"scidp/internal/netcdf"
	"scidp/internal/obs"
	"scidp/internal/rframe"
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

// Table I's data-copy column: how a path moves its input onto HDFS.
const (
	copyNone     = "No"
	copySerial   = "Sequential"
	copyParallel = "Parallel"
)

// DataPath is one row of Table I, or the staged ablation of its last row.
// The rows differ only in where the data sits and how it moves — whether
// the variable is converted to text, how the files are copied onto HDFS,
// and whether one process or a MapReduce job does the processing — and
// in how a task gets and decodes its records. The job itself (analysis,
// plotting, storing) is the same for every path.
type DataPath struct {
	// name labels the Report, the processing job and /results/<name>.
	name string
	// title is the row's name in Table I.
	title string
	// convert turns the variable into CSV text on the PFS first.
	convert bool
	// copy is copyNone, copySerial (one file at a time through node 0)
	// or copyParallel (one map task per file, Hadoop's distcp).
	copy string
	// serial processes every file in one process on node 0 (Naive); input
	// is then unused.
	serial bool
	// input builds the processing job's input over files: the dataset's,
	// the converted text, or their HDFS copies.
	input func(p *sim.Proc, env *Env, wl *Workload, files []string, name string, opts SciDPOptions) (mapreduce.InputFormat, error)
	// decode turns one record into the grid processGrid plots.
	decode func(env *Env, wl *Workload, tc charger, key string, value any) (*grid, error)
}

var (
	naive         = DataPath{name: "naive", title: "Naive", convert: true, copy: copySerial, serial: true, decode: csvGrid}
	vanillaHadoop = DataPath{name: "vanilla-hadoop", title: "Vanilla Hadoop", convert: true, copy: copyParallel, input: wholeFiles, decode: csvGrid}
	// PortHadoop processes the text in place on the PFS through flat
	// virtual blocks (the virtual-block design SciDP generalizes).
	portHadoop = DataPath{name: "porthadoop", title: "PortHadoop", convert: true, copy: copyNone, input: flatText, decode: realignedCSVGrid}
	// SciHadoop reads netCDF natively, but a netCDF file is not divisible
	// by variable, so all of every file is copied onto HDFS first.
	sciHadoop = DataPath{name: "scihadoop", title: "SciHadoop", copy: copyParallel, input: hdfsNetCDF, decode: arrayGrid}
	// SciDP mirrors the selected variable as virtual HDFS inodes; every map
	// task's PFS Reader pulls its hyperslab straight from the PFS,
	// overlapping with other tasks' plotting.
	sciDP = DataPath{name: "scidp", title: "SciDP", copy: copyNone, input: sciDPInput, decode: slabGrid}
	// sciDPStaged reads every slab in a first map wave, then plots from
	// memory in a second: its difference to SciDP isolates the benefit of
	// overlapping PFS reads with other tasks' computation.
	sciDPStaged = DataPath{name: "scidp-staged", copy: copyNone, input: stagedInput, decode: stagedSlabGrid}
)

// All returns the five solutions in Table I order.
func All() []DataPath { return []DataPath{naive, vanillaHadoop, portHadoop, sciHadoop, sciDP} }

// Name is the path's Report.Solution and results directory name.
func (d DataPath) Name() string { return d.name }

// Run is the path's Runner.
func (d DataPath) Run(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	return d.run(p, env, wl, SciDPOptions{})
}

// run converts, copies and processes, timing each; Total is copy plus
// processing (conversion is excluded, as in the paper).
func (d DataPath) run(p *sim.Proc, env *Env, wl *Workload, opts SciDPOptions) (*Report, error) {
	env.ensureOpen()
	name := cmp.Or(opts.Name, d.name)
	if opts.Caches != nil {
		opts.Caches.RegisterObs(env.Obs, obs.L("set", name))
	}
	rep := &Report{Solution: name, LevelsPerTask: float64(cmp.Or(opts.RowsPerBlock, wl.Dataset.Spec.Levels))}
	files := wl.Dataset.Files
	var err error
	start := p.Now()
	if d.convert {
		if files, rep.TextBytes, err = ConvertToCSV(p, env, wl); err != nil {
			return nil, err
		}
		rep.ConvertSeconds = p.Now() - start
	}
	start = p.Now()
	if d.copy != copyNone {
		if files, rep.CopiedBytes, err = d.copyIn(p, env, files); err != nil {
			return nil, err
		}
		rep.CopySeconds = p.Now() - start
	}
	start = p.Now()
	if d.serial {
		err = d.processSerial(p, env, wl, files, name, rep)
	} else {
		var input mapreduce.InputFormat
		if input, err = d.input(p, env, wl, files, name, opts); err == nil {
			err = runProcessing(p, env, wl, name, input, d.decode, rep)
		}
	}
	if err != nil {
		return nil, err
	}
	rep.ProcessSeconds = p.Now() - start
	rep.TotalSeconds = rep.CopySeconds + rep.ProcessSeconds
	return rep, nil
}

// copyIn copies files from the PFS into an HDFS staging directory, one
// at a time through node 0 or with one map task per file, and returns the
// copies' paths and the bytes moved.
func (d DataPath) copyIn(p *sim.Proc, env *Env, files []string) ([]string, int64, error) {
	dir := "/staged-nc"
	if d.convert {
		dir = "/staged-csv"
	}
	dsts := make([]string, len(files))
	splits := make(mapreduce.StaticInput, len(files))
	for i, f := range files {
		dsts[i] = path.Join(dir, path.Base(f))
		splits[i] = &mapreduce.Split{Label: f, Payload: i}
	}
	var moved int64
	// copyFile reads file i whole through node n's mount and writes it to
	// HDFS from n.
	copyFile := func(p *sim.Proc, n *cluster.Node, i int) error {
		mount := env.Mount(n)
		size, err := mount.Stat(p, files[i])
		if err != nil {
			return err
		}
		data, err := mount.ReadAt(p, files[i], 0, size)
		if err != nil {
			return err
		}
		moved += int64(len(data))
		return env.HDFS.WriteFile(p, n, dsts[i], data)
	}
	if d.copy == copySerial {
		for i := range files {
			if err := copyFile(p, env.BD.Node(0), i); err != nil {
				return nil, 0, err
			}
		}
		return dsts, moved, nil
	}
	job := env.job("distcp")
	job.Input = splits
	job.Map = func(tc *mapreduce.TaskContext, _ string, value any) error {
		return copyFile(tc.Proc(), tc.Node(), value.(int))
	}
	if _, err := job.Run(p); err != nil {
		return nil, 0, err
	}
	return dsts, moved, nil
}

// processSerial is Naive's processing: one process on node 0 reads,
// decodes, processes and stores each file in turn, then stores the top 1 %
// over all of them. It stays out of a MapReduce job because a one-slot
// job has no route that leaves the run as it is (DESIGN.md).
func (d DataPath) processSerial(p *sim.Proc, env *Env, wl *Workload, files []string, name string, rep *Report) error {
	node := env.BD.Node(0)
	sc := newSerialCtx(p, node)
	dir := "/results/" + name
	var top []*rframe.Frame
	for _, f := range files {
		var data []byte
		var err error
		sc.Phase("Read", func() {
			data, err = env.HDFS.ReadFile(p, node, f)
		})
		if err != nil {
			return err
		}
		g, err := d.decode(env, wl, sc, f, data)
		if err != nil {
			return err
		}
		out, err := processGrid(env, wl, sc, g, true)
		if err != nil {
			return err
		}
		if err := storeTimestamp(env, sc, wl, dir, out.imgs, rep); err != nil {
			return err
		}
		if out.analysis != nil {
			top = append(top, out.analysis)
		}
	}
	if top != nil {
		if err := storeTop1Pct(env, sc, dir, top, rep); err != nil {
			return err
		}
	}
	rep.PhaseMeans = phaseMeans(func(phase string) float64 { return sc.phases[phase] / float64(len(files)) })
	return nil
}

// wholeFiles is Vanilla Hadoop's input: each copied text file is one
// record.
func wholeFiles(_ *sim.Proc, env *Env, _ *Workload, files []string, _ string, _ SciDPOptions) (mapreduce.InputFormat, error) {
	return &hdfsWholeFileInput{env: env, paths: files}, nil
}

// hdfsNetCDF is SciHadoop's input: although it had to copy the whole
// files, its tasks read only the analyzed variable's chunks out of the
// HDFS-resident netCDF (block-range reads, locality-preferred).
func hdfsNetCDF(_ *sim.Proc, env *Env, wl *Workload, files []string, _ string, _ SciDPOptions) (mapreduce.InputFormat, error) {
	return &hdfsNetCDFInput{hdfsWholeFileInput: hdfsWholeFileInput{env: env, paths: files}, varName: wl.Var}, nil
}

// flatText is PortHadoop's input: one flat dummy block per converted text
// file, so the whole file is one task's input.
func flatText(p *sim.Proc, env *Env, wl *Workload, _ []string, name string, _ SciDPOptions) (mapreduce.InputFormat, error) {
	mapper := core.NewMapper(env.HDFS, env.Registry, "/"+name)
	mapping, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), csvDir(wl), core.MapOptions{
		FlatBlockSize: 1 << 40,
	})
	if err != nil {
		return nil, err
	}
	return env.pfsInput(mapping.Root), nil
}

// mirror maps the workload's variable in files as virtual HDFS inodes
// under /name, rows levels per dummy block, and returns SciDP's input over
// them with no read cost yet.
func mirror(p *sim.Proc, env *Env, wl *Workload, files []string, name string, rows int) (*core.InputFormat, error) {
	mapper := core.NewMapper(env.HDFS, env.Registry, "/"+name)
	mapping, err := mapper.MapPath(p, env.Mount(env.BD.Node(0)), wl.Dataset.Spec.Dir, core.MapOptions{
		Vars:         []string{wl.Var},
		RowsPerBlock: rows,
		// Mirror only the files this workload reads: a workload whose
		// Dataset.Files is a window of the generated directory gets a
		// window-sized job (the full list reproduces the full mirror).
		Paths: files,
	})
	if err != nil {
		return nil, err
	}
	return env.pfsInput(mapping.Root), nil
}

// sciDPInput is SciDP's input: the mirror, read at SciDP's cost through
// the run's engine, chunk caches and the env's cache tier.
func sciDPInput(p *sim.Proc, env *Env, wl *Workload, files []string, name string, opts SciDPOptions) (mapreduce.InputFormat, error) {
	input, err := mirror(p, env, wl, files, name, cmp.Or(opts.RowsPerBlock, wl.Dataset.Spec.Levels))
	if err != nil {
		return nil, err
	}
	input.Cost = env.sciCost()
	input.Engine = opts.Engine
	input.Caches = opts.Caches
	input.Tier = env.Tier
	return input, nil
}

// stagedInput runs the staged ablation's first wave, a read-only job
// materializing every slab (decompression charged here, conversion
// deferred to the compute wave), and returns its slabs as the second
// wave's input in the order its tasks finished.
func stagedInput(p *sim.Proc, env *Env, wl *Workload, files []string, name string, _ SciDPOptions) (mapreduce.InputFormat, error) {
	input, err := mirror(p, env, wl, files, name, wl.Dataset.Spec.Levels)
	if err != nil {
		return nil, err
	}
	input.Cost.DecompressPerRawMB = env.sciCost().DecompressPerRawMB
	var staged mapreduce.StaticInput
	readJob := env.job(name + "-read")
	readJob.Input = input
	readJob.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		staged = append(staged, &mapreduce.Split{Label: key, Payload: value})
		return nil
	}
	if _, err := readJob.Run(p); err != nil {
		return nil, err
	}
	return staged, nil
}

// csvGrid parses a converted text record.
func csvGrid(env *Env, wl *Workload, tc charger, _ string, value any) (*grid, error) {
	return gridFromCSV(env, tc, value.([]byte), wl.Dataset.Spec)
}

// realignedCSVGrid is PortHadoop's decode: the flat mapping lost the
// record structure, so the text is scanned to re-align records before it
// is parsed.
func realignedCSVGrid(env *Env, wl *Workload, tc charger, key string, value any) (*grid, error) {
	tc.Charge("Convert", env.Cfg.Cost.TextIndexPerMB*env.scaleMB(len(value.([]byte))))
	return csvGrid(env, wl, tc, key, value)
}

// arrayGrid is SciHadoop's decode: inflate and convert the variable read
// out of the HDFS-resident netCDF.
func arrayGrid(env *Env, _ *Workload, tc charger, key string, value any) (*grid, error) {
	arr := value.(*netcdf.Array)
	rawMB := env.scaleMB(len(arr.Data))
	tc.Charge("Read", env.Cfg.Cost.DecompressPerMB*rawMB)
	tc.Charge("Convert", env.Cfg.Cost.BinConvertPerMB*rawMB)
	return &grid{
		t:      workloads.TimestampIndex(key),
		levels: arr.Shape[0], ny: arr.Shape[1], nx: arr.Shape[2],
		vals: arr.Float32s(),
	}, nil
}

// slabGrid is SciDP's decode: the PFS Reader already charged inflate and
// conversion.
func slabGrid(_ *Env, _ *Workload, _ charger, _ string, value any) (*grid, error) {
	return gridFromSlab(value)
}

// stagedSlabGrid charges the conversion the staged read wave deferred.
func stagedSlabGrid(env *Env, _ *Workload, tc charger, _ string, value any) (*grid, error) {
	g, err := gridFromSlab(value)
	if err != nil {
		return nil, err
	}
	// A float slab's raw bytes are its values' 4 bytes each.
	tc.Charge("Convert", env.Cfg.Cost.BinConvertPerMB*env.scaleMB(len(g.vals)*4))
	return g, nil
}

// RunSciHadoop is Table I's fourth row: no conversion, a parallel copy of
// the whole files, parallel processing.
func RunSciHadoop(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	return sciHadoop.Run(p, env, wl)
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

// RunSciDP is Table I's last row: no conversion, no copy, parallel
// processing straight from the PFS.
func RunSciDP(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	return sciDP.Run(p, env, wl)
}

// RunSciDPWith is RunSciDP with explicit tuning.
func RunSciDPWith(p *sim.Proc, env *Env, wl *Workload, opts SciDPOptions) (*Report, error) {
	return sciDP.run(p, env, wl, opts)
}

// RunSciDPStaged is the no-overlap ablation of SciDP (see sciDPStaged).
func RunSciDPStaged(p *sim.Proc, env *Env, wl *Workload) (*Report, error) {
	return sciDPStaged.Run(p, env, wl)
}

// Runner is one solution's entry point.
type Runner func(p *sim.Proc, env *Env, wl *Workload) (*Report, error)

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

// TableI returns the paper's Table I rows, read off the paths that run.
func TableI() []DataPathRow {
	var rows []DataPathRow
	for _, d := range All() {
		row := DataPathRow{Solution: d.title, Conversion: d.convert, Copy: d.copy, Processing: "Parallel"}
		if d.serial {
			row.Processing = "Sequential"
		}
		rows = append(rows, row)
	}
	return rows
}
