package solutions

import (
	"cmp"
	"fmt"
	"image"
	"math"
	"slices"

	"scidp/internal/cluster"
	"scidp/internal/core"
	"scidp/internal/mapreduce"
	"scidp/internal/rframe"
	"scidp/internal/rsql"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// grid is one timestamp's decoded variable: levels x ny x nx values.
type grid struct {
	// t is the timestamp index.
	t int
	// levelOrigin is the global index of the first level (nonzero when a
	// task covers a sub-range of levels).
	levelOrigin int
	// levels, ny, nx are the grid dimensions.
	levels, ny, nx int
	// vals is the row-major payload.
	vals []float32
}

// level returns one level's values.
func (g *grid) level(i int) []float32 {
	n := g.ny * g.nx
	return g.vals[i*n : (i+1)*n]
}

// gridCols are the columns the analysis SQL sees of a grid, read in
// place: the tidy frame's (FromArray3D's, then t), one row per cell in
// row-major order.
var gridCols = []rsql.ColumnInfo{
	{Name: "level", Int: true}, {Name: "lat", Int: true}, {Name: "lon", Int: true},
	{Name: "value"}, {Name: "t", Int: true},
}

// NumRows implements rsql.Chunk: one row per cell.
func (g *grid) NumRows() int { return len(g.vals) }

// Col implements rsql.Chunk: the coordinates follow from the row index
// and the grid's shape, the value is the payload's own.
func (g *grid) Col(name string) (func(int) float64, error) {
	switch name {
	case "t":
		return func(int) float64 { return float64(g.t) }, nil
	case "level":
		return func(r int) float64 { return float64(g.levelOrigin + r/(g.ny*g.nx)) }, nil
	case "lat":
		return func(r int) float64 { return float64(r / g.nx % g.ny) }, nil
	case "lon":
		return func(r int) float64 { return float64(r % g.nx) }, nil
	case "value":
		return func(r int) float64 { return float64(g.vals[r]) }, nil
	}
	return nil, fmt.Errorf("solutions: grid has no column %q", name)
}

// charger is the charging surface shared by MapReduce task contexts and
// the Naive solution's serial context.
type charger interface {
	Charge(phase string, d float64)
	Phase(name string, fn func())
	Proc() *sim.Proc
	Node() *cluster.Node
}

// serialCtx implements charger for the sequential Naive pipeline and
// accumulates phase totals.
type serialCtx struct {
	proc   *sim.Proc
	node   *cluster.Node
	phases map[string]float64
}

func newSerialCtx(p *sim.Proc, n *cluster.Node) *serialCtx {
	return &serialCtx{proc: p, node: n, phases: map[string]float64{}}
}

func (s *serialCtx) Charge(phase string, d float64) {
	s.proc.Sleep(d)
	s.phases[phase] += d
}

func (s *serialCtx) Phase(name string, fn func()) {
	start := s.proc.Now()
	fn()
	s.phases[name] += s.proc.Now() - start
}

func (s *serialCtx) Proc() *sim.Proc     { return s.proc }
func (s *serialCtx) Node() *cluster.Node { return s.node }

// gridFromCSV parses converted text into a grid — the read.table path.
// The dominant Convert cost is charged at paper scale, then the text is
// genuinely parsed.
func gridFromCSV(env *Env, tc charger, text []byte, spec workloads.NUWRFSpec) (*grid, error) {
	tc.Charge("Convert", env.Cfg.Cost.TextParsePerMB*env.scaleMB(len(text)))
	df, err := rframe.ReadTable(text)
	if err != nil {
		return nil, err
	}
	g := &grid{levels: spec.Levels, ny: spec.Lat, nx: spec.Lon}
	g.vals = make([]float32, g.levels*g.ny*g.nx)
	tCol, lCol, yCol, xCol, vCol := df.Col("t"), df.Col("level"), df.Col("lat"), df.Col("lon"), df.Col("value")
	if tCol == nil || lCol == nil || yCol == nil || xCol == nil || vCol == nil {
		return nil, fmt.Errorf("solutions: CSV missing expected columns, have %v", df.Names())
	}
	if df.NumRows() == 0 {
		return nil, fmt.Errorf("solutions: empty CSV")
	}
	g.t = int(tCol.Float64At(0))
	for r := 0; r < df.NumRows(); r++ {
		l := int(lCol.Float64At(r))
		y := int(yCol.Float64At(r))
		x := int(xCol.Float64At(r))
		idx := l*g.ny*g.nx + y*g.nx + x
		if idx < 0 || idx >= len(g.vals) {
			return nil, fmt.Errorf("solutions: CSV row %d outside grid", r)
		}
		g.vals[idx] = float32(vCol.Float64At(r))
	}
	return g, nil
}

// gridFromSlab is the grid of the hyperslab a PFS Reader resolved a dummy
// block to: what every SciDP task, batch or in-situ, plots from. A flat
// block (a non-scientific file the mapper mirrored) is an error.
func gridFromSlab(value any) (*grid, error) {
	slab, ok := value.(*core.Slab)
	if !ok {
		return nil, fmt.Errorf("solutions: block is %T, not a scientific slab", value)
	}
	vals, err := slab.Float32s()
	if err != nil {
		return nil, err
	}
	return &grid{
		t:           workloads.TimestampIndex(slab.PFSPath),
		levelOrigin: slab.Start[0],
		levels:      slab.Count[0], ny: slab.Count[1], nx: slab.Count[2],
		vals: vals,
	}, nil
}

// taskOutput is what processing one grid produces.
type taskOutput struct {
	imgs     []imgKV // one per level, in level order
	analysis *rframe.Frame
}

// highlightSQL picks the ten cells a highlighted plot marks.
const highlightSQL = "SELECT level, lat, lon, value FROM df ORDER BY value DESC LIMIT 10"

// top1PctSQL is the Anlys query over a grid of rows cells: its top 1 %
// by value, rounded up.
func top1PctSQL(rows int) string {
	return fmt.Sprintf("SELECT t, level, lat, lon, value FROM df ORDER BY value DESC LIMIT %d",
		int(math.Ceil(float64(rows)/100)))
}

// processGrid is the per-task body shared by every solution: optional SQL
// analysis, then one plotted image per level (with highlights marked when
// requested).
func processGrid(env *Env, wl *Workload, tc charger, g *grid, sequential bool) (*taskOutput, error) {
	out := &taskOutput{}
	highlight := map[int][]rframe.GridPoint{}

	if wl.Analysis != AnalysisNone {
		tc.Charge("Analysis", env.Cfg.Cost.AnalysisPerMB*env.scaleMB(len(g.vals)*4))
		switch wl.Analysis {
		case AnalysisHighlight:
			top, err := rsql.QueryChunk(g, gridCols, highlightSQL)
			if err != nil {
				return nil, err
			}
			for r := 0; r < top.NumRows(); r++ {
				l := int(top.Col("level").Float64At(r))
				highlight[l] = append(highlight[l], rframe.GridPoint{
					Row: int(top.Col("lat").Float64At(r)),
					Col: int(top.Col("lon").Float64At(r)),
				})
			}
		case AnalysisTop1Pct:
			top, err := rsql.QueryChunk(g, gridCols, top1PctSQL(g.NumRows()))
			if err != nil {
				return nil, err
			}
			out.analysis = top
		}
	}

	// Fork before charge, join after: every level renders on the data plane
	// while this task sleeps through the modeled plot cost, and one Await
	// collects them. The closures read the attempt's own grid and write
	// their own slots, so an attempt that unwinds mid-charge just abandons
	// them. Under analysis each level also keeps its raster as a GIF
	// frame, for the reducer's animation.
	out.imgs = make([]imgKV, g.levels)
	errs := make([]error, g.levels)
	futs := make([]*sim.Future, g.levels)
	animate := wl.Analysis != AnalysisNone
	for l := range futs {
		out.imgs[l] = imgKV{t: g.t, level: g.levelOrigin + l}
		opts := rframe.PlotOpts{
			Width: env.Cfg.PlotRes, Height: env.Cfg.PlotRes,
			Highlight: highlight[out.imgs[l].level],
		}
		futs[l] = tc.Proc().Compute(func() {
			img := &out.imgs[l]
			if animate {
				img.png, img.frame, errs[l] = rframe.Image2DFrame(g.level(l), g.ny, g.nx, opts)
			} else {
				img.png, errs[l] = rframe.Image2D(g.level(l), g.ny, g.nx, opts)
			}
		})
	}
	for range futs {
		tc.Charge("Plot", env.plotCharge(sequential))
	}
	tc.Proc().Await(futs...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// imgKV is one plotted image: what a map task sends through the shuffle
// and what storeTimestamp writes. frame, set under analysis, is the
// image's raster on the animation palette: a pure function of png, so the
// shuffle counts only the PNG's bytes.
type imgKV struct {
	t, level int
	png      []byte
	frame    *image.Paletted
}

// runProcessing executes the shared MapReduce processing job: decode each
// record to a grid, process it, send images and analysis frames to the
// reducers, which store everything on HDFS (the paper stores results via
// rhdfs in the Reduce tasks). It adds what the job stored and its phase
// means to rep.
func runProcessing(p *sim.Proc, env *Env, wl *Workload, name string, input mapreduce.InputFormat,
	decode func(env *Env, wl *Workload, tc charger, key string, value any) (*grid, error), rep *Report) error {

	outDir := "/results/" + name
	job := env.job(name)
	job.Input = input
	job.NumReducers = env.Cfg.Nodes
	job.Speculation = env.Cfg.Speculation
	job.PairBytes = func(kv mapreduce.KV) int64 {
		switch v := kv.V.(type) {
		case imgKV:
			return int64(len(v.png)) + 16
		case *rframe.Frame:
			return int64(v.NumRows()) * 24
		}
		return int64(len(kv.K)) + 16
	}
	job.Map = func(tc *mapreduce.TaskContext, key string, value any) error {
		g, err := decode(env, wl, tc, key, value)
		if err != nil {
			return err
		}
		out, err := processGrid(env, wl, tc, g, false)
		if err != nil {
			return err
		}
		for _, img := range out.imgs {
			tc.Emit(fmt.Sprintf("img/%04d", g.t), img)
		}
		if out.analysis != nil {
			tc.Emit("top1pct", out.analysis)
		}
		return nil
	}
	job.Reduce = func(tc *mapreduce.TaskContext, key string, values []any) error {
		if key == "top1pct" {
			frames := make([]*rframe.Frame, len(values))
			for i, v := range values {
				frames[i] = v.(*rframe.Frame)
			}
			return storeTop1Pct(env, tc, outDir, frames, rep)
		}
		imgs := make([]imgKV, len(values))
		for i, v := range values {
			imgs[i] = v.(imgKV)
		}
		return storeTimestamp(env, tc, wl, outDir, imgs, rep)
	}
	res, err := job.Run(p)
	if err != nil {
		return err
	}
	rep.PhaseMeans = phaseMeans(res.PhaseMean)
	return nil
}

// storeTimestamp writes one timestamp's images under dir in level order
// and, under Anlys, the animated GIF of the level series (Table II's
// animation phase), counting each file it wrote in rep.
func storeTimestamp(env *Env, tc charger, wl *Workload, dir string, imgs []imgKV, rep *Report) error {
	slices.SortFunc(imgs, func(a, b imgKV) int { return cmp.Compare(a.level, b.level) })
	// Fork before charge, join after: the GIF encodes on the data plane
	// while the PNG writes below take their simulated time. The closure
	// reads only the frames the mappers drew, which nobody writes to once
	// emitted, and writes only anim/animErr, so a caller that returns on a
	// PNG write error just abandons it.
	var fut *sim.Future
	var anim []byte
	var animErr error
	if wl.Analysis != AnalysisNone && len(imgs) > 1 {
		frames := make([]*image.Paletted, len(imgs))
		for i := range imgs {
			frames[i] = imgs[i].frame
		}
		fut = tc.Proc().Compute(func() { anim, animErr = rframe.AnimateFrames(frames, 20) })
	}
	for _, img := range imgs {
		path := fmt.Sprintf("%s/img/t%04d_l%03d.png", dir, img.t, img.level)
		if err := env.HDFS.WriteFile(tc.Proc(), tc.Node(), path, img.png); err != nil {
			return err
		}
		rep.Images++
	}
	if fut == nil {
		return nil
	}
	tc.Proc().Await(fut)
	if animErr != nil {
		return animErr
	}
	path := fmt.Sprintf("%s/anim/t%04d.gif", dir, imgs[0].t)
	if err := env.HDFS.WriteFile(tc.Proc(), tc.Node(), path, anim); err != nil {
		return err
	}
	rep.Animations++
	return nil
}

// storeTop1Pct writes every task's top 1 %, combined and sorted by value,
// as one CSV under dir, counting its bytes in rep.
func storeTop1Pct(env *Env, tc charger, dir string, frames []*rframe.Frame, rep *Report) error {
	combined, err := rframe.Concat(frames...)
	if err != nil {
		return err
	}
	sorted, err := combined.OrderBy("value", true)
	if err != nil {
		return err
	}
	text := sorted.WriteCSV()
	rep.AnalysisBytes += int64(len(text))
	return env.HDFS.WriteFile(tc.Proc(), tc.Node(), dir+"/analysis/top1pct.csv", text)
}

// phaseMeans is Figure 7's per-task mean seconds of every phase a run
// spent time in.
func phaseMeans(mean func(phase string) float64) map[string]float64 {
	m := map[string]float64{}
	for _, phase := range []string{"Read", "Convert", "Plot", "Analysis"} {
		if v := mean(phase); v > 0 {
			m[phase] = v
		}
	}
	return m
}
