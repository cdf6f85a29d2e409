// Package workloads provides the paper's inputs: a synthetic NU-WRF
// output generator (the paper itself extended 48 real timestamps to
// 96-768 with a synthetic generator following the same dimensions,
// chunking, and compression ratio — this is that generator one scale
// further down), the Img-only and Anlys workload definitions of Table II,
// and the TeraSort/Grep/TestDFSIO minis behind Figure 2.
package workloads

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"scidp/internal/netcdf"
	"scidp/internal/pfs"
)

// NUWRFVars is the paper's variable count: "NU-WRF uses 23 single-
// precision floating-point variables in the simulation".
const NUWRFVars = 23

// NUWRFSpec sizes a synthetic NU-WRF run. The paper's low-resolution grid
// is 50x1250x1250 per timestamp; benchmarks here scale the grid down and
// scale bandwidths by the same factor (see the bench package).
type NUWRFSpec struct {
	// Timestamps is the number of output files (one per simulated hour).
	Timestamps int
	// Levels, Lat, Lon are the per-variable grid dimensions.
	Levels, Lat, Lon int
	// Vars is the variable count (default NUWRFVars).
	Vars int
	// Deflate is the netCDF-4 style compression level (default 1).
	Deflate int
	// Dir is the PFS directory files are written under.
	Dir string
	// Seed perturbs the synthetic fields.
	Seed int64
}

// withDefaults normalizes the spec.
func (s NUWRFSpec) withDefaults() NUWRFSpec {
	if s.Vars == 0 {
		s.Vars = NUWRFVars
	}
	if s.Deflate == 0 {
		s.Deflate = 1
	}
	if s.Dir == "" {
		s.Dir = "/nuwrf"
	}
	return s
}

// VarName returns the i-th variable name; index 0 is QR (rainfall), the
// variable the paper analyzes.
func VarName(i int) string {
	if i == 0 {
		return "QR"
	}
	return fmt.Sprintf("VAR%02d", i)
}

// FileName returns the output file name for a timestamp, following the
// paper's plot_HH_MM_SS pattern.
func FileName(t int) string {
	return fmt.Sprintf("plot_%02d_%02d_00.nc", t/60, t%60)
}

// TimestampIndex recovers the timestamp from a generated file path (or
// any path containing the plot_HH_MM prefix); -1 if it does not parse.
func TimestampIndex(p string) int {
	base := p
	if i := lastSlash(p); i >= 0 {
		base = p[i+1:]
	}
	var hh, mm int
	if _, err := fmt.Sscanf(base, "plot_%02d_%02d", &hh, &mm); err != nil {
		return -1
	}
	return hh*60 + mm
}

func lastSlash(p string) int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return i
		}
	}
	return -1
}

// Dataset describes a generated run.
type Dataset struct {
	// Spec is the generating spec (defaults filled).
	Spec NUWRFSpec
	// Files are the PFS paths in timestamp order.
	Files []string
	// VarRawBytes is the uncompressed bytes of one variable.
	VarRawBytes int64
	// VarStoredBytes is the average on-disk bytes of one variable.
	VarStoredBytes int64
	// FileBytes is the average netCDF file size.
	FileBytes int64
	// TotalBytes is the dataset's total on-disk size.
	TotalBytes int64
}

// CompressionRatio reports raw/stored for one variable.
func (d *Dataset) CompressionRatio() float64 {
	return float64(d.VarRawBytes) / float64(d.VarStoredBytes)
}

// GenerateBlobs builds the dataset's files as in-memory netCDF blobs,
// keyed by PFS path. Blobs are deterministic in the spec, so benchmark
// sweeps can generate once and install into many fresh PFS instances.
// Timestamps are independent files, so min(GOMAXPROCS, Timestamps)
// goroutines build them, each with its own field buffer and writer; the
// result is assembled in timestamp order and does not depend on how many
// goroutines there were.
func GenerateBlobs(spec NUWRFSpec) (map[string][]byte, *Dataset, error) {
	spec = spec.withDefaults()
	if spec.Timestamps <= 0 || spec.Levels <= 0 || spec.Lat <= 0 || spec.Lon <= 0 {
		return nil, nil, fmt.Errorf("workloads: invalid NU-WRF spec %+v", spec)
	}
	files := make([][]byte, spec.Timestamps)
	errs := make([]error, spec.Timestamps)
	workers := min(runtime.GOMAXPROCS(0), spec.Timestamps)
	var wg sync.WaitGroup
	for g := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals := make([]float32, spec.Levels*spec.Lat*spec.Lon)
			for t := g; t < spec.Timestamps; t += workers {
				files[t], errs[t] = timestampBlob(spec, t, vals)
			}
		}()
	}
	wg.Wait()
	ds := &Dataset{Spec: spec}
	blobs := make(map[string][]byte, spec.Timestamps)
	for t, blob := range files {
		if errs[t] != nil {
			return nil, nil, errs[t]
		}
		path := spec.Dir + "/" + FileName(t)
		blobs[path] = blob
		ds.Files = append(ds.Files, path)
		ds.TotalBytes += int64(len(blob))
		if t == 0 {
			f, err := netcdf.Open(netcdf.BytesReader(blob))
			if err != nil {
				return nil, nil, err
			}
			qr, err := f.Var("QR")
			if err != nil {
				return nil, nil, err
			}
			ds.VarRawBytes = qr.RawBytes()
			ds.VarStoredBytes = qr.StoredBytes()
			ds.FileBytes = int64(len(blob))
		}
	}
	return blobs, ds, nil
}

// timestampBlob builds timestamp t's netCDF file, filling vals (one
// variable's grid) once per variable.
func timestampBlob(spec NUWRFSpec, t int, vals []float32) ([]byte, error) {
	w := netcdf.NewWriter()
	w.AddDim("level", spec.Levels)
	w.AddDim("lat", spec.Lat)
	w.AddDim("lon", spec.Lon)
	w.GlobalAttr(netcdf.StringAttr("model", "NU-WRF"))
	w.GlobalAttr(netcdf.Int64Attr("timestamp", int64(t)))
	for v := 0; v < spec.Vars; v++ {
		name := VarName(v)
		if err := w.AddVar(name, netcdf.Float32, []string{"level", "lat", "lon"},
			netcdf.Chunking{Shape: []int{1, spec.Lat, spec.Lon}, Deflate: spec.Deflate},
			netcdf.StringAttr("units", "kg/kg")); err != nil {
			return nil, err
		}
		fillField(vals, spec, t, v)
		if err := w.PutVarFloat32(name, vals); err != nil {
			return nil, err
		}
	}
	return w.Bytes()
}

// Generate builds the dataset and installs it on the PFS (no virtual time
// charged — the files "already exist" when analysis begins, as in the
// paper's workflow).
func Generate(fs *pfs.FS, spec NUWRFSpec) (*Dataset, error) {
	blobs, ds, err := GenerateBlobs(spec)
	if err != nil {
		return nil, err
	}
	Install(fs, blobs)
	return ds, nil
}

// Install puts pre-generated blobs onto a PFS, in sorted path order so
// the round-robin stripe placement (and every timing derived from it)
// is identical across runs.
func Install(fs *pfs.FS, blobs map[string][]byte) {
	paths := make([]string, 0, len(blobs))
	for path := range blobs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fs.Put(path, blobs[path])
	}
}

// fillField synthesizes one variable's grid for a timestamp: a drifting
// smooth weather-front pattern, quantized to three decimals so DEFLATE
// reaches a netCDF-4-like compression ratio (~3x, the paper's 298 MB ->
// 91 MB per variable).
func fillField(out []float32, spec NUWRFSpec, t, v int) {
	phase := float64(t)*0.21 + float64(v)*1.7 + float64(spec.Seed)*0.013
	i := 0
	for l := 0; l < spec.Levels; l++ {
		lw := 1.0 - float64(l)/float64(spec.Levels+1)
		for y := 0; y < spec.Lat; y++ {
			fy := float64(y) / float64(spec.Lat)
			sy := math.Sin(fy*6.0 + phase)
			for x := 0; x < spec.Lon; x++ {
				fx := float64(x) / float64(spec.Lon)
				val := lw * (sy*math.Cos(fx*5.0-phase*0.7) + 0.3*math.Sin((fx+fy)*11.0))
				if val < 0 {
					val = 0 // rainfall-like: sparse non-negative field
				}
				// Quantize for realistic compressibility.
				out[i] = float32(math.Round(val*1000) / 1000)
				i++
			}
		}
	}
}

// WorkloadKind enumerates Table II's workloads.
type WorkloadKind int

// Table II rows.
const (
	// ImgOnly plots one image per level per timestamp ("includes only
	// the image plotting phase which can be fully parallelized").
	ImgOnly WorkloadKind = iota
	// Anlys adds animation aggregation and SQL/statistical analysis.
	Anlys
)

// String names the workload as in Table II.
func (w WorkloadKind) String() string {
	switch w {
	case ImgOnly:
		return "Img-only"
	case Anlys:
		return "Anlys"
	}
	return "unknown"
}

// Phases reports Table II's matrix row: image plotting, animation,
// analysis.
func (w WorkloadKind) Phases() (plotting, animation, analysis bool) {
	switch w {
	case ImgOnly:
		return true, false, false
	case Anlys:
		return true, true, true
	}
	return false, false, false
}
