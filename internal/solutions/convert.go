package solutions

import (
	"fmt"
	"strconv"

	"scidp/internal/netcdf"
	"scidp/internal/pfs"
	"scidp/internal/sim"
	"scidp/internal/workloads"
)

// csvDir returns the PFS directory converted text lands in.
func csvDir(wl *Workload) string { return wl.Dataset.Spec.Dir + "-csv" }

// csvPath returns the converted file for a timestamp.
func csvPath(wl *Workload, t int) string {
	return fmt.Sprintf("%s/plot_%02d_%02d_00.csv", csvDir(wl), t/60, t%60)
}

// formatCSV renders one timestamp's variable as "t,level,lat,lon,value"
// rows — the text form the text-based baselines process. Including the
// coordinate columns is what makes converted text an order of magnitude
// larger than the compressed binary (the paper's ~33x).
func formatCSV(t int, spec workloads.NUWRFSpec, vals []float32) []byte {
	out := make([]byte, 0, len(vals)*20+32)
	out = append(out, "t,level,lat,lon,value\n"...)
	i := 0
	for l := 0; l < spec.Levels; l++ {
		for y := 0; y < spec.Lat; y++ {
			for x := 0; x < spec.Lon; x++ {
				out = strconv.AppendInt(out, int64(t), 10)
				out = append(out, ',')
				out = strconv.AppendInt(out, int64(l), 10)
				out = append(out, ',')
				out = strconv.AppendInt(out, int64(y), 10)
				out = append(out, ',')
				out = strconv.AppendInt(out, int64(x), 10)
				out = append(out, ',')
				out = strconv.AppendFloat(out, float64(vals[i]), 'e', 8, 64)
				out = append(out, '\n')
				i++
			}
		}
	}
	return out
}

// ConvertToCSV converts the selected variable of every dataset file to
// CSV text on the PFS, sequentially from one staging node — the paper's
// offline conversion step ("It finishes in more than one hour" for 14 GB;
// excluded from totals but reported). Returns the produced paths and
// total text bytes.
func ConvertToCSV(p *sim.Proc, env *Env, wl *Workload) ([]string, int64, error) {
	staging := env.Mount(env.BD.Node(0))
	var out []string
	var textBytes int64
	for _, file := range wl.Dataset.Files {
		t := workloads.TimestampIndex(file)
		vals, err := readVarFromPFS(p, staging, file, wl.Var)
		if err != nil {
			return nil, 0, err
		}
		// Decompress + decode charges.
		rawMB := env.scaleMB(len(vals) * 4)
		p.Sleep(env.Cfg.Cost.DecompressPerMB * rawMB)
		text := formatCSV(t, wl.Dataset.Spec, vals)
		p.Sleep(env.Cfg.Cost.TextFormatPerMB * env.scaleMB(len(text)))
		dst := csvPath(wl, t)
		if _, err := staging.Create(p, dst, 0, 0); err != nil {
			return nil, 0, err
		}
		if err := staging.WriteAt(p, dst, text, 0); err != nil {
			return nil, 0, err
		}
		out = append(out, dst)
		textBytes += int64(len(text))
	}
	return out, textBytes, nil
}

// readVarFromPFS opens a netCDF file over the given mount and reads the
// whole named variable, returning the decoded values.
func readVarFromPFS(p *sim.Proc, mount *pfs.Client, file, varName string) ([]float32, error) {
	r, err := mount.OpenReader(p, file)
	if err != nil {
		return nil, err
	}
	f, err := netcdf.Open(r)
	if err != nil {
		return nil, err
	}
	arr, err := f.GetVar(varName)
	if err != nil {
		return nil, err
	}
	return arr.Float32s(), nil
}
