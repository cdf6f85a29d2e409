package bench

import (
	"fmt"

	"scidp/internal/core"
	"scidp/internal/sim"
	"scidp/internal/solutions"
)

// AblationBlockGranularity varies SciDP's dummy-block size (Section
// III-B: chunk-aligned by default, tunable finer "to the actual size of
// one data grid" or coarser). Finer blocks mean more tasks and more task
// startup; coarser blocks mean less parallelism.
func AblationBlockGranularity(s Scale, timestamps int) (*Table, error) {
	t := &Table{
		ID:     "Ablation A1",
		Title:  "SciDP dummy-block granularity (rows per block)",
		Header: []string{"rows/block", "map tasks", "total(s)"},
	}
	for _, rows := range []int{1, s.Levels / 2, s.Levels} {
		if rows < 1 {
			continue
		}
		cfg := obsEnvConfig(s.EnvConfig(0), fmt.Sprintf("scidp@%dts", timestamps))
		rep, err := run(s, cfg, timestamps, solutions.AnalysisNone,
			func(p *sim.Proc, env *solutions.Env, wl *solutions.Workload) (*solutions.Report, error) {
				return solutions.RunSciDPWith(p, env, wl, solutions.SciDPOptions{RowsPerBlock: rows})
			})
		if err != nil {
			return nil, err
		}
		tasks := timestamps * ((s.Levels + rows - 1) / rows)
		t.AddRow(fmt.Sprintf("%d", rows), fmt.Sprintf("%d", tasks), secs(rep.TotalSeconds))
	}
	t.Notes = append(t.Notes, "chunk-aligned default = one block per storage chunk; the paper tunes this per workload")
	return t, nil
}

// AblationVariableSubsetting measures the Data Mapper's mapping-table
// build time with and without variable subsetting (Section III-B: "SciDP
// will ignore the unrelated variables and attributes ... and minimize the
// time to build the mapping table").
func AblationVariableSubsetting(s Scale, timestamps int) (*Table, error) {
	t := &Table{
		ID:     "Ablation A2",
		Title:  "Variable subsetting: mapping-table build time and virtual files",
		Header: []string{"mapped vars", "mapping time(s)", "virtual files"},
	}
	for _, subset := range []bool{true, false} {
		var elapsed float64
		var files int
		_, err := run(s, s.EnvConfig(0), timestamps, solutions.AnalysisNone,
			func(p *sim.Proc, env *solutions.Env, wl *solutions.Workload) (*solutions.Report, error) {
				opts := core.MapOptions{RowsPerBlock: s.Levels}
				if subset {
					opts.Vars = []string{"QR"}
				}
				m := core.NewMapper(env.HDFS, env.Registry, "/abl")
				start := p.Now()
				mapping, err := m.MapPath(p, env.Mount(env.BD.Node(0)), wl.Dataset.Spec.Dir, opts)
				if err != nil {
					return nil, err
				}
				elapsed = p.Now() - start
				files = len(mapping.VirtualPaths())
				return nil, nil
			})
		if err != nil {
			return nil, err
		}
		label := "all 23"
		if subset {
			label = "QR only"
		}
		t.AddRow(label, fmt.Sprintf("%.2f", elapsed), fmt.Sprintf("%d", files))
	}
	return t, nil
}

// AblationWholeBlockRead contrasts SciDP's single whole-block PFS request
// against Hadoop's 64 KB streaming reads (Section III-A: "The original
// Hadoop reads 64KB data at a time ... SciDP reads the entire block in a
// single I/O request to maximize the bandwidth").
func AblationWholeBlockRead(s Scale) (*Table, error) {
	bs := s.ByteScale()
	blockBytes := int64(128 << 20 / bs) // one logical 128 MB block
	streamChunk := int64(64 << 10 / bs)
	if streamChunk < 1 {
		streamChunk = 1
	}
	t := &Table{
		ID:     "Ablation A3",
		Title:  "Whole-block single read vs 64 KB streaming reads (one 128 MB logical block)",
		Header: []string{"read style", "requests", "time(s)"},
	}
	elapsed := func(chunk int64) (float64, int) {
		env := solutions.NewEnv(s.EnvConfig(0))
		env.PFS.Put("/abl/block", make([]byte, blockBytes))
		var out float64
		reqs := 0
		env.K.Go("driver", func(p *sim.Proc) {
			mount := env.Mount(env.BD.Node(0))
			start := p.Now()
			for off := int64(0); off < blockBytes; off += chunk {
				n := chunk
				if off+n > blockBytes {
					n = blockBytes - off
				}
				if _, err := mount.ReadAt(p, "/abl/block", off, n); err != nil {
					return
				}
				reqs++
			}
			out = p.Now() - start
		})
		env.K.Run()
		return out, reqs
	}
	whole, wr := elapsed(blockBytes)
	stream, sr := elapsed(streamChunk)
	t.AddRow("whole block (SciDP)", fmt.Sprintf("%d", wr), secs(whole))
	t.AddRow("64 KB streaming (Hadoop)", fmt.Sprintf("%d", sr), secs(stream))
	t.Notes = append(t.Notes, fmt.Sprintf("streaming is %.1fx slower: per-request OST latency dominates", stream/whole))
	return t, nil
}

// AblationOverlap contrasts SciDP's overlapped read+compute against a
// staged variant (RunSciDPStaged) that reads every slab in a first wave,
// barriers, then plots in a second wave — the copy-then-process structure
// of the baselines, but with SciDP's selective reads.
func AblationOverlap(s Scale, timestamps int) (*Table, error) {
	t := &Table{
		ID:     "Ablation A4",
		Title:  "Overlapping PFS reads with computation vs staged read-then-process",
		Header: []string{"strategy", "total(s)"},
	}
	overlapped, err := RunOne(s, timestamps, 0, solutions.AnalysisNone, "scidp")
	if err != nil {
		return nil, err
	}
	staged, err := run(s, s.EnvConfig(0), timestamps, solutions.AnalysisNone, solutions.RunSciDPStaged)
	if err != nil {
		return nil, err
	}
	t.AddRow("overlapped (SciDP)", secs(overlapped.TotalSeconds))
	t.AddRow("staged (read all, then plot)", secs(staged.TotalSeconds))
	t.Notes = append(t.Notes, "the staged variant still subsets variables; the remaining gap is the overlap SciDP exploits")
	return t, nil
}
