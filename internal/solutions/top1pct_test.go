package solutions

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/sim"
)

// top1pctDigest is sha256 of the top1pct.csv the reuseSetup dataset's Anlys
// run wrote at fcf7bc4, the last commit of the row-at-a-time executor.
const top1pctDigest = "307badaf066833c74428ac295cf5db9fb15ee9b668b2d992aabab3fa917a7cb6"

// TestTop1PctCSVUnchanged: the analysis the paper's Anlys workload stores —
// every map task's ORDER BY value DESC LIMIT 1 %, concatenated and
// re-sorted by the reducer, rendered as CSV — is byte for byte what the
// executor, Append + OrderBy and WriteCSV it replaced produced, at every
// pool size.
func TestTop1PctCSVUnchanged(t *testing.T) {
	for _, workers := range []int{-1, 1, 4} {
		env, wl := reuseSetup(t, workers, ioengine.TierConfig{})
		wl.Analysis = AnalysisTop1Pct
		var text []byte
		var err error
		env.K.Go("anlys", func(p *sim.Proc) {
			if _, err = RunSciDPWith(p, env, wl, SciDPOptions{Name: "anlys"}); err == nil {
				text, err = env.HDFS.ReadFile(p, env.BD.Nodes[0], "/results/anlys/analysis/top1pct.csv")
			}
		})
		env.K.Run()
		env.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(text)); got != top1pctDigest {
			t.Errorf("workers=%d: top1pct.csv (%d bytes) has digest %s, want %s", workers, len(text), got, top1pctDigest)
		}
	}
}
