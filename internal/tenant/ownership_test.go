package tenant

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"scidp/internal/sim"
	"scidp/internal/solutions"
)

// hashBlocks digests every real HDFS block under dir: path, index, bytes.
func hashBlocks(t *testing.T, env *solutions.Env, dir string) string {
	t.Helper()
	h := sha256.New()
	env.K.Go("audit", func(p *sim.Proc) {
		files, err := env.HDFS.Walk(p, dir)
		if err != nil {
			t.Error(err)
			return
		}
		for _, f := range files {
			for i, b := range f.Blocks {
				fmt.Fprintf(h, "%s#%d %d\n", f.Path, i, b.Size)
				h.Write(b.Data())
			}
		}
	})
	env.K.Run()
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestReplayNeverWritesToStoredBlocks is the write-once contract under
// the service: 110 concurrent grep, sort and write jobs share one input
// pool block for block, and every sort and write output is a view of one
// shared zero payload, so after the replay the pool must read as it did
// when installed and every payload block must still be zero.
func TestReplayNeverWritesToStoredBlocks(t *testing.T) {
	tr, err := LoadTrace("../../cmd/scidpd/testdata/trace-small.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 1, 4} {
		env := solutions.NewEnv(solutions.EnvConfig{Nodes: 4, SlotsPerNode: 2, ByteScale: 1, Workers: workers})
		svc := New(env, Config{})
		before := hashBlocks(t, env, "/mini/in")
		sum, err := Replay(svc, tr)
		if err != nil || sum.Completed != len(tr.Arrivals) {
			t.Fatalf("workers=%d: replay = %+v, %v", workers, sum, err)
		}
		if after := hashBlocks(t, env, "/mini/in"); after != before {
			t.Errorf("workers=%d: the shared input pool changed under the replay", workers)
		}
		env.K.Go("audit", func(p *sim.Proc) {
			files, err := env.HDFS.Walk(p, "/tenant")
			if err != nil {
				t.Error(err)
				return
			}
			for _, f := range files {
				if strings.HasSuffix(f.Path, "/result") {
					continue // a grep job's count, not a synthetic payload
				}
				for _, b := range f.Blocks {
					for _, c := range b.Data() {
						if c != 0 {
							t.Errorf("workers=%d: %s holds a non-zero byte: the shared zero payload was written", workers, f.Path)
							return
						}
					}
				}
			}
		})
		env.K.Run()
		env.Close()
	}
}
