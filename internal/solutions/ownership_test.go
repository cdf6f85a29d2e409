package solutions

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"scidp/internal/ioengine"
	"scidp/internal/sim"
)

// blockDigests hashes every real HDFS block under dir, keyed by block id.
func blockDigests(t *testing.T, env *Env, dir string) map[int64][sha256.Size]byte {
	t.Helper()
	out := map[int64][sha256.Size]byte{}
	env.K.Go("audit", func(p *sim.Proc) {
		files, err := env.HDFS.Walk(p, dir)
		if err != nil {
			t.Error(err)
			return
		}
		for _, f := range files {
			for _, b := range f.Blocks {
				out[b.ID] = sha256.Sum256(b.Data())
			}
		}
	})
	env.K.Run()
	return out
}

// TestStoredBytesAreNeverWritten is the write-once contract at pipeline
// level: HDFS keeps the buffers the pipeline hands it (images, CSV, GIF)
// and the PFS keeps the generator's blobs, so nothing — a recycled codec
// buffer, a reader decoding in place — may write to them afterwards. A
// second epoch on the same env reuses every pool the first one filled.
func TestStoredBytesAreNeverWritten(t *testing.T) {
	for _, workers := range []int{-1, 1, 4} {
		env, wl := reuseSetup(t, workers, ioengine.TierConfig{})
		wl.Analysis = AnalysisTop1Pct
		inputs := map[string][sha256.Size]byte{}
		for _, path := range env.PFS.Paths() {
			inputs[path] = sha256.Sum256(env.PFS.Get(path))
		}
		var first map[int64][sha256.Size]byte
		for i := 0; i < 2; i++ {
			var runErr error
			name := fmt.Sprintf("epoch%d", i)
			env.K.Go(name, func(p *sim.Proc) {
				_, runErr = RunSciDPWith(p, env, wl, SciDPOptions{Name: name})
			})
			env.K.Run()
			if runErr != nil {
				t.Fatalf("workers=%d %s: %v", workers, name, runErr)
			}
			if i == 0 {
				first = blockDigests(t, env, "/results")
			}
		}
		if len(first) == 0 {
			t.Fatalf("workers=%d: the first epoch wrote no HDFS blocks", workers)
		}
		after := blockDigests(t, env, "/results")
		for id, sum := range first {
			if after[id] != sum {
				t.Errorf("workers=%d: HDFS block %d changed after it was written", workers, id)
			}
		}
		for path, sum := range inputs {
			if sha256.Sum256(env.PFS.Get(path)) != sum {
				t.Errorf("workers=%d: PFS file %s changed under a read-only pipeline", workers, path)
			}
		}
		env.Close()
	}
}
