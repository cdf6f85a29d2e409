package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"scidp/internal/tenant"
)

// Floors on the bundled trace's service levels, far enough from the
// observed values that only a scheduler regression crosses them.
const (
	bundledP99Ceiling   = 10.0  // seconds; observed 4.36
	bundledGoodputFloor = 800.0 // jobs per 1000 virtual seconds; observed 1759
)

// TestReplayBundledTrace replays testdata/trace-small.json the way
// `scidpd -replay` does, at data-plane workers 1 and 4: every job is
// accounted for and completes, no tenant exceeds its quota, latency and
// goodput clear their floors, and the two summaries — completion digest,
// export digest, every byte — are identical.
func TestReplayBundledTrace(t *testing.T) {
	var ref []byte
	for _, workers := range []int{1, 4} {
		sum, _, err := replay("testdata/trace-small.json", 4, 2, workers, tenant.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Completed != 110 || sum.Completed+sum.Rejected+sum.Failed != sum.Jobs {
			t.Errorf("workers=%d: %d jobs: %d completed + %d rejected + %d failed, want 110 completed",
				workers, sum.Jobs, sum.Completed, sum.Rejected, sum.Failed)
		}
		if !sum.WithinQuota {
			t.Errorf("workers=%d: a tenant exceeded its quota", workers)
		}
		if sum.P99Seconds > bundledP99Ceiling {
			t.Errorf("workers=%d: p99 %.2fs > %.2fs", workers, sum.P99Seconds, bundledP99Ceiling)
		}
		if sum.GoodputJobsPerKs < bundledGoodputFloor {
			t.Errorf("workers=%d: goodput %.0f < %.0f jobs/ks", workers, sum.GoodputJobsPerKs, bundledGoodputFloor)
		}
		if sum.CompletionDigest == "" || sum.ExportDigest == "" {
			t.Errorf("workers=%d: summary is missing a digest", workers)
		}
		got, err := json.Marshal(sum)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
		} else if !bytes.Equal(ref, got) {
			t.Errorf("summary differs between workers=1 and workers=%d:\n  ref: %s\n  got: %s", workers, ref, got)
		}
	}
}

// TestBadClusterFlagsExit2: a node or slot count below one, or a negative
// worker count, stops scidpd with exit code 2 and a usage line before any
// cluster is built, not the default 8 × 8 cluster NewEnv puts in its
// place. Each case runs this test binary as scidpd.
func TestBadClusterFlagsExit2(t *testing.T) {
	if args := os.Getenv("SCIDPD_TEST_ARGS"); args != "" {
		os.Args = append([]string{"scidpd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	if err := checkCluster(1, 1, 0); err != nil {
		t.Fatalf("1 node, 1 slot, inline: %v", err)
	}
	for _, c := range []struct{ args, want string }{
		{"-nodes 0", "-nodes 0"},
		{"-nodes -2", "-nodes -2"},
		{"-slots 0", "-slots 0"},
		{"-workers -1", "-workers -1"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestBadClusterFlagsExit2$")
		cmd.Env = append(os.Environ(), "SCIDPD_TEST_ARGS=-replay testdata/trace-small.json "+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s: %v, want exit status 2", c.args, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, c.want) || !strings.Contains(msg, "usage: scidpd") {
			t.Errorf("%s: stderr %q, want the flag and a usage line", c.args, msg)
		}
	}
}
