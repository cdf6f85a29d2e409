package tenant

import (
	"fmt"
	"math"
	"testing"
)

// TestRecordMatchesFmt: every job line Digest hashes is the line the fmt
// format it replaced writes, so replay digests recorded before the change
// still hold. The cases reach what strconv and fmt could render apart:
// quoting, signs, exponents and the non-finite floats.
func TestRecordMatchesFmt(t *testing.T) {
	base := Job{ID: 17, Spec: JobSpec{Tenant: "alice", Kind: "grep", Size: "small", Priority: 2},
		State: StateDone, Tasks: 3, SubmitAt: 1.5, StartAt: 2.25, DoneAt: 40.125, Result: 12, OutputBytes: 9}
	cases := map[string]func(j *Job){
		"plain": func(*Job) {},
		"quoted error": func(j *Job) {
			j.State, j.Error = StateFailed, "mapreduce: job \"grep-small-0017\":\n\ttask\\1 failed: naïve ☃ \x00\xff"
		},
		"empty error":       func(j *Job) { j.State, j.Error = StateFailed, "" },
		"negative priority": func(j *Job) { j.Spec.Priority = -3 },
		"negative zero":     func(j *Job) { j.SubmitAt = math.Copysign(0, -1) },
		"large":             func(j *Job) { j.StartAt, j.DoneAt = 1e12, 1e12+1.0/3 },
		"tiny":              func(j *Job) { j.SubmitAt = 4e-10 },
		"not a number":      func(j *Job) { j.DoneAt = math.NaN() },
		"infinite":          func(j *Job) { j.StartAt, j.DoneAt = math.Inf(1), math.Inf(-1) },
		"zero job":          func(j *Job) { *j = Job{} },
		"negative counts":   func(j *Job) { j.ID, j.Tasks, j.Result, j.OutputBytes = -1, -2, math.MinInt64, -4 },
	}
	for name, edit := range cases {
		j := base
		edit(&j)
		want := fmt.Sprintf("job %d %s %s %s p%d %s tasks=%d submit=%.9f start=%.9f done=%.9f result=%d out=%d err=%q\n",
			j.ID, j.Spec.Tenant, j.Spec.Kind, j.Spec.Size, j.Spec.Priority,
			j.State, j.Tasks, j.SubmitAt, j.StartAt, j.DoneAt, j.Result, j.OutputBytes, j.Error)
		if got := string(appendRecord([]byte("kept"), &j)); got != "kept"+want {
			t.Errorf("%s:\n got %q\nwant %q", name, got, "kept"+want)
		}
	}
}

// TestNumberedMatchesFmt: the job names and output paths built without fmt
// read as the Sprintf formats they replaced.
func TestNumberedMatchesFmt(t *testing.T) {
	for _, n := range []int{0, 7, 42, 999, 1234, 12345, 123456} {
		for _, c := range []struct{ got, want string }{
			{numbered(n, 4, "/tenant/", "alice", "/job-"), fmt.Sprintf("/tenant/%s/job-%04d", "alice", n)},
			{numbered(n, 4, "grep", "-", "small", "-"), fmt.Sprintf("%s-%s-%04d", "grep", "small", n)},
			{numbered(n, 5, "/tenant/bob/job-0001", "/part-"), fmt.Sprintf("%s/part-%05d", "/tenant/bob/job-0001", n)},
			{numbered(n, 0), fmt.Sprintf("%d", n)},
		} {
			if c.got != c.want {
				t.Errorf("numbered(%d) = %q, want %q", n, c.got, c.want)
			}
		}
	}
}
