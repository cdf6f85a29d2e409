package mapreduce

import (
	"testing"

	"scidp/internal/sim"
)

// oneTaskStage runs a stage of one short task under job from the driver
// p and reports to t if the task does not commit.
func oneTaskStage(t testing.TB, p *sim.Proc, job *Job) {
	fed, committed := false, false
	err := job.RunStage(p, "map", func(*sim.Proc) (*Task, error) {
		if fed {
			return nil, nil
		}
		fed = true
		return &Task{Label: "only", Run: func(tc *TaskContext) (func(), error) {
			tc.Charge("Work", 1)
			return func() { committed = true }, nil
		}}, nil
	})
	if err != nil || !committed {
		t.Errorf("one-task stage: err = %v, committed = %v", err, committed)
	}
}

// BenchmarkStageStart is a stage's fixed cost: one task on the tenant
// service's 6x2 cluster, so eleven of the twelve slots have nothing to
// run. The stages run back to back in one driver, as a job's do, and it
// reports the kernel events a stage takes.
func BenchmarkStageStart(b *testing.B) {
	k := sim.NewKernel()
	job := &Job{Name: "start", Cluster: testCluster(k, 6, 2)}
	b.ReportAllocs()
	k.Go("driver", func(p *sim.Proc) {
		oneTaskStage(b, p, job) // warm-up: the kernel's queues and idle processes
		b.ResetTimer()
		before := k.EventsProcessed()
		for range b.N {
			oneTaskStage(b, p, job)
		}
		b.StopTimer()
		b.ReportMetric(float64(k.EventsProcessed()-before)/float64(b.N), "events/op")
	})
	k.Run()
}
