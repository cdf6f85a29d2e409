package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// GoNow starts a process inside the calling event. Its contract is that
// this is invisible: processes started in order by one event run exactly
// as the same processes started by GoNamed at that instant, one wake
// event each — same wake instants, same flows, same final clock — in
// n − 1 fewer events per group of n.

// goNowStep is one step of a scripted process.
type goNowStep struct {
	kind int // 0 sleep, 1 transfer over the shared link, 2 start a child with Go, 3 panic
	v    float64
}

// goNowGroup is a set of processes started at one instant, gap seconds
// after the previous group.
type goNowGroup struct {
	gap     float64
	members [][]goNowStep
}

// newGoNowPlan draws groups of one to six scripted processes. A member
// may have no steps (it exits at once), sleep, move bytes over a link
// every process shares (so start order decides who shares with whom),
// or start a child from its body. Gaps of zero put two groups at one
// instant. With boom set, one member's first step panics.
func newGoNowPlan(seed int64, boom bool) []goNowGroup {
	rng := rand.New(rand.NewSource(seed))
	gaps := []float64{0, 0.25, 1, 1.5}
	var plan []goNowGroup
	for g := 2 + rng.Intn(4); g > 0; g-- {
		grp := goNowGroup{gap: gaps[rng.Intn(len(gaps))]}
		for m := 1 + rng.Intn(6); m > 0; m-- {
			var steps []goNowStep
			for s := rng.Intn(4); s > 0; s-- {
				kind := rng.Intn(3)
				v := []float64{rng.Float64() * 2, 1 + 300*rng.Float64(), rng.Float64()}[kind]
				steps = append(steps, goNowStep{kind: kind, v: v})
			}
			grp.members = append(grp.members, steps)
		}
		plan = append(plan, grp)
	}
	if boom {
		grp := &plan[rng.Intn(len(plan))]
		m := rng.Intn(len(grp.members))
		grp.members[m] = append([]goNowStep{{kind: 3}}, grp.members[m]...)
	}
	return plan
}

type goNowRun struct {
	log    []string
	trace  []TraceEvent
	now    float64
	events uint64
	panic  string
}

// runGoNow replays plan with each group started by GoNamed per member
// (inEvent false) or by one After(0) event that GoNows them in order.
func runGoNow(plan []goNowGroup, inEvent bool) goNowRun {
	var run goNowRun
	k := NewKernel()
	tr := &Tracer{}
	k.SetTracer(tr)
	link := NewResource("link", 400)
	logf := func(format string, args ...any) { run.log = append(run.log, fmt.Sprintf(format, args...)) }
	body := func(name string, steps []goNowStep) func(p *Proc) {
		return func(p *Proc) {
			logf("%s start @%v", name, p.Now())
			for i, st := range steps {
				switch st.kind {
				case 0:
					p.Sleep(st.v)
				case 1:
					p.Transfer(st.v, link)
				case 2:
					child := fmt.Sprintf("%s/child%d", name, i)
					k.Go(child, func(c *Proc) {
						c.Sleep(st.v)
						logf("%s done @%v", child, c.Now())
					})
				case 3:
					panic("boom " + name)
				}
				logf("%s step %d @%v", name, i, p.Now())
			}
		}
	}
	k.Go("driver", func(p *Proc) {
		for g, grp := range plan {
			p.Sleep(grp.gap)
			names := make([]func() string, len(grp.members))
			bodies := make([]func(*Proc), len(grp.members))
			for m, steps := range grp.members {
				name := fmt.Sprintf("g%d/m%d", g, m)
				names[m], bodies[m] = func() string { return name }, body(name, steps)
			}
			if !inEvent {
				for m := range bodies {
					k.GoNamed(names[m], bodies[m])
				}
				continue
			}
			k.After(0, func() {
				for m := range bodies {
					k.GoNow(names[m], bodies[m])
				}
			})
		}
	})
	run.panic = runPanics(k)
	run.trace, run.now, run.events = tr.Events(), k.Now(), k.EventsProcessed()
	return run
}

func TestGoNowMatchesPerProcessStarts(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		boom := seed%4 == 0
		plan := newGoNowPlan(seed, boom)
		want, got := runGoNow(plan, false), runGoNow(plan, true)
		if !slices.Equal(got.log, want.log) {
			t.Fatalf("seed %d: process logs differ:\n  in-event %q\n  per-Go   %q", seed, got.log, want.log)
		}
		if len(got.trace) != len(want.trace) {
			t.Fatalf("seed %d: trace lengths differ: in-event %d vs per-Go %d", seed, len(got.trace), len(want.trace))
		}
		for i, a := range got.trace {
			b := want.trace[i]
			if a.At != b.At || a.Kind != b.Kind || a.Bytes != b.Bytes || a.Flow != b.Flow || !slices.Equal(a.Resources, b.Resources) {
				t.Fatalf("seed %d: trace[%d] differs:\n  in-event %+v\n  per-Go   %+v", seed, i, a, b)
			}
		}
		if got.now != want.now || got.panic != want.panic {
			t.Fatalf("seed %d: in-event ends at %v panicking %q, per-Go at %v panicking %q", seed, got.now, got.panic, want.now, want.panic)
		}
		// Every group started saves n - 1 events; the group whose member m
		// panics saves m, since per-Go Run stops at that member's own event.
		saved := uint64(0)
		for g, grp := range plan {
			m := slices.IndexFunc(grp.members, func(s []goNowStep) bool { return len(s) > 0 && s[0].kind == 3 })
			if m >= 0 {
				if want := fmt.Sprintf(`sim: process "g%d/m%d" panicked: boom g%d/m%d`, g, m, g, m); got.panic != want {
					t.Fatalf("seed %d: Run panicked with %q, want %q", seed, got.panic, want)
				}
				for later := m + 1; later < len(grp.members); later++ {
					if slices.ContainsFunc(got.log, func(l string) bool { return strings.HasPrefix(l, fmt.Sprintf("g%d/m%d start", g, later)) }) {
						t.Fatalf("seed %d: g%d/m%d started after g%d/m%d panicked", seed, g, later, g, m)
					}
				}
				saved += uint64(m)
				break
			}
			saved += uint64(len(grp.members) - 1)
		}
		if boom != (got.panic != "") {
			t.Fatalf("seed %d: boom %v but Run panicked with %q", seed, boom, got.panic)
		}
		if want.events-got.events != saved {
			t.Errorf("seed %d: in-event took %d events, per-Go %d; want %d fewer", seed, got.events, want.events, saved)
		}
	}
}

// GoNow from a process body is a programmer error: the kernel is blocked
// on the caller's channel, so it panics instead of handing control on.
func TestGoNowFromProcessPanics(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Go("caller", func(p *Proc) {
		k.GoNow(func() string { return "inner" }, func(*Proc) { ran = true })
	})
	msg := runPanics(k)
	if !strings.Contains(msg, `process "caller" panicked: sim: GoNow called from a process body`) {
		t.Fatalf("Run panicked with %q", msg)
	}
	if ran {
		t.Fatal("the process GoNow was called for ran")
	}
}
