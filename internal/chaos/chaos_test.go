package chaos

import (
	"strings"
	"testing"
)

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan([]byte(`{
		"seed": 99,
		"rules": [
			{"kind": "dn-crash", "at": 20, "target": 1},
			{"kind": "ost-degrade", "at": 10, "until": 60, "target": 2, "factor": 3},
			{"kind": "flaky-reads", "at": 25, "until": 60, "rate": 0.1, "corrupt": 0.25},
			{"kind": "straggler", "at": 5, "until": 60, "rate": 0.2, "factor": 4},
			{"kind": "task-fail", "at": 10, "rate": 0.05}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 99 || len(plan.Rules) != 5 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Rules[0].Kind != KindDNCrash || plan.Rules[0].Target != 1 {
		t.Fatalf("rule 0 = %+v", plan.Rules[0])
	}
}

func TestParsePlanRejectsBadPlans(t *testing.T) {
	cases := []struct {
		name, json, want string
	}{
		{"not json", `{`, "unexpected end"},
		{"unknown kind", `{"rules":[{"kind":"meteor-strike","at":1}]}`, "unknown kind"},
		{"negative at", `{"rules":[{"kind":"dn-crash","at":-1}]}`, "at"},
		{"until before at", `{"rules":[{"kind":"ost-outage","at":10,"until":5,"target":0}]}`, "before it starts"},
		{"degrade without factor", `{"rules":[{"kind":"ost-degrade","at":1,"target":0}]}`, "factor"},
		{"flaky without rate", `{"rules":[{"kind":"flaky-reads","at":1}]}`, "rate"},
		{"rate above one", `{"rules":[{"kind":"task-fail","at":1,"rate":1.5}]}`, "rate"},
		{"corrupt above one", `{"rules":[{"kind":"flaky-reads","at":1,"rate":0.5,"corrupt":2}]}`, "corrupt"},
		{"negative target", `{"rules":[{"kind":"dn-crash","at":1,"target":-2}]}`, "target"},
		{"straggler without factor", `{"rules":[{"kind":"straggler","at":1,"rate":0.5}]}`, "factor"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePlan([]byte(tc.json))
			if err == nil {
				t.Fatalf("ParsePlan accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRuleWindows(t *testing.T) {
	windowed := Rule{Kind: KindFlakyReads, At: 10, Until: 20, Rate: 0.5}
	for _, tc := range []struct {
		t    float64
		want bool
	}{{9.9, false}, {10, true}, {19.9, true}, {20, false}} {
		if got := windowed.activeAt(tc.t); got != tc.want {
			t.Errorf("activeAt(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	permanent := Rule{Kind: KindDNCrash, At: 5, Target: 1}
	if permanent.activeAt(4.9) || !permanent.activeAt(5) || !permanent.activeAt(1e9) {
		t.Error("a rule without until must stay active forever")
	}
	if !permanent.scheduled() || windowed.scheduled() {
		t.Error("dn-crash is scheduled state, flaky-reads is probabilistic")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj != New(nil) {
		t.Fatal("New(nil) must return a nil injector")
	}
	inj.Arm(nil, nil, nil, nil)
	if err, slow := inj.TaskFault("map", 0, 1); err != nil || slow != 1 {
		t.Fatalf("nil injector TaskFault = (%v, %v)", err, slow)
	}
	if inj.Plan() != nil {
		t.Fatal("nil injector has no plan")
	}
}

// Plan returns the armed plan (nil on a nil injector).
func (inj *Injector) Plan() *Plan {
	if inj == nil {
		return nil
	}
	return inj.plan
}
