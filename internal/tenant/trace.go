package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"scidp/internal/obs/analyze"
)

// Arrival is one timed submission in a trace.
type Arrival struct {
	// At is the virtual arrival time in seconds.
	At float64 `json:"at"`
	// Spec is what arrives.
	Spec JobSpec `json:"spec"`
}

// Trace is a replayable arrival schedule: the headless input to scidpd
// -replay and the unit of determinism testing (same trace + same env ⇒
// byte-identical everything).
type Trace struct {
	// Name labels the trace in reports.
	Name string `json:"name,omitempty"`
	// Quotas are installed before any arrival (keyed by tenant).
	Quotas map[string]Quota `json:"quotas,omitempty"`
	// Arrivals must be sorted by At.
	Arrivals []Arrival `json:"arrivals"`
}

// LoadTrace reads a JSON trace from disk.
func LoadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("tenant: parse trace %s: %w", path, err)
	}
	return &tr, nil
}

// Replay schedules every arrival onto the service's kernel and runs the
// simulation to quiescence, returning the run's summary. Call once per
// fresh service.
func Replay(s *Service, tr *Trace) (*Summary, error) {
	names := make([]string, 0, len(tr.Quotas))
	for name := range tr.Quotas {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.SetQuota(name, tr.Quotas[name])
	}
	var submitErr error
	for _, a := range tr.Arrivals {
		spec := a.Spec
		s.env.K.After(a.At, func() {
			if _, err := s.Submit(spec); err != nil && submitErr == nil {
				submitErr = err
			}
		})
	}
	s.env.K.Run()
	if submitErr != nil {
		return nil, submitErr
	}
	s.env.ExportSimMetrics()
	return Summarize(s, tr.Name), nil
}

// TenantSummary is one tenant's slice of a Summary.
type TenantSummary struct {
	Tenant      string  `json:"tenant"`
	Submitted   int     `json:"submitted"`
	Completed   int     `json:"completed"`
	Rejected    int     `json:"rejected"`
	Failed      int     `json:"failed"`
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	Preemptions int     `json:"preemptions"`
	Backfills   int     `json:"backfills"`
	MaxRunning  int     `json:"max_running_seen"`
	MaxGranted  int     `json:"max_granted_seen"`
	SlotCap     int     `json:"slot_cap"`
}

// Summary is one replay's outcome: what scidpd -replay prints, what the
// tenant-replay benchmark reads its figures from, and the smoke test's
// contract.
type Summary struct {
	Trace            string          `json:"trace,omitempty"`
	Jobs             int             `json:"jobs"`
	Completed        int             `json:"completed"`
	Rejected         int             `json:"rejected"`
	Failed           int             `json:"failed"`
	MakespanSeconds  float64         `json:"makespan_seconds"`
	P50Seconds       float64         `json:"p50_seconds"`
	P99Seconds       float64         `json:"p99_seconds"`
	GoodputJobsPerKs float64         `json:"goodput_jobs_per_ks"`
	Preemptions      int             `json:"preemptions"`
	Backfills        int             `json:"backfills"`
	WithinQuota      bool            `json:"within_quota"`
	PerTenant        []TenantSummary `json:"per_tenant"`
	CompletionDigest string          `json:"completion_digest"`
	ExportDigest     string          `json:"export_digest,omitempty"`
}

// Summarize computes the run's summary after the kernel has drained.
func Summarize(s *Service, traceName string) *Summary {
	sum := &Summary{
		Trace:            traceName,
		Jobs:             len(s.jobs),
		WithinQuota:      s.WithinQuota(),
		CompletionDigest: s.Digest(),
	}
	var all []float64
	var makespan float64
	for _, j := range s.jobs {
		switch j.State {
		case StateDone:
			sum.Completed++
			all = append(all, j.Latency())
			if j.DoneAt > makespan {
				makespan = j.DoneAt
			}
		case StateRejected:
			sum.Rejected++
		case StateFailed:
			sum.Failed++
			if j.DoneAt > makespan {
				makespan = j.DoneAt
			}
		}
	}
	sum.MakespanSeconds = makespan
	slices.Sort(all)
	sum.P50Seconds = analyze.Quantile(all, 0.50)
	sum.P99Seconds = analyze.Quantile(all, 0.99)
	if makespan > 0 {
		sum.GoodputJobsPerKs = float64(sum.Completed) / makespan * 1000
	}
	for _, name := range s.names {
		t := s.tenants[name]
		var lat []float64
		for _, j := range s.jobs {
			if j.Spec.Tenant == name && j.State == StateDone {
				lat = append(lat, j.Latency())
			}
		}
		slices.Sort(lat)
		sum.Preemptions += t.Preemptions
		sum.Backfills += t.Backfills
		sum.PerTenant = append(sum.PerTenant, TenantSummary{
			Tenant:      name,
			Submitted:   t.Submitted,
			Completed:   t.Completed,
			Rejected:    t.Rejected,
			Failed:      t.Failed,
			P50Seconds:  analyze.Quantile(lat, 0.50),
			P99Seconds:  analyze.Quantile(lat, 0.99),
			Preemptions: t.Preemptions,
			Backfills:   t.Backfills,
			MaxRunning:  t.MaxRunningSeen,
			MaxGranted:  t.MaxGrantedSeen,
			SlotCap:     t.Quota.slotCap(s.totalSlots),
		})
	}
	return sum
}
