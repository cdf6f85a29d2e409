package tenant

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
)

// Server is the HTTP/JSON control surface over a Service. HTTP handlers
// run on real goroutines while the simulation is single-threaded, so
// every request crosses a bridge: take the kernel lock, apply the
// request's mutations as kernel state (submissions schedule their tick
// and driver events), then crank Kernel.Run until the event queue
// drains, and only then marshal the response. Virtual time rushes ahead
// of real time — a POST /jobs response already reflects the submitted
// job's completed future, which is what a deterministic simulation of a
// daemon means: the request sequence, not the wall clock, orders
// everything.
type Server struct {
	mu  sync.Mutex
	svc *Service
}

// NewServer wraps a service for HTTP serving.
func NewServer(svc *Service) *Server { return &Server{svc: svc} }

// do runs fn under the bridge: kernel mutations happen only while the
// lock is held and the kernel is parked between Run calls.
func (s *Server) do(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
	s.svc.env.K.Run()
}

// Handler returns the control API mux:
//
//	POST /jobs     {"tenant","kind","size","priority"} -> job record
//	GET  /jobs     all job records
//	GET  /jobs/{id} one job record
//	GET  /tenants  tenant states (quota, queue depth, counters)
//	GET  /metrics  Prometheus text exposition (the obs registry)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.postJob)
	mux.HandleFunc("GET /jobs", s.getJobs)
	mux.HandleFunc("GET /jobs/{id}", s.getJob)
	mux.HandleFunc("GET /tenants", s.getTenants)
	mux.HandleFunc("GET /metrics", s.getMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type httpError struct {
	Error string `json:"error"`
}

// maxJobBody caps a POST /jobs body; a JobSpec is under 100 bytes.
const maxJobBody = 1 << 20

func (s *Server) postJob(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody)).Decode(&spec); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, httpError{Error: err.Error()})
		return
	}
	var job *Job
	var err error
	s.do(func() { job, err = s.svc.Submit(spec) })
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	if job.State == StateRejected {
		writeJSON(w, http.StatusTooManyRequests, job)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) getJobs(w http.ResponseWriter, r *http.Request) {
	var jobs []Job
	s.do(func() {
		for _, j := range s.svc.Jobs() {
			jobs = append(jobs, *j)
		}
	})
	writeJSON(w, http.StatusOK, jobs)
}

func (s *Server) getJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad job id"})
		return
	}
	var job *Job
	s.do(func() {
		if j := s.svc.Job(id); j != nil {
			cp := *j
			job = &cp
		}
	})
	if job == nil {
		writeJSON(w, http.StatusNotFound, httpError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job)
}

// TenantView is the GET /tenants wire format.
type TenantView struct {
	Name        string `json:"name"`
	Quota       Quota  `json:"quota"`
	QueueDepth  int    `json:"queue_depth"`
	Running     int    `json:"running"`
	Submitted   int    `json:"submitted"`
	Completed   int    `json:"completed"`
	Rejected    int    `json:"rejected"`
	Failed      int    `json:"failed"`
	Preemptions int    `json:"preemptions"`
	Backfills   int    `json:"backfills"`
}

func (s *Server) getTenants(w http.ResponseWriter, r *http.Request) {
	var views []TenantView
	s.do(func() {
		for _, name := range s.svc.TenantNames() {
			t := s.svc.TenantState(name)
			views = append(views, TenantView{
				Name: name, Quota: t.Quota,
				QueueDepth: t.QueueDepth(), Running: t.RunningJobs(),
				Submitted: t.Submitted, Completed: t.Completed,
				Rejected: t.Rejected, Failed: t.Failed,
				Preemptions: t.Preemptions, Backfills: t.Backfills,
			})
		}
	})
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) getMetrics(w http.ResponseWriter, r *http.Request) {
	if s.svc.obs == nil {
		http.Error(w, "no registry attached", http.StatusNotFound)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.svc.obs.WritePrometheus(w)
}
