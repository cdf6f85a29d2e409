package tenant

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"scidp/internal/obs"
)

func TestHTTPControlAPI(t *testing.T) {
	reg := obs.New()
	reg.SetProcess("scidpd")
	env := testEnv(t, 0, reg)
	svc := New(env, Config{})
	ts := httptest.NewServer(NewServer(svc).Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, Job) {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var j Job
		json.NewDecoder(resp.Body).Decode(&j)
		resp.Body.Close()
		return resp, j
	}

	resp, job := post(`{"tenant":"alice","kind":"grep","size":"small"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", resp.StatusCode)
	}
	if job.ID != 1 {
		t.Fatalf("job id = %d", job.ID)
	}
	// The bridge runs the kernel to quiescence per request: the job's
	// record is already final.
	resp, err := http.Get(ts.URL + "/jobs/1")
	if err != nil {
		t.Fatal(err)
	}
	var done Job
	json.NewDecoder(resp.Body).Decode(&done)
	resp.Body.Close()
	if done.State != StateDone || done.Result == 0 {
		t.Fatalf("GET /jobs/1 = %+v, want done with output", done)
	}

	if resp, _ := post(`{"tenant":"alice","kind":"no-such","size":"small"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kind -> %d, want 400", resp.StatusCode)
	}
	// A body past the cap is refused before it is decoded.
	oversize := `{"tenant":"` + strings.Repeat("a", maxJobBody) + `","kind":"grep","size":"small"}`
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(oversize))
	if err != nil {
		t.Fatal(err)
	}
	var he httpError
	json.NewDecoder(resp.Body).Decode(&he)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || he.Error == "" {
		t.Errorf("oversize body -> %d %+v, want 413 with an error", resp.StatusCode, he)
	}

	resp, err = http.Get(ts.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var views []TenantView
	json.NewDecoder(resp.Body).Decode(&views)
	resp.Body.Close()
	if len(views) != 1 || views[0].Name != "alice" || views[0].Completed != 1 {
		t.Errorf("GET /tenants = %+v", views)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "tenant") {
		t.Errorf("metrics missing tenant series:\n%.400s", metrics)
	}

	if resp, err := http.Get(ts.URL + "/jobs/99"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /jobs/99 = %v %v, want 404", resp.StatusCode, err)
	}
}
