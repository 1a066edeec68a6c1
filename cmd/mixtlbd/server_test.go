package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"mixtlb/internal/experiments"
	"mixtlb/internal/telemetry"
)

func testServer(t *testing.T, cfg Config, runJob func(ctx context.Context, j *job)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	reg := telemetry.NewRegistry()
	s := newServer(cfg, reg, telemetry.NewTracer(0), runJob)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (*http.Response, map[string]string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func getStatus(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id, want string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State == stateFailed && want != stateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
	return jobStatus{}
}

func instantStub(ctx context.Context, j *job) {
	j.mu.Lock()
	j.title = "stub"
	j.csv = "cell,value\nok,1\n"
	j.mu.Unlock()
}

func TestSubmitStatusResult(t *testing.T) {
	_, ts := testServer(t, Config{}, instantStub)
	resp, out := submit(t, ts, `{"experiment":"fig12","quick":true}`)
	if resp.StatusCode != http.StatusAccepted || out["id"] == "" {
		t.Fatalf("submit: %d %v", resp.StatusCode, out)
	}
	waitState(t, ts, out["id"], stateDone)
	res, err := http.Get(ts.URL + "/jobs/" + out["id"] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := res.Body.Read(buf)
		body.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	if res.StatusCode != http.StatusOK || !strings.Contains(body.String(), "ok,1") {
		t.Fatalf("result: %d %q", res.StatusCode, body.String())
	}
	if ct := res.Header.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("content type = %q", ct)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, ts := testServer(t, Config{MaxRefs: 1000}, instantStub)
	cases := []struct{ body, reason string }{
		{`{"experiment":"nope"}`, "bad_spec"},
		{`{"experiment":"fig12","quick":true,"workloads":["zzz"]}`, "bad_spec"},
		{`{"experiment":"fig12","quick":true,"cell_deadline":"soon"}`, "bad_spec"},
		{`{"experiment":"fig12","quick":true,"isa":"pdp-11"}`, "bad_spec"},
		{`{"experiment":"hierarchy","quick":true,"designs":["nope"]}`, "bad_spec"},
		// 2^34 GiB shifts to 0 bytes; 2^34-1 and 65536 GiB would ask for
		// buddy trees the host cannot hold; 257 is one above the ceiling.
		{`{"experiment":"fig12","quick":true,"mem_gb":17179869184}`, "bad_spec"},
		{`{"experiment":"fig12","quick":true,"mem_gb":17179869183}`, "bad_spec"},
		{`{"experiment":"fig12","quick":true,"mem_gb":65536}`, "bad_spec"},
		{`{"experiment":"fig12","quick":true,"footprint_gb":257}`, "bad_spec"},
		{`{"experiment":"fig12","quick":true} garbage`, "bad_spec"},
		{`{"experiment":"fig12","quick":true}{}`, "bad_spec"},
		{`{"experiment":"fig12","quick":true,"cell":"` + strings.Repeat("x", maxBodyBytes) + `"}`, "bad_spec"},
		{`{"experiment":"fig12","unknown_field":1}`, "bad_spec"},
		{`not json`, "bad_spec"},
		{`{"experiment":"fig12","quick":true,"refs":999999}`, "over_budget"},
		// warm-up + measured refs wraps uint64 around to exactly 0.
		{`{"experiment":"fig12","quick":true,"refs":12297829382473034411}`, "over_budget"},
	}
	want := map[string]int{}
	for _, c := range cases {
		want[c.reason]++
		resp, out := submit(t, ts, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.80s: status %d %v, want 400", c.body, resp.StatusCode, out)
		}
	}
	prom := s.reg.PrometheusString()
	for reason, n := range want {
		if line := fmt.Sprintf(`mixtlbd_rejected_total{reason="%s"} %d`, reason, n); !strings.Contains(prom, line) {
			t.Errorf("metrics missing %s:\n%s", line, prom)
		}
	}
}

// TestRunSpecParity pins that the daemon builds a run exactly as mixtlb
// does from the same settings: a body and the equivalent flags give the
// same Scale, the default quick body matches QuickScale, and the
// daemon's own defaults (fail-soft, -jobs) apply only where the body is
// silent.
func TestRunSpecParity(t *testing.T) {
	s, _ := testServer(t, Config{CellJobs: 3}, instantStub)
	decode := func(body string) experiments.Scale {
		t.Helper()
		_, scale, serr := s.decodeJob(strings.NewReader(body))
		if serr != nil {
			t.Fatalf("%s: %v", body, serr)
		}
		scale.Telemetry, scale.Failures = nil, nil
		return scale
	}
	cli := func(args ...string) experiments.Scale {
		t.Helper()
		spec := experiments.DefaultRunSpec()
		fs := flag.NewFlagSet("mixtlb", flag.ContinueOnError)
		spec.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		scale, err := spec.Scale(nil)
		if err != nil {
			t.Fatal(err)
		}
		return scale
	}

	quick := experiments.QuickScale().Fingerprint()
	if got := decode(`{"experiment":"fig12","quick":true}`); got.Fingerprint() != quick || got.Jobs != 3 || !got.FailSoft {
		t.Errorf("default quick body: fingerprint %q jobs %d fail-soft %v, want QuickScale's, 3, true",
			got.Fingerprint(), got.Jobs, got.FailSoft)
	}
	if got := cli("-quick"); got.Fingerprint() != quick || got.Jobs != 0 || got.FailSoft {
		t.Errorf("mixtlb -quick: fingerprint %q jobs %d fail-soft %v, want QuickScale's, 0, false",
			got.Fingerprint(), got.Jobs, got.FailSoft)
	}
	if got := decode(`{"experiment":"fig12","quick":true,"fail_soft":false}`); got.FailSoft {
		t.Error(`"fail_soft":false ignored`)
	}

	body := decode(`{"experiment":"hierarchy","quick":true,"mem_gb":2,"footprint_gb":1,"refs":1000,
		"seed":7,"workloads":["gups"],"designs":["split","mix"],"isa":"sv39","fault_scale":2,"jobs":2,
		"cell":"gups","max_retries":1,"cell_deadline":"2m","fail_soft":true,"ledger_audit":true,"tail_k":4}`)
	flags := cli("-quick", "-mem-gb", "2", "-footprint-gb", "1", "-refs", "1000", "-seed", "7",
		"-workloads", "gups", "-designs", "split,mix", "-isa", "sv39", "-fault-scale", "2", "-jobs", "2",
		"-cell", "gups", "-max-retries", "1", "-cell-deadline", "2m", "-fail-soft", "-ledger-audit", "-tail", "4")
	if !reflect.DeepEqual(body, flags) {
		t.Errorf("body and flags build different runs:\n%+v\n%+v", body, flags)
	}
}

func TestQueueFullAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	blocked := func(ctx context.Context, j *job) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	s, ts := testServer(t, Config{QueueDepth: 2, RetryAfter: 7 * time.Second}, blocked)
	defer close(release)

	// One job running (drained from the queue), two parked in it.
	resp, first := submit(t, ts, `{"experiment":"fig12","quick":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatal("first submit refused")
	}
	waitState(t, ts, first["id"], stateRunning)
	for i := 0; i < 2; i++ {
		if resp, _ := submit(t, ts, `{"experiment":"fig12","quick":true}`); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queue submit %d refused", i)
		}
	}
	resp, out := submit(t, ts, `{"experiment":"fig12","quick":true}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d %v, want 429", resp.StatusCode, out)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want 7", ra)
	}
	prom := s.reg.PrometheusString()
	if !strings.Contains(prom, `mixtlbd_rejected_total{reason="queue_full"} 1`) {
		t.Errorf("metrics missing rejection counter:\n%s", prom)
	}
	if !strings.Contains(prom, "mixtlbd_queue_depth") {
		t.Errorf("metrics missing queue depth gauge")
	}
}

func TestCancelRunningJob(t *testing.T) {
	blocked := func(ctx context.Context, j *job) { <-ctx.Done() }
	_, ts := testServer(t, Config{}, blocked)
	_, out := submit(t, ts, `{"experiment":"fig12","quick":true}`)
	waitState(t, ts, out["id"], stateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+out["id"], nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitState(t, ts, out["id"], stateCanceled)
	if st.Error == "" {
		t.Error("canceled job has no error text")
	}
}

func TestDrainRefusesAndCancels(t *testing.T) {
	blocked := func(ctx context.Context, j *job) { <-ctx.Done() }
	s, ts := testServer(t, Config{DrainTimeout: 5 * time.Second}, blocked)
	_, running := submit(t, ts, `{"experiment":"fig12","quick":true}`)
	waitState(t, ts, running["id"], stateRunning)
	s.Drain()
	if st := getStatus(t, ts, running["id"]); st.State != stateCanceled {
		t.Errorf("running job state after drain = %s, want canceled", st.State)
	}
	resp, _ := submit(t, ts, `{"experiment":"fig12","quick":true}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", hz.StatusCode)
	}
}

// TestRealJobResumesFromJournal runs the actual simulator twice on the
// same spec: the second job must replay every cell from the first job's
// journal and produce the identical table.
func TestRealJobResumesFromJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s, ts := testServer(t, Config{CellJobs: 4}, nil)
	spec := `{"experiment":"fig12","quick":true}`

	fetch := func(id string) string {
		waitState(t, ts, id, stateDone)
		res, err := http.Get(ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var b strings.Builder
		buf := make([]byte, 1<<16)
		for {
			n, rerr := res.Body.Read(buf)
			b.Write(buf[:n])
			if rerr != nil {
				break
			}
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("result: %d %s", res.StatusCode, b.String())
		}
		return b.String()
	}

	_, j1 := submit(t, ts, spec)
	csv1 := fetch(j1["id"])
	if st := getStatus(t, ts, j1["id"]); st.ReplayedCells != 0 {
		t.Errorf("first run replayed %d cells", st.ReplayedCells)
	}

	_, j2 := submit(t, ts, spec)
	csv2 := fetch(j2["id"])
	if csv1 != csv2 {
		t.Errorf("resumed result differs:\n%s\nvs\n%s", csv1, csv2)
	}
	st := getStatus(t, ts, j2["id"])
	if st.ReplayedCells == 0 {
		t.Error("second run replayed nothing — journal resume broken")
	}
	prom := s.reg.PrometheusString()
	for _, want := range []string{"mixtlbd_resume_replayed_total", "engine_journal_replayed_total",
		`mixtlbd_jobs_total{state="done"} 2`} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics missing %s", want)
		}
	}

	// A different seed must not share the journal.
	_, j3 := submit(t, ts, `{"experiment":"fig12","quick":true,"seed":7}`)
	fetch(j3["id"])
	if st := getStatus(t, ts, j3["id"]); st.ReplayedCells != 0 {
		t.Errorf("different-seed job replayed %d cells from a foreign journal", st.ReplayedCells)
	}
}

// TestRealJobFailSoft runs the real simulator with an injected
// persistently-failing cell: the job must finish "done" (fail-soft is the
// daemon default), surface the FAILED marker in both status and result,
// and expose the retry counters on /metrics.
func TestRealJobFailSoft(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var s *Server
	runner := func(ctx context.Context, j *job) {
		s.runExperimentWithFault(ctx, j, "hog2")
	}
	var ts *httptest.Server
	s, ts = testServer(t, Config{CellJobs: 4}, runner)
	_, out := submit(t, ts, `{"experiment":"fig12","quick":true,"max_retries":1}`)
	st := waitState(t, ts, out["id"], stateDone)
	if len(st.FailedCells) != 1 || !strings.Contains(st.FailedCells[0], "FAILED(cell=hog2") {
		t.Fatalf("failed cells = %v, want one hog2 marker", st.FailedCells)
	}
	res, err := http.Get(ts.URL + "/jobs/" + out["id"] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var b strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, rerr := res.Body.Read(buf)
		b.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	if !strings.Contains(b.String(), "FAILED(cell=hog2") {
		t.Errorf("result table missing FAILED marker:\n%s", b.String())
	}
	prom := s.reg.PrometheusString()
	if !strings.Contains(prom, "engine_cell_retries_total") ||
		!strings.Contains(prom, "engine_cells_failed_soft_total") {
		t.Errorf("metrics missing retry/fail-soft counters:\n%s", prom)
	}
}

// TestRealJobDesignSubset runs hierarchy over a two-design subset, which
// the daemon's body can now name like mixtlb's -designs.
func TestRealJobDesignSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	_, ts := testServer(t, Config{CellJobs: 2}, nil)
	_, out := submit(t, ts, `{"experiment":"hierarchy","quick":true,"refs":20000,"designs":["split","mix"]}`)
	waitState(t, ts, out["id"], stateDone)
	res, err := http.Get(ts.URL + "/jobs/" + out["id"] + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	designs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n")[2:] {
		designs[strings.Split(line, ",")[0]] = true
	}
	if !reflect.DeepEqual(designs, map[string]bool{"split": true, "mix": true}) {
		t.Errorf("result rows cover designs %v, want split and mix:\n%s", designs, data)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := testServer(t, Config{}, instantStub)
	for _, path := range []string{"/jobs/job-999999", "/jobs/job-999999/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
}
