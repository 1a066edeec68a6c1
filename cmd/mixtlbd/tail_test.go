package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mixtlb/internal/logx"
	"mixtlb/internal/telemetry"
)

// syncBuffer collects log output from the runner goroutine race-free.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestLifecycleEventsLogged pins the daemon's structured lifecycle
// stream: accepted, started, done, and draining records with the job id
// attached, parseable as JSON.
func TestLifecycleEventsLogged(t *testing.T) {
	var buf syncBuffer
	lg, err := logx.New(&buf, logx.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{DataDir: t.TempDir(), Log: lg}, instantStub)
	_, out := submit(t, ts, `{"experiment":"fig12","quick":true}`)
	waitState(t, ts, out["id"], stateDone)
	s.Drain()

	want := map[string]bool{"job accepted": false, "job started": false, "job done": false, "draining": false}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %q (%v)", line, err)
		}
		msg, _ := rec["msg"].(string)
		if _, tracked := want[msg]; tracked {
			want[msg] = true
			if msg != "draining" && rec["job"] != out["id"] {
				t.Errorf("%q record names job %v, want %v", msg, rec["job"], out["id"])
			}
		}
	}
	for msg, seen := range want {
		if !seen {
			t.Errorf("lifecycle record %q never logged:\n%s", msg, buf.String())
		}
	}
}

// TestDebugTailEndpoint seeds the daemon's tracer with tail events and
// reads them back through GET /debug/tail.
func TestDebugTailEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	s := newServer(Config{DataDir: t.TempDir()}, reg, tracer,
		func(ctx context.Context, j *job) {})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	tracer.Instant(telemetry.TailCategory, "slow_translation", 0, 120,
		"design", "mix", "va", "0xdead000")
	tracer.Instant(telemetry.TailCategory, "slow_translation", 0, 80,
		"design", "split", "va", "0xbeef000")

	resp, err := http.Get(ts.URL + "/debug/tail?n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Count int                    `json:"count"`
		Tail  []telemetry.TailRecord `json:"tail"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != 2 || len(doc.Tail) != 1 {
		t.Fatalf("count=%d len=%d, want 2 and 1", doc.Count, len(doc.Tail))
	}
	if doc.Tail[0].Cycles != 120 || doc.Tail[0].Args["design"] != "mix" {
		t.Errorf("slowest-first violated: %+v", doc.Tail[0])
	}
}
