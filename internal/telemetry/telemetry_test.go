package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety drives every handle through a nil receiver: the disabled
// path must be a no-op, never a panic.
func TestNilSafety(t *testing.T) {
	var c *Collector
	c.Counter("x").Inc()
	c.Counter("x").Add(3)
	c.Gauge("g").Set(7)
	c.Gauge("g").Add(-2)
	c.Histogram("h", []uint64{1, 2}).Observe(5)
	c.Span("cat", "name").End("k", "v")
	c.Instant("cat", "name", 42)
	if c.With("a", "b") != nil || c.WithTID(3) != nil {
		t.Fatal("scoping a nil collector must stay nil")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("nil registry export: %v", err)
	}
	var tr *Tracer
	tr.Instant("c", "n", 0, 0)
	tr.Span("c", "n", 0).End()
	if total, dropped := tr.Counts(); total != 0 || dropped != 0 {
		t.Fatal("nil tracer counts must be zero")
	}
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil tracer chrome export: %v", err)
	}
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatalf("nil tracer jsonl export: %v", err)
	}
	if NewCollector(nil, nil) != nil {
		t.Fatal("NewCollector(nil, nil) must be nil (fully disabled)")
	}
}

// TestRegistryExportDeterminism fills two registries along different
// schedules and asserts byte-identical Prometheus dumps.
func TestRegistryExportDeterminism(t *testing.T) {
	build := func(order []int) string {
		r := NewRegistry()
		for _, i := range order {
			r.Counter("walks_total", "exp", fmt.Sprintf("e%d", i)).Add(uint64(i) * 10)
			r.Gauge("free_frames", "exp", fmt.Sprintf("e%d", i)).Set(int64(100 - i))
			h := r.Histogram("walk_depth", []uint64{1, 2, 4}, "exp", fmt.Sprintf("e%d", i))
			h.Observe(uint64(i))
			h.ObserveN(3, 2)
		}
		return r.PrometheusString()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 1, 0, 2})
	if a != b {
		t.Fatalf("export depends on fill order:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if n, err := ParsePrometheus(strings.NewReader(a)); err != nil || n == 0 {
		t.Fatalf("self-parse: n=%d err=%v", n, err)
	}
}

// TestHistogramBuckets verifies bucket assignment and the cumulative
// Prometheus rendering.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("depth", []uint64{1, 4, 16})
	h.Observe(0)  // le=1
	h.Observe(1)  // le=1
	h.Observe(2)  // le=4
	h.Observe(16) // le=16
	h.Observe(99) // +Inf
	if h.Count() != 5 || h.Sum() != 118 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	out := r.PrometheusString()
	for _, want := range []string{
		`depth_bucket{le="1"} 2`,
		`depth_bucket{le="4"} 3`,
		`depth_bucket{le="16"} 4`,
		`depth_bucket{le="+Inf"} 5`,
		`depth_sum 118`,
		`depth_count 5`,
		"# TYPE depth histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestLabeledHistogramRendering checks le composes with existing labels.
func TestLabeledHistogramRendering(t *testing.T) {
	r := NewRegistry()
	r.Histogram("occ", []uint64{2}, "level", "L1").Observe(1)
	out := r.PrometheusString()
	if !strings.Contains(out, `occ_bucket{level="L1",le="2"} 1`) {
		t.Fatalf("labeled bucket rendering wrong:\n%s", out)
	}
	if !strings.Contains(out, `occ_count{level="L1"} 1`) {
		t.Fatalf("labeled count rendering wrong:\n%s", out)
	}
}

// TestParsePrometheusRejects exercises the validator's error paths.
func TestParsePrometheusRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no type", "foo 1\n"},
		{"bad value", "# TYPE foo counter\nfoo abc\n"},
		{"bad name", "# TYPE foo counter\n1foo 2\n"},
		{"bad type", "# TYPE foo widget\nfoo 1\n"},
		{"unbalanced", "# TYPE foo counter\nfoo}bad{ 1\n"},
	}
	for _, tc := range cases {
		if _, err := ParsePrometheus(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: expected error, got nil", tc.name)
		}
	}
	good := "# TYPE foo counter\nfoo 1\nfoo{a=\"b\"} 2\n\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 3\nh_count 1\n"
	if n, err := ParsePrometheus(strings.NewReader(good)); err != nil || n != 5 {
		t.Fatalf("good dump: n=%d err=%v", n, err)
	}
}

// TestTracerRoundTrip records spans/instants and validates both export
// formats.
func TestTracerRoundTrip(t *testing.T) {
	tr := NewTracer(0)
	sp := tr.Span("cell", "fig12/mix", 2)
	sp.SimTime = 12345
	tr.Instant("engine", "steal", 1, 0, "from", "0")
	sp.End("refs", "1000")

	total, dropped := tr.Counts()
	if total != 2 || dropped != 0 {
		t.Fatalf("counts: total=%d dropped=%d", total, dropped)
	}

	var chrome bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(chrome.Bytes())
	if err != nil || n != 2 {
		t.Fatalf("chrome validate: n=%d err=%v\n%s", n, err, chrome.String())
	}
	if !strings.Contains(chrome.String(), `"sim_cycles":12345`) {
		t.Fatalf("span sim time missing:\n%s", chrome.String())
	}

	var jsonl bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines, err := ValidateJSONL(bytes.NewReader(jsonl.Bytes()))
	if err != nil || lines != 3 { // meta + 2 events
		t.Fatalf("jsonl validate: lines=%d err=%v\n%s", lines, err, jsonl.String())
	}
}

// TestTracerDropsAtLimit fills past the buffer bound and checks the
// overflow is counted, not stored.
func TestTracerDropsAtLimit(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Instant("c", "e", 0, 0)
	}
	total, dropped := tr.Counts()
	if total != 4 || dropped != 6 {
		t.Fatalf("total=%d dropped=%d, want 4/6", total, dropped)
	}
}

// TestCollectorScoping checks label inheritance and tid propagation.
func TestCollectorScoping(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(0)
	root := NewCollector(r, tr)
	cell := root.With("exp", "fig12", "cell", "mix").WithTID(3)
	cell.Counter("hits_total", "level", "L1").Add(5)
	out := r.PrometheusString()
	if !strings.Contains(out, `hits_total{exp="fig12",cell="mix",level="L1"} 5`) {
		t.Fatalf("scoped counter key wrong:\n%s", out)
	}
	cell.Span("cell", "run").End()
	evs := tr.snapshot()
	if len(evs) != 1 || evs[0].TID != 3 {
		t.Fatalf("span tid not propagated: %+v", evs)
	}
	// Parent scope must be unaffected by child labels.
	root.Counter("hits_total", "level", "L1").Add(1)
	if !strings.Contains(r.PrometheusString(), `hits_total{level="L1"} 1`) {
		t.Fatal("parent collector gained child labels")
	}
}

// TestConcurrentFills hammers one registry from many goroutines; totals
// must be exact (atomic adds) under -race.
func TestConcurrentFills(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("n_total")
			h := r.Histogram("v", []uint64{10})
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(uint64(i % 20))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n_total").Value(); got != workers*per {
		t.Fatalf("counter=%d want %d", got, workers*per)
	}
	if got := r.Histogram("v", []uint64{10}).Count(); got != workers*per {
		t.Fatalf("histogram count=%d want %d", got, workers*per)
	}
}

// TestSanitizeName pins the name-mangling rules.
func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"good_name":  "good_name",
		"bad-name":   "bad_name",
		"4KB":        "_KB",
		"":           "_",
		"a.b/c":      "a_b_c",
		"colons:ok":  "colons:ok",
		"digits99ok": "digits99ok",
	}
	for in, want := range cases {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q)=%q want %q", in, got, want)
		}
	}
}
