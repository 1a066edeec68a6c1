package experiments

import (
	"bytes"
	"context"
	"errors"
	"regexp"
	"strings"
	"sync"
	"testing"

	"mixtlb/internal/telemetry"
)

// runTelemetry runs the named experiment at quick scale with the given
// pool size and a fresh registry/tracer, returning the result table CSV
// and the Prometheus metric dump. All three exporter formats must parse
// back, and the dump must carry the core metric families.
func runTelemetry(t *testing.T, name string, jobs int) (csv, metrics string) {
	t.Helper()
	s := QuickScale()
	s.Jobs = jobs
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	s.Telemetry = telemetry.NewCollector(reg, tracer)
	e, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var prom, trace, events bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if n, err := telemetry.ParsePrometheus(bytes.NewReader(prom.Bytes())); err != nil || n == 0 {
		t.Errorf("Prometheus dump: %d samples, err %v", n, err)
	}
	for _, fam := range []string{"mmu_accesses_total", "mmu_walks_total", "mmu_walk_depth",
		"tlb_coalesce_members", "tlb_set_occupancy"} {
		// A family's sample lines start with its name, a histogram suffix
		// optional, then a label block or a space.
		if !regexp.MustCompile(`(?m)^` + fam + `(_bucket|_sum|_count)?[{ ]`).Match(prom.Bytes()) {
			t.Errorf("Prometheus dump missing family %s", fam)
		}
	}
	if err := tracer.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateChromeTrace(trace.Bytes()); err != nil {
		t.Errorf("Chrome trace: %v", err)
	}
	if err := tracer.WriteJSONL(&events); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.ValidateJSONL(&events); err != nil {
		t.Errorf("JSONL events: %v", err)
	}
	return tbl.CSV(), prom.String()
}

// TestTelemetryJobsDeterminism is the registry's core contract: a metric
// dump is a pure function of (experiment, scale, seed), so jobs=1 and
// jobs=8 runs must produce byte-identical dumps. Wall-clock and schedule
// data (spans, worker ids, ETA) live only in the tracer, never here.
func TestTelemetryJobsDeterminism(t *testing.T) {
	t.Parallel()
	csv1, m1 := runTelemetry(t, "fig15r", 1)
	csv8, m8 := runTelemetry(t, "fig15r", 8)
	if csv1 != csv8 {
		t.Errorf("tables differ between jobs=1 and jobs=8:\n%s\n---\n%s", csv1, csv8)
	}
	if m1 != m8 {
		t.Errorf("metric dumps differ between jobs=1 and jobs=8:\n%s\n---\n%s", m1, m8)
	}
	if !strings.Contains(m1, "mmu_walk_depth") || !strings.Contains(m1, "tlb_set_occupancy") {
		t.Errorf("dump missing expected families:\n%s", m1)
	}
}

// TestTelemetryOnOffIdenticalTables is the non-interference contract:
// simulation statistics never read telemetry state, so an instrumented run
// and a bare run produce byte-identical result tables. It covers fig15r,
// the ablation cells, which export MMU metrics through the same run path
// as every other cell, and chaos and invalidation, the two cells that
// attach telemetry to a multi-core system.
func TestTelemetryOnOffIdenticalTables(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"fig15r", "scaling", "duplicates", "chaos", "invalidation"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			exp, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s := QuickScale()
			s.Jobs = 4
			bare, err := exp.Run(context.Background(), s)
			if err != nil {
				t.Fatal(err)
			}
			onCSV, metrics := runTelemetry(t, name, 4)
			if bare.CSV() != onCSV {
				t.Errorf("tables differ with telemetry on vs off:\n%s\n---\n%s", bare.CSV(), onCSV)
			}
			if !strings.Contains(metrics, "mmu_accesses_total") {
				t.Errorf("dump has no mmu_accesses_total series")
			}
		})
	}
}

// TestProgressEventsCoverAllCells checks the live-progress callback fires
// once per cell with monotone done counts ending at done == total.
func TestProgressEventsCoverAllCells(t *testing.T) {
	t.Parallel()
	s := QuickScale()
	s.Jobs = 4
	var mu sync.Mutex
	var events []ProgressEvent
	s.ProgressFn = func(ev ProgressEvent) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	}
	exp, err := ByName("fig15r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	total := events[0].Total
	if len(events) != total {
		t.Errorf("%d progress events for %d cells", len(events), total)
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d: Done = %d, want %d", i, ev.Done, i+1)
		}
		if ev.Total != total || ev.Experiment != "fig15r" || ev.Cell == "" {
			t.Errorf("event %d malformed: %+v", i, ev)
		}
		if ev.Failed {
			t.Errorf("event %d unexpectedly failed: %+v", i, ev)
		}
	}
	last := events[len(events)-1]
	if last.Done != last.Total || last.ETA != 0 {
		t.Errorf("final event should read done=total, eta=0: %+v", last)
	}
}

// TestUnknownNameErrors checks the typed experiment-name error carries the
// valid names the CLI prints (RunSpec's errors: TestRunSpecScale).
func TestUnknownNameErrors(t *testing.T) {
	t.Parallel()
	_, err := ByName("not-an-experiment")
	var ue *UnknownExperimentError
	if !errors.As(err, &ue) {
		t.Fatalf("ByName error = %T, want *UnknownExperimentError", err)
	}
	if ue.Name != "not-an-experiment" || len(ue.Valid) != len(All()) {
		t.Errorf("error fields: %+v", ue)
	}
	if !strings.Contains(ue.Error(), "fig14") {
		t.Errorf("message should list valid names: %v", ue)
	}
}
