package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mixtlb/internal/experiments"
)

func writeReport(t *testing.T, dir, name string, rep experiments.BenchReport) string {
	t.Helper()
	body, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeSnap writes a snapshot in which each experiment ran three equal
// cells summing to its seconds.
func writeSnap(t *testing.T, dir, name string, secs map[string]float64) string {
	t.Helper()
	rep := experiments.BenchReport{Jobs: 4}
	for exp, s := range secs {
		rep.Experiments = append(rep.Experiments, experiments.ExperimentTime{Experiment: exp, Seconds: s, Cells: 3})
		for _, cell := range []string{"a", "b", "c"} {
			rep.Cells = append(rep.Cells, experiments.CellTime{Experiment: exp, Cell: cell, Seconds: s / 3})
		}
	}
	return writeReport(t, dir, name, rep)
}

// cells builds a one-experiment report from cell seconds; a cell listed
// twice is two attempts of the same cell.
func cells(exp string, kv ...interface{}) experiments.BenchReport {
	rep := experiments.BenchReport{Jobs: 1,
		Experiments: []experiments.ExperimentTime{{Experiment: exp, Cells: len(kv) / 2}}}
	for i := 0; i < len(kv); i += 2 {
		rep.Cells = append(rep.Cells, experiments.CellTime{
			Experiment: exp, Cell: kv[i].(string), Seconds: kv[i+1].(float64)})
	}
	return rep
}

// row returns the fields of an experiment's table row, space-joined.
func row(out, exp string) string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == exp {
			return strings.Join(f, " ")
		}
	}
	return ""
}

func runTrend(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestStableHistoryPasses(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "a-0001.json", map[string]float64{"fig12": 1.00})
	writeSnap(t, dir, "b-0002.json", map[string]float64{"fig12": 1.04})
	writeSnap(t, dir, "c-0003.json", map[string]float64{"fig12": 0.98})
	code, out, _ := runTrend(t, dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "fig12") || !strings.Contains(out, "ok") {
		t.Errorf("trend table malformed:\n%s", out)
	}
	if !strings.Contains(out, "geomean speedup vs history over 3 cells") {
		t.Errorf("missing geomean summary:\n%s", out)
	}
}

func TestRegressionFlagged(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "a.json", map[string]float64{"fig12": 1.0, "reach": 2.0})
	writeSnap(t, dir, "b.json", map[string]float64{"fig12": 1.0, "reach": 2.0})
	writeSnap(t, dir, "c.json", map[string]float64{"fig12": 2.0, "reach": 2.0})
	code, out, _ := runTrend(t, "-max-regression", "25", dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("no REGRESSION flag:\n%s", out)
	}
	// The well-behaved experiment must still read ok.
	if !strings.Contains(out, "reach") {
		t.Errorf("reach row missing:\n%s", out)
	}
}

func TestNewExperimentIsNotARegression(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "a.json", map[string]float64{"fig12": 1.0})
	writeSnap(t, dir, "b.json", map[string]float64{"fig12": 1.0, "breakdown": 9.9})
	code, out, _ := runTrend(t, dir)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "new") {
		t.Errorf("breakdown should be marked new:\n%s", out)
	}
}

func TestSingleSnapshotIsNoop(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "only.json", map[string]float64{"fig12": 1.0})
	code, out, _ := runTrend(t, dir)
	if code != 0 || !strings.Contains(out, "need at least 2") {
		t.Fatalf("exit %d out %q", code, out)
	}
}

func TestUsageAndBadInputExit2(t *testing.T) {
	if code, _, _ := runTrend(t); code != 2 {
		t.Errorf("no operands: exit %d, want 2", code)
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	ok := writeSnap(t, dir, "ok.json", map[string]float64{"fig12": 1})
	if code, _, _ := runTrend(t, ok, bad); code != 2 {
		t.Errorf("malformed snapshot: exit %d, want 2", code)
	}
	if code, _, _ := runTrend(t, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
}

func TestFileArgumentOrderWins(t *testing.T) {
	dir := t.TempDir()
	slow := writeSnap(t, dir, "z-old-slow.json", map[string]float64{"fig12": 2.0})
	fast := writeSnap(t, dir, "a-new-fast.json", map[string]float64{"fig12": 1.0})
	// Explicit file order: slow history, fast latest — an improvement.
	code, out, _ := runTrend(t, slow, slow, fast)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "0.50x") {
		t.Errorf("expected 0.50x improvement ratio:\n%s", out)
	}
}

// A failed experiment that ran before must read "error" and fail the
// gate, not pass as "new".
func TestFailedExperimentIsAnError(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "a.json", map[string]float64{"fig12": 1.0, "fig14": 1.0})
	rep := cells("fig12", "a", 1.0/3, "b", 1.0/3, "c", 1.0/3)
	rep.Experiments = append(rep.Experiments, experiments.ExperimentTime{Experiment: "fig14", Err: "boom"})
	writeReport(t, dir, "b.json", rep)
	code, out, _ := runTrend(t, dir)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if row(out, "fig14") != "fig14 0 - error" || !strings.Contains(out, "fig14 failed: boom") {
		t.Errorf("fig14 not reported as a failure:\n%s", out)
	}

	// With no baseline, a failure is shown but does not fail the gate.
	dir = t.TempDir()
	writeSnap(t, dir, "a.json", map[string]float64{"fig12": 1.0})
	writeReport(t, dir, "b.json", rep)
	if code, out, _ := runTrend(t, dir); code != 0 || !strings.Contains(out, "error") {
		t.Errorf("exit %d, want 0 with an error row:\n%s", code, out)
	}
}

func TestCellJoinSumsAttempts(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", cells("fig15r", "x", 1.0, "y", 2.0))
	// y ran twice (a retried attempt): its value is the 2.0s sum.
	cur := writeReport(t, dir, "new.json", cells("fig15r", "x", 1.0, "y", 1.5, "y", 0.5))
	code, out, _ := runTrend(t, "-max-regression", "0", old, cur)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if got := row(out, "fig15r"); got != "fig15r 2 1.00x ok" {
		t.Errorf("row %q, want 2 joined cells at 1.00x:\n%s", got, out)
	}
	if !strings.Contains(out, "over 2 cells: 1.00x") {
		t.Errorf("geomean over the joined cells missing:\n%s", out)
	}
}

// A file compared with itself passes even at a 0% per-cell limit.
func TestIdenticalFilesPassAtZeroLimit(t *testing.T) {
	var kv []interface{}
	for i := 1; i <= 500; i++ {
		kv = append(kv, fmt.Sprint(i), float64(i)*0.0013)
	}
	path := writeReport(t, t.TempDir(), "bench.json", cells("fig15r", kv...))
	if code, out, _ := runTrend(t, "-max-regression", "0", path, path); code != 0 || !strings.Contains(out, "over 500 cells: 1.00x") {
		t.Errorf("exit %d, want 0 at 1.00x:\n%s", code, out)
	}
}

func TestOneSidedCellsReportedNotFailed(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", cells("fig15r", "x", 1.0, "gone", 1.0, "zero", 1.0))
	cur := writeReport(t, dir, "new.json", cells("fig15r", "x", 1.0, "added", 9.0, "added2", 9.0, "zero", 0.0))
	code, out, _ := runTrend(t, old, cur)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	for _, want := range []string{
		"cells on one side only: 1 in history, 2 in newest",
		"1 joined cell(s) with zero seconds not counted",
		"over 1 cells: 1.00x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestNoCommonCellsExit2(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", cells("fig15r", "x", 1.0))
	cur := writeReport(t, dir, "new.json", cells("fig15r", "y", 1.0))
	if code, out, errs := runTrend(t, old, cur); code != 2 || !strings.Contains(errs, "no cells in common") {
		t.Errorf("exit %d, want 2:\n%s%s", code, out, errs)
	}
}

func TestPerCellLimitNamesTheCell(t *testing.T) {
	dir := t.TempDir()
	var oldKV, newKV []interface{}
	for _, c := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		oldKV = append(oldKV, c, 1.0)
		sec := 1.0
		if c == "d" {
			sec = 2.0
		}
		newKV = append(newKV, c, sec)
	}
	old := writeReport(t, dir, "old.json", cells("fig15r", oldKV...))
	cur := writeReport(t, dir, "new.json", cells("fig15r", newKV...))
	code, out, _ := runTrend(t, "-max-regression", "40", old, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "regressed: fig15r d: 1.000s -> 2.000s (2.00x)") {
		t.Errorf("regressed cell not named:\n%s", out)
	}
	// One slow cell of eight keeps the geomean above the floor: the
	// per-cell limit alone failed the gate.
	if strings.Contains(out, "below the") {
		t.Errorf("geomean floor tripped unexpectedly:\n%s", out)
	}
}

func TestGeomeanFloor(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", cells("fig15r", "a", 1.0, "b", 2.0))
	cur := writeReport(t, dir, "new.json", cells("fig15r", "a", 1.2, "b", 2.4))
	code, out, _ := runTrend(t, "-max-regression", "40", old, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "geomean speedup 0.83x is below the 0.85x floor") || strings.Contains(out, "regressed:") {
		t.Errorf("want the floor, not a per-cell limit, to fail:\n%s", out)
	}
}

func TestTelemetryLine(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", cells("fig15r", "x", 1.0))
	rep := cells("fig15r", "x", 1.0)
	rep.Telemetry = &experiments.TelemetrySummary{EventsTotal: 1234, EventsDropped: 5}
	cur := writeReport(t, dir, "new.json", rep)
	if _, out, _ := runTrend(t, old, cur); !strings.Contains(out, "telemetry new.json: 1234 events, 5 dropped") {
		t.Errorf("telemetry line missing:\n%s", out)
	}
	if _, out, _ := runTrend(t, cur, old); strings.Contains(out, "telemetry") {
		t.Errorf("uninstrumented newest snapshot printed telemetry:\n%s", out)
	}
}

// TestBenchLogRoundTrip reads back what the engine's own writer emits.
func TestBenchLogRoundTrip(t *testing.T) {
	log := experiments.NewBenchLog(2)
	log.RecordCell(experiments.CellTime{Experiment: "fig15r", Cell: "mcf", Seed: 7, Seconds: 0.25})
	log.RecordCell(experiments.CellTime{Experiment: "fig15r", Cell: "gups", Seed: 9, Seconds: 0.5})
	log.RecordExperiment("fig15r", 0.8, nil)
	log.RecordExperiment("fig9", 0.1, errors.New("partial"))
	log.SetTelemetry(experiments.TelemetrySummary{EventsTotal: 10})
	data, err := log.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errs := runTrend(t, path, path)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s%s", code, out, errs)
	}
	if row(out, "fig15r") != "fig15r 2 1.00x ok" || row(out, "fig9") != "fig9 0 - error" {
		t.Errorf("rows malformed:\n%s", out)
	}
	for _, want := range []string{
		"0.90s total wall (jobs 2)",
		"telemetry bench.json: 10 events, 0 dropped",
		"over 2 cells: 1.00x",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}
