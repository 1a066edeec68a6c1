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

// fig15rRuns holds the per-cell seconds of 20 back-to-back runs of one
// binary, `mixtlb -exp fig15r -quick -refs 300000 -jobs 1`, on a shared
// 2-vCPU host: each cell spreads 1.49-1.66x (max/min) on noise alone.
var fig15rRuns = []struct {
	cell string
	secs [20]float64
}{
	{"split/mcf", [20]float64{0.148, 0.141, 0.144, 0.190, 0.161, 0.148, 0.158, 0.149, 0.135, 0.145, 0.161, 0.184, 0.170, 0.155, 0.148, 0.173, 0.206, 0.180, 0.157, 0.148}},
	{"split/gups", [20]float64{0.119, 0.120, 0.118, 0.138, 0.152, 0.118, 0.144, 0.123, 0.111, 0.119, 0.164, 0.121, 0.120, 0.131, 0.124, 0.161, 0.120, 0.137, 0.141, 0.115}},
	{"split/memcached", [20]float64{0.184, 0.192, 0.199, 0.193, 0.238, 0.183, 0.195, 0.201, 0.169, 0.180, 0.260, 0.180, 0.187, 0.185, 0.224, 0.260, 0.257, 0.209, 0.201, 0.176}},
	{"mix/mcf", [20]float64{0.218, 0.218, 0.315, 0.226, 0.353, 0.222, 0.311, 0.270, 0.227, 0.237, 0.358, 0.255, 0.242, 0.226, 0.240, 0.345, 0.276, 0.227, 0.293, 0.227}},
	{"mix/gups", [20]float64{0.239, 0.217, 0.352, 0.228, 0.343, 0.256, 0.350, 0.337, 0.231, 0.231, 0.235, 0.247, 0.238, 0.222, 0.245, 0.342, 0.282, 0.232, 0.237, 0.216}},
	{"mix/memcached", [20]float64{0.217, 0.223, 0.352, 0.219, 0.234, 0.230, 0.313, 0.240, 0.214, 0.219, 0.298, 0.241, 0.223, 0.259, 0.251, 0.355, 0.264, 0.234, 0.228, 0.240}},
}

// writeRuns writes runs [from, to) of fig15rRuns into a new directory, one
// -bench-out file per run, with cell slow's seconds (every cell's, for
// "*") multiplied by factor.
func writeRuns(t *testing.T, from, to int, slow string, factor float64) string {
	t.Helper()
	dir := t.TempDir()
	for i := from; i < to; i++ {
		var kv []interface{}
		for _, c := range fig15rRuns {
			sec := c.secs[i]
			if c.cell == slow || slow == "*" {
				sec *= factor
			}
			kv = append(kv, c.cell, sec)
		}
		writeReport(t, dir, fmt.Sprintf("run%02d.json", i), cells("fig15r", kv...))
	}
	return dir
}

// Ten pairs of one binary's runs pass in both orders: noise alone
// regresses no cell. Nor does a 2% slowdown of every run, slower in every
// pair but by less than the base IQR.
func TestMeasuredNoisePasses(t *testing.T) {
	first, second := writeRuns(t, 0, 10, "", 1), writeRuns(t, 10, 20, "", 1)
	for _, ops := range [][2]string{{first, second}, {second, first}, {first, writeRuns(t, 0, 10, "*", 1.02)}} {
		code, out, _ := runTrend(t, ops[0], ops[1])
		if code != 0 || strings.Contains(out, "regressed:") {
			t.Errorf("benchtrend %s %s: exit %d, want 0 with no regressed cell:\n%s", ops[0], ops[1], code, out)
		}
		if !strings.HasPrefix(out, "base: 10 run(s); new: 10 run(s), newest run") || !strings.Contains(out, "over 6 cells") {
			t.Errorf("header or geomean line malformed:\n%s", out)
		}
	}
}

// The same fixture with one cell planted 2x slower fails and names that
// cell, whichever cell and whichever half of the runs is the baseline;
// split/mcf is caught at 1.5x too.
func TestPlantedSlowdownNamesTheCell(t *testing.T) {
	type plant struct {
		cell   string
		factor float64
	}
	plants := []plant{{"split/mcf", 1.5}}
	for _, c := range fig15rRuns {
		plants = append(plants, plant{c.cell, 2})
	}
	for _, p := range plants {
		for _, halves := range [][2]int{{0, 10}, {10, 0}} {
			base := writeRuns(t, halves[0], halves[0]+10, "", 1)
			cur := writeRuns(t, halves[1], halves[1]+10, p.cell, p.factor)
			code, out, _ := runTrend(t, base, cur)
			if code != 1 || !strings.Contains(out, "regressed: fig15r "+p.cell+": median") ||
				strings.Count(out, "regressed:") != 1 || !strings.HasSuffix(row(out, "fig15r"), " REGRESSION") {
				t.Errorf("%s x%.1f, base runs from %d: exit %d, want 1 naming only that cell:\n%s",
					p.cell, p.factor, halves[0], code, out)
			}
		}
	}
}

// Below ten pairs, or with unequal run counts, a cell is unpaired: noise
// passes, a planted 2x cell is not named, and the geomean floor still
// gates a slowdown spread over every cell.
func TestUnpairedCellsGatedByGeomeanOnly(t *testing.T) {
	for _, tc := range []struct {
		name           string
		baseRuns, runs int
	}{
		{"9 pairs", 9, 9},
		{"10 vs 9 runs", 10, 9},
	} {
		base := writeRuns(t, 0, tc.baseRuns, "", 1)
		code, out, _ := runTrend(t, base, writeRuns(t, 10, 10+tc.runs, "", 1))
		if code != 0 || !strings.HasSuffix(row(out, "fig15r"), " unpaired") || !strings.Contains(out, "6 counted cell(s) unpaired") {
			t.Errorf("%s, noise only: exit %d, want 0 with fig15r unpaired:\n%s", tc.name, code, out)
		}
		_, out, _ = runTrend(t, base, writeRuns(t, 10, 10+tc.runs, "mix/gups", 2))
		if !strings.HasSuffix(row(out, "fig15r"), " unpaired") || strings.Contains(out, "regressed:") {
			t.Errorf("%s, mix/gups 2x: want fig15r unpaired and no regressed cell:\n%s", tc.name, out)
		}
		code, out, _ = runTrend(t, base, writeRuns(t, 10, 10+tc.runs, "*", 1.5))
		if code != 1 || !strings.Contains(out, "is below the 0.85x floor") || strings.Contains(out, "regressed:") {
			t.Errorf("%s, every cell 1.5x: exit %d, want 1 from the geomean floor:\n%s", tc.name, code, out)
		}
	}
}

// A history is a BASE directory: a stable one passes against a new file,
// its cells unpaired.
func TestStableHistoryPasses(t *testing.T) {
	dir := t.TempDir()
	writeSnap(t, dir, "a-0001.json", map[string]float64{"fig12": 1.00})
	writeSnap(t, dir, "b-0002.json", map[string]float64{"fig12": 1.04})
	writeSnap(t, dir, "c-0003.json", map[string]float64{"fig12": 0.98})
	cur := writeSnap(t, t.TempDir(), "new.json", map[string]float64{"fig12": 1.01})
	code, out, _ := runTrend(t, dir, cur)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if row(out, "fig12") != "fig12 3 1.01x unpaired" {
		t.Errorf("trend row %q malformed:\n%s", row(out, "fig12"), out)
	}
	if !strings.HasPrefix(out, "base: 3 run(s); new: 1 run(s)") || !strings.Contains(out, "geomean speedup over 3 cells: 0.99x") {
		t.Errorf("missing header or geomean summary:\n%s", out)
	}
}

// Two directories of ten runs each: the experiment that doubled is a
// REGRESSION, the one that held reads ok.
func TestRegressionFlagged(t *testing.T) {
	base, cur := t.TempDir(), t.TempDir()
	for i := 0; i < 10; i++ {
		jitter := 1 + 0.01*float64(i%3)
		name := fmt.Sprintf("%02d.json", i)
		writeSnap(t, base, name, map[string]float64{"fig12": jitter, "reach": 2 * jitter})
		writeSnap(t, cur, name, map[string]float64{"fig12": 2 * jitter, "reach": 2 * jitter})
	}
	code, out, _ := runTrend(t, base, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if row(out, "fig12") != "fig12 3 2.00x REGRESSION" || row(out, "reach") != "reach 3 1.00x ok" {
		t.Errorf("rows malformed:\n%s", out)
	}
	if strings.Count(out, "regressed: fig12 ") != 3 || strings.Contains(out, "regressed: reach") {
		t.Errorf("want fig12's three cells named, reach's none:\n%s", out)
	}
}

func TestNewExperimentIsNotARegression(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "a.json", map[string]float64{"fig12": 1.0})
	cur := writeSnap(t, dir, "b.json", map[string]float64{"fig12": 1.0, "breakdown": 9.9})
	code, out, _ := runTrend(t, old, cur)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if row(out, "breakdown") != "breakdown 0 - new" {
		t.Errorf("breakdown should be marked new:\n%s", out)
	}
}

// Anything but exactly two operands, any flag, or an operand that is not
// a readable -bench-out file or a directory holding some is a usage error.
func TestUsageAndBadInputExit2(t *testing.T) {
	dir := t.TempDir()
	ok := writeSnap(t, dir, "ok.json", map[string]float64{"fig12": 1})
	if code, _, _ := runTrend(t); code != 2 {
		t.Errorf("no operands: exit %d, want 2", code)
	}
	if code, out, _ := runTrend(t, dir); code != 2 {
		t.Errorf("one operand: exit %d, want 2:\n%s", code, out)
	}
	if code, out, _ := runTrend(t, ok, ok, ok); code != 2 {
		t.Errorf("three operands: exit %d, want 2:\n%s", code, out)
	}
	if code, _, errs := runTrend(t, "-max-regression", "40", ok, ok); code != 2 || !strings.Contains(errs, "not defined: -max-regression") {
		t.Errorf("-max-regression: exit %d, want 2 for an unknown flag:\n%s", code, errs)
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if code, _, _ := runTrend(t, ok, bad); code != 2 {
		t.Errorf("malformed snapshot: exit %d, want 2", code)
	}
	if code, _, _ := runTrend(t, ok, filepath.Join(dir, "missing.json")); code != 2 {
		t.Errorf("missing file: exit %d, want 2", code)
	}
	if code, _, errs := runTrend(t, t.TempDir(), ok); code != 2 || !strings.Contains(errs, "no *.json snapshots") {
		t.Errorf("empty directory: exit %d, want 2:\n%s", code, errs)
	}
}

func TestFileArgumentOrderWins(t *testing.T) {
	dir := t.TempDir()
	slow := writeSnap(t, dir, "z-old-slow.json", map[string]float64{"fig12": 2.0})
	fast := writeSnap(t, dir, "a-new-fast.json", map[string]float64{"fig12": 1.0})
	// Operand order, not name order: slow BASE, fast NEW is an improvement.
	code, out, _ := runTrend(t, slow, fast)
	if code != 0 || row(out, "fig12") != "fig12 3 0.50x unpaired" {
		t.Errorf("slow then fast: exit %d, want 0 at 0.50x:\n%s", code, out)
	}
	// Swapped, the same pair is a 2x slowdown, past the geomean floor.
	code, out, _ = runTrend(t, fast, slow)
	if code != 1 || !strings.Contains(out, "geomean speedup 0.50x is below the 0.85x floor") {
		t.Errorf("fast then slow: exit %d, want 1 from the floor:\n%s", code, out)
	}
}

// A failed experiment that ran before must read "error" and fail the
// gate, not pass as "new".
func TestFailedExperimentIsAnError(t *testing.T) {
	dir := t.TempDir()
	old := writeSnap(t, dir, "a.json", map[string]float64{"fig12": 1.0, "fig14": 1.0})
	rep := cells("fig12", "a", 1.0/3, "b", 1.0/3, "c", 1.0/3)
	rep.Experiments = append(rep.Experiments, experiments.ExperimentTime{Experiment: "fig14", Err: "boom"})
	cur := writeReport(t, dir, "b.json", rep)
	code, out, _ := runTrend(t, old, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if row(out, "fig14") != "fig14 0 - error" || !strings.Contains(out, "fig14 failed: boom") {
		t.Errorf("fig14 not reported as a failure:\n%s", out)
	}

	// With no baseline, a failure is shown but does not fail the gate.
	old = writeSnap(t, t.TempDir(), "a.json", map[string]float64{"fig12": 1.0})
	if code, out, _ := runTrend(t, old, cur); code != 0 || !strings.Contains(out, "error") {
		t.Errorf("exit %d, want 0 with an error row:\n%s", code, out)
	}
}

func TestCellJoinSumsAttempts(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", cells("fig15r", "x", 1.0, "y", 2.0))
	// y ran twice (a retried attempt): its value is the 2.0s sum.
	cur := writeReport(t, dir, "new.json", cells("fig15r", "x", 1.0, "y", 1.5, "y", 0.5))
	code, out, _ := runTrend(t, old, cur)
	if code != 0 {
		t.Fatalf("exit %d, want 0:\n%s", code, out)
	}
	if got := row(out, "fig15r"); got != "fig15r 2 1.00x unpaired" {
		t.Errorf("row %q, want 2 joined cells at 1.00x:\n%s", got, out)
	}
	if !strings.Contains(out, "over 2 cells: 1.00x") {
		t.Errorf("geomean over the joined cells missing:\n%s", out)
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
		"cells on one side only: 1 in base, 2 in new",
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

func TestGeomeanFloor(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", cells("fig15r", "a", 1.0, "b", 2.0))
	cur := writeReport(t, dir, "new.json", cells("fig15r", "a", 1.2, "b", 2.4))
	code, out, _ := runTrend(t, old, cur)
	if code != 1 {
		t.Fatalf("exit %d, want 1:\n%s", code, out)
	}
	if !strings.Contains(out, "geomean speedup 0.83x is below the 0.85x floor") || strings.Contains(out, "regressed:") {
		t.Errorf("want the floor, not the per-cell rule, to fail:\n%s", out)
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
	if row(out, "fig15r") != "fig15r 2 1.00x unpaired" || row(out, "fig9") != "fig9 0 - error" {
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
