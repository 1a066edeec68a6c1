package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mixtlb/internal/simrand"
	"mixtlb/internal/stats"
)

// syntheticGrid builds n cells that each emit one row derived purely from
// the cell's split seed — any scheduling dependence shows up as a diff.
func syntheticGrid(n int) []Cell {
	cells := make([]Cell, n)
	for i := 0; i < n; i++ {
		i := i
		cells[i] = Cell{
			Name: fmt.Sprintf("cell%02d", i),
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				rng := simrand.New(cs.Seed)
				// Consume a few values so divergent sequences are obvious.
				v := rng.Uint64() ^ rng.Uint64()
				return []Row{{fmt.Sprintf("cell%02d", i), v, rng.Float64()}}, nil
			},
		}
	}
	return cells
}

func gridTable() *stats.Table {
	return &stats.Table{Title: "grid", Columns: []string{"cell", "value", "frac"}}
}

func runSynthetic(t *testing.T, jobs int) string {
	t.Helper()
	s := QuickScale()
	s.Jobs = jobs
	tbl := gridTable()
	results, err := RunGrid(context.Background(), s, "synthetic", syntheticGrid(12))
	if err != nil {
		t.Fatal(err)
	}
	AppendRows(tbl, results)
	return tbl.CSV()
}

func TestRunGridDeterministicAcrossJobs(t *testing.T) {
	t.Parallel()
	want := runSynthetic(t, 1)
	for _, jobs := range []int{2, 8, 32} {
		if got := runSynthetic(t, jobs); got != want {
			t.Errorf("-jobs %d table differs from -jobs 1:\n%s\nvs\n%s", jobs, got, want)
		}
	}
}

func TestRunGridCanonicalOrder(t *testing.T) {
	t.Parallel()
	s := QuickScale()
	s.Jobs = 8
	tbl := gridTable()
	results, err := RunGrid(context.Background(), s, "synthetic", syntheticGrid(16))
	if err != nil {
		t.Fatal(err)
	}
	AppendRows(tbl, results)
	for i, row := range tbl.Rows {
		if want := fmt.Sprintf("cell%02d", i); row[0] != want {
			t.Fatalf("row %d = %s, want %s (canonical order broken)", i, row[0], want)
		}
	}
}

func TestCellSeedDerivation(t *testing.T) {
	t.Parallel()
	a := CellSeed(42, "fig14", "native/2MB/mcf")
	if a != CellSeed(42, "fig14", "native/2MB/mcf") {
		t.Error("CellSeed not a pure function")
	}
	if a == CellSeed(42, "fig14", "native/2MB/gups") {
		t.Error("different cells share a seed")
	}
	if a == CellSeed(42, "fig15l", "native/2MB/mcf") {
		t.Error("different experiments share a seed")
	}
	if a == CellSeed(43, "fig14", "native/2MB/mcf") {
		t.Error("base seed does not propagate")
	}
	// Label-boundary safety: concatenation-equal paths must not collide.
	if simrand.SplitSeed(1, "ab", "c") == simrand.SplitSeed(1, "a", "bc") {
		t.Error("label boundaries are not separated in the hash")
	}
}

func TestRunGridPanicBecomesCellError(t *testing.T) {
	t.Parallel()
	cells := syntheticGrid(4)
	cells[2].Run = func(ctx context.Context, cs Scale) ([]Row, error) {
		panic("cell exploded")
	}
	s := QuickScale()
	s.Jobs = 1
	results, err := RunGrid(context.Background(), s, "synthetic", cells)

	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CellError", err)
	}
	if ce.Cell != "cell02" || ce.Experiment != "synthetic" {
		t.Errorf("cell identity = %+v", ce)
	}
	if want := CellSeed(s.Seed, "synthetic", "cell02"); ce.Seed != want {
		t.Errorf("CellError seed = %d, want derived %d", ce.Seed, want)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause = %v, want wrapped *PanicError", ce.Err)
	}
	if pe.Stack == "" || pe.Value != "cell exploded" {
		t.Errorf("panic diagnostics = %+v", pe)
	}
	if !strings.Contains(ce.Error(), `-cell "cell02"`) {
		t.Errorf("error lacks reproduce hint: %v", ce)
	}
	// Cells before the failure completed and keep their rows; the failed
	// cell and the one it canceled have none.
	if results[0] == nil || results[1] == nil {
		t.Error("completed cells lost on failure")
	}
	if results[2] != nil || results[3] != nil {
		t.Errorf("failed or canceled cells kept rows: %v, %v", results[2], results[3])
	}
	tbl := gridTable()
	AppendRows(tbl, results)
	if len(tbl.Rows) != 2 {
		t.Errorf("partial table has %d rows, want the 2 completed cells'", len(tbl.Rows))
	}
}

func TestRunGridFailFastCancelsRemaining(t *testing.T) {
	t.Parallel()
	var ran, failing int32
	cells := make([]Cell, 6)
	for i := range cells {
		i := i
		cells[i] = Cell{
			Name: fmt.Sprintf("cell%02d", i),
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				if i == 0 {
					atomic.AddInt32(&failing, 1)
					return nil, errors.New("boom")
				}
				atomic.AddInt32(&ran, 1)
				return []Row{{i}}, nil
			},
		}
	}
	s := QuickScale()
	s.Jobs = 1 // serial: the index-0 failure must stop the rest
	_, err := RunGrid(context.Background(), s, "synthetic", cells)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != "cell00" {
		t.Fatalf("err = %v, want CellError for cell00", err)
	}
	if n := atomic.LoadInt32(&ran); n != 0 {
		t.Errorf("%d cells ran after the serial failure", n)
	}
	if n := atomic.LoadInt32(&failing); n != 1 {
		t.Errorf("failing cell ran %d times, want exactly once", n)
	}
}

func TestRunGridReportsLowestIndexedFailure(t *testing.T) {
	t.Parallel()
	// Two failing cells: whichever schedule runs them, the error reported
	// must be the canonical (lowest-index) real failure.
	cells := syntheticGrid(8)
	fail := func(name string) func(context.Context, Scale) ([]Row, error) {
		return func(ctx context.Context, cs Scale) ([]Row, error) {
			return nil, fmt.Errorf("%s failed", name)
		}
	}
	cells[3].Run = fail("three")
	cells[6].Run = fail("six")
	s := QuickScale()
	s.Jobs = 4
	for trial := 0; trial < 10; trial++ {
		_, err := RunGrid(context.Background(), s, "synthetic", cells)
		var ce *CellError
		if !errors.As(err, &ce) {
			t.Fatalf("err = %v, want *CellError", err)
		}
		if ce.Cell != "cell03" && ce.Cell != "cell06" {
			t.Fatalf("unexpected failing cell %q", ce.Cell)
		}
		// With jobs=4 both may fail before cancellation lands; the
		// selection rule prefers the lowest index among real errors.
		if ce.Cell == "cell06" {
			// acceptable only if cell03 was cancelled before running —
			// impossible at jobs=4 over 8 cells where 3 dispatches in the
			// first wave. Tolerate nothing.
			t.Fatalf("reported cell06, want canonical cell03")
		}
	}
}

func TestRunGridCellFilter(t *testing.T) {
	t.Parallel()
	s := QuickScale()
	s.Jobs = 2
	s.Cell = "cell01"
	tbl := gridTable()
	results, err := RunGrid(context.Background(), s, "synthetic", syntheticGrid(6))
	if err != nil {
		t.Fatal(err)
	}
	// Results stay aligned to the declared grid: only the matching slot
	// is populated.
	for i, r := range results {
		if (i == 1) != (r != nil) {
			t.Errorf("slot %d populated=%v under filter", i, r != nil)
		}
	}
	// The filtered cell's seed must equal its unfiltered seed, so a
	// reproduction run replays the identical simulation.
	full := runSynthetic(t, 1)
	AppendRows(tbl, results)
	if !strings.Contains(full, tbl.CSV()[strings.Index(tbl.CSV(), "\n")+1:]) {
		t.Errorf("filtered cell row not byte-identical to its full-grid row:\n%s", tbl.CSV())
	}

	s.Cell = "nope"
	if _, err := RunGrid(context.Background(), s, "synthetic", syntheticGrid(3)); err == nil ||
		!strings.Contains(err.Error(), "cell00") {
		t.Errorf("no-match filter error should list cells, got: %v", err)
	}
}

func TestRunGridHonorsCancellation(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var after int32
	cells := []Cell{
		{Name: "blocker", Run: func(ctx context.Context, cs Scale) ([]Row, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{Name: "later", Run: func(ctx context.Context, cs Scale) ([]Row, error) {
			atomic.AddInt32(&after, 1)
			return []Row{{1}}, nil
		}},
	}
	s := QuickScale()
	s.Jobs = 1
	done := make(chan error, 1)
	go func() {
		_, err := RunGrid(ctx, s, "synthetic", cells)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunGrid did not return after cancellation")
	}
	if atomic.LoadInt32(&after) != 0 {
		t.Error("a cell ran after cancellation")
	}
}

func TestBenchLogJSON(t *testing.T) {
	t.Parallel()
	b := NewBenchLog(4)
	b.RecordCell(CellTime{Experiment: "fig1", Cell: "mcf/THS", Seed: 7, Seconds: 0.25})
	b.RecordCell(CellTime{Experiment: "fig1", Cell: "gups/THS", Seed: 9, Seconds: 0.5})
	b.RecordExperiment("fig1", 0.6, nil)
	b.RecordExperiment("fig9", 1.5, errors.New("partial"))
	data, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if rep.Jobs != 4 || len(rep.Cells) != 2 || len(rep.Experiments) != 2 {
		t.Errorf("report = %+v", rep)
	}
	if rep.Experiments[0].Cells != 2 {
		t.Errorf("fig1 cell count = %d, want 2", rep.Experiments[0].Cells)
	}
	if rep.Experiments[1].Err == "" {
		t.Error("experiment error not recorded")
	}
	if rep.TotalWallSeconds < 2.0 || rep.TotalWallSeconds > 2.2 {
		t.Errorf("total wall = %v", rep.TotalWallSeconds)
	}

	// Nil-safety: a nil log absorbs records and renders empty JSON.
	var nilLog *BenchLog
	nilLog.RecordCell(CellTime{})
	nilLog.RecordExperiment("x", 1, nil)
	if data, err := nilLog.JSON(); err != nil || string(data) != "{}" {
		t.Errorf("nil log JSON = %s, %v", data, err)
	}
}

func TestRunGridRecordsBenchTimings(t *testing.T) {
	t.Parallel()
	s := QuickScale()
	s.Jobs = 2
	s.Bench = NewBenchLog(2)
	if _, err := RunGrid(context.Background(), s, "synthetic", syntheticGrid(5)); err != nil {
		t.Fatal(err)
	}
	data, err := s.Bench.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 5 {
		t.Fatalf("recorded %d cell timings, want 5", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Experiment != "synthetic" || c.Seed == 0 {
			t.Errorf("cell timing = %+v", c)
		}
	}
}

// TestRunSafeCancelsOnTimeout verifies the ctx plumbing end to end: a
// timeout cancels the experiment's context so in-flight cells observe it.
func TestRunSafeCancelsOnTimeout(t *testing.T) {
	t.Parallel()
	sawCancel := make(chan struct{})
	e := Experiment{
		Name: "hang",
		Run: func(ctx context.Context, s Scale) (*stats.Table, error) {
			<-ctx.Done()
			close(sawCancel)
			return nil, ctx.Err()
		},
	}
	_, err := RunSafe(context.Background(), e, QuickScale(), 30*time.Millisecond)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	select {
	case <-sawCancel:
	case <-time.After(5 * time.Second):
		t.Fatal("experiment never observed the timeout cancellation")
	}
}
