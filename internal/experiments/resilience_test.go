package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"mixtlb/internal/journal"
)

// countingGrid is syntheticGrid plus a per-cell invocation counter, so
// tests can assert exactly which cells were simulated vs. replayed.
func countingGrid(n int, calls *sync.Map) []Cell {
	cells := syntheticGrid(n)
	for i := range cells {
		name, run := cells[i].Name, cells[i].Run
		cells[i].Run = func(ctx context.Context, cs Scale) ([]Row, error) {
			c, _ := calls.LoadOrStore(name, new(atomic.Int64))
			c.(*atomic.Int64).Add(1)
			return run(ctx, cs)
		}
	}
	return cells
}

func gridCSV(t *testing.T, s Scale, cells []Cell) string {
	t.Helper()
	tbl := gridTable()
	results, err := RunGrid(context.Background(), s, "synthetic", cells)
	if err != nil {
		t.Fatal(err)
	}
	AppendRows(tbl, results)
	return tbl.CSV()
}

// TestResumeByteIdentical is the kill-mid-run test: run a grid that dies
// after ~half its cells checkpointed, then resume from the journal and
// require the final table to be byte-identical to an uninterrupted run —
// at -jobs 1 and -jobs 8 — with only the remainder actually simulated.
func TestResumeByteIdentical(t *testing.T) {
	t.Parallel()
	const n = 12
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			t.Parallel()
			s := QuickScale()
			s.Jobs = jobs
			want := gridCSV(t, s, syntheticGrid(n))

			path := filepath.Join(t.TempDir(), "grid.journal")
			fp := s.Fingerprint()

			// First run: cancel the grid once half the cells have
			// checkpointed (the engine journals before reporting progress,
			// so every cell ProgressFn saw is durable — same ordering the
			// CLI's -kill-after-cells relies on).
			j1, err := journal.Create(path, fp)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			var seen atomic.Int64
			s1 := s
			s1.Journal = j1
			s1.ProgressFn = func(ev ProgressEvent) {
				if seen.Add(1) == n/2 {
					cancel()
				}
			}
			_, err = RunGrid(ctx, s1, "synthetic", syntheticGrid(n))
			j1.Close()
			if err == nil {
				t.Fatal("interrupted run reported success")
			}
			if st := j1.Stats(); st.Appended < n/2 || st.Appended >= n {
				t.Fatalf("first run checkpointed %d cells, want partial progress", st.Appended)
			}

			// Resume: only the un-checkpointed cells may simulate.
			j2, err := journal.Open(path, fp)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			checkpointed := j2.Stats().Replayed
			var calls sync.Map
			s2 := s
			s2.Journal = j2
			got := gridCSV(t, s2, countingGrid(n, &calls))
			if got != want {
				t.Errorf("resumed table differs from uninterrupted run:\n%s\nvs\n%s", got, want)
			}
			ran := 0
			calls.Range(func(name, c interface{}) bool {
				ran++
				if _, ok := j2.Lookup("synthetic", name.(string)); ok &&
					c.(*atomic.Int64).Load() > 1 {
					t.Errorf("cell %s simulated despite checkpoint", name)
				}
				return true
			})
			if ran != n-checkpointed {
				t.Errorf("resume simulated %d cells, want %d (replayed %d)",
					ran, n-checkpointed, checkpointed)
			}

			// Third run: everything replays, nothing simulates.
			j3, err := journal.Open(path, fp)
			if err != nil {
				t.Fatal(err)
			}
			defer j3.Close()
			var calls3 sync.Map
			s3 := s
			s3.Journal = j3
			if got := gridCSV(t, s3, countingGrid(n, &calls3)); got != want {
				t.Errorf("fully-replayed table differs:\n%s", got)
			}
			calls3.Range(func(name, _ interface{}) bool {
				t.Errorf("cell %v simulated on full replay", name)
				return true
			})
		})
	}
}

// TestJournalFingerprintGuardsReplay: a journal written under one
// configuration must not replay into another.
func TestJournalFingerprintGuardsReplay(t *testing.T) {
	t.Parallel()
	s := QuickScale()
	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := journal.Create(path, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	s.Journal = j
	gridCSV(t, s, syntheticGrid(4))
	j.Close()

	other := s
	other.Seed++
	if other.Fingerprint() == s.Fingerprint() {
		t.Fatal("fingerprint ignores the seed")
	}
	if _, err := journal.Open(path, other.Fingerprint()); err == nil {
		t.Fatal("journal from a different configuration accepted")
	}
}

// TestFailSoftSkipsJournal: a failed cell must not be checkpointed, so a
// resume simulates exactly the cells that have no record (the failed one
// included) and the healed table is byte-identical to an uninterrupted
// run.
func TestFailSoftSkipsJournal(t *testing.T) {
	t.Parallel()
	const n = 4
	s := QuickScale()
	s.Jobs = 2
	want := gridCSV(t, s, syntheticGrid(n))

	// cell01 errors on its first call only, like a cause that clears
	// between runs.
	var failed atomic.Bool
	grid := func(calls *sync.Map) []Cell {
		cells := countingGrid(n, calls)
		run := cells[1].Run
		cells[1].Run = func(ctx context.Context, cs Scale) ([]Row, error) {
			if failed.CompareAndSwap(false, true) {
				return nil, errors.New("first call fails")
			}
			return run(ctx, cs)
		}
		return cells
	}

	path := filepath.Join(t.TempDir(), "grid.journal")
	j, err := journal.Create(path, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	s1 := s
	s1.Journal = j
	var calls1 sync.Map
	_, err = RunGrid(context.Background(), s1, "synthetic", grid(&calls1))
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cell != "cell01" {
		t.Fatalf("err = %v, want *CellError for cell01", err)
	}
	if _, ok := j.Lookup("synthetic", "cell01"); ok {
		t.Error("failed cell was checkpointed")
	}
	succeeded := 0
	calls1.Range(func(_, _ interface{}) bool { succeeded++; return true })
	if got := j.Stats().Appended; got != succeeded {
		t.Errorf("appended %d records for %d completed cells", got, succeeded)
	}
	j.Close()

	// Resume: only the cells without a record simulate, and the grid heals.
	j2, err := journal.Open(path, s.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recorded := map[string]bool{}
	for _, c := range syntheticGrid(n) {
		_, recorded[c.Name] = j2.Lookup("synthetic", c.Name)
	}
	s2 := s
	s2.Journal = j2
	var calls2 sync.Map
	if got := gridCSV(t, s2, grid(&calls2)); got != want {
		t.Errorf("resumed table differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	for name, rec := range recorded {
		c, ran := calls2.Load(name)
		switch {
		case rec && ran:
			t.Errorf("cell %s re-simulated despite checkpoint", name)
		case !rec && (!ran || c.(*atomic.Int64).Load() != 1):
			t.Errorf("unrecorded cell %s not simulated exactly once on resume", name)
		}
	}
}
