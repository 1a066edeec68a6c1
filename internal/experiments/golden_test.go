package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mixtlb/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden/*.csv from a -jobs=1 run instead of comparing")

// goldenStudies are the table-producing studies outside the registry,
// pinned beside its experiments under the same golden file naming.
var goldenStudies = map[string]func(context.Context, Scale) (*stats.Table, error){
	"coalesce-cap": func(ctx context.Context, s Scale) (*stats.Table, error) {
		return CoalesceCapStudy(ctx, s, nil)
	},
	"encoding": EncodingStudy,
}

// goldenExperiments lists the registry entries and studies under golden
// regression. Race builds run the cheap subset; normal builds run
// everything.
func goldenExperiments(t *testing.T) []string {
	if !raceEnabled {
		var names []string
		for _, e := range All() {
			names = append(names, e.Name)
		}
		return append(names, "coalesce-cap", "encoding")
	}
	if *updateGolden {
		t.Fatal("refusing to update goldens from a race build: run go test -update-golden without -race")
	}
	return []string{"fig9", "fig12", "fig13", "fig17", "invalidation", "chaos"}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".csv")
}

// runExperimentCSV runs one registry experiment or golden study at
// QuickScale with the given worker count and renders its table.
func runExperimentCSV(t *testing.T, name string, jobs int) string {
	t.Helper()
	run, ok := goldenStudies[name]
	if !ok {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		run = e.Run
	}
	s := QuickScale()
	s.Jobs = jobs
	tbl, err := run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return "# " + tbl.Title + "\n" + tbl.CSV()
}

// TestGoldenTables pins every experiment's QuickScale output. Goldens are
// recorded from a -jobs=1 run (go test -run TestGoldenTables
// -update-golden) and verified against a -jobs=8 run, so a match proves
// both that the numbers did not drift and that the worker count leaves
// the tables byte-identical.
func TestGoldenTables(t *testing.T) {
	for _, name := range goldenExperiments(t) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if *updateGolden {
				got := runExperimentCSV(t, name, 1)
				if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(name), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatalf("missing golden (regenerate with go test -run TestGoldenTables -update-golden): %v", err)
			}
			got := runExperimentCSV(t, name, 8)
			if got != string(want) {
				t.Errorf("-jobs=8 output differs from the -jobs=1 golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestJobsCountInvariance re-runs cheap experiments at several worker
// counts in one process and requires byte-identical tables — the direct
// form of the determinism guarantee, independent of checked-in files.
func TestJobsCountInvariance(t *testing.T) {
	names := []string{"fig12", "fig13", "invalidation", "hierarchy", "reach", "breakdown", "xisa"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			want := runExperimentCSV(t, name, 1)
			for _, jobs := range []int{3, 8} {
				if got := runExperimentCSV(t, name, jobs); got != want {
					t.Errorf("-jobs=%d differs from -jobs=1:\n%s\nvs\n%s", jobs, got, want)
				}
			}
		})
	}
}

// goldenTable parses a golden CSV into header and rows, skipping the
// title line. Qualitative tests read the checked-in goldens (verified
// live by TestGoldenTables) instead of re-running the experiments.
func goldenTable(t *testing.T, name string) (header []string, rows [][]string) {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Skipf("golden %s not present: %v", name, err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "# ") {
		t.Fatalf("malformed golden %s", name)
	}
	header = strings.Split(lines[1], ",")
	for _, ln := range lines[2:] {
		rows = append(rows, strings.Split(ln, ","))
	}
	return header, rows
}

func goldenFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("column %d = %q is not numeric: %v", col, row[col], err)
	}
	return v
}

func colIndex(t *testing.T, header []string, name string) int {
	t.Helper()
	for i, h := range header {
		if h == name {
			return i
		}
	}
	t.Fatalf("no column %q in %v", name, header)
	return -1
}

// TestGoldenQualitativeClaims checks the paper's headline qualitative
// results hold in the pinned tables: MIX outperforms the split TLB, and
// coalescing recovers the capacity that mirroring alone loses.
func TestGoldenQualitativeClaims(t *testing.T) {
	if raceEnabled {
		t.Skip("qualitative goldens are checked in the non-race run")
	}
	t.Run("mix-beats-split", func(t *testing.T) {
		// Figure 14: MIX's cycle improvement over the split baseline,
		// per workload and system. It must be strongly positive on
		// average and never catastrophically negative.
		header, rows := goldenTable(t, "fig14")
		c := colIndex(t, header, "improvement-%")
		var sum float64
		for _, row := range rows {
			v := goldenFloat(t, row, c)
			sum += v
			if v < -5 {
				t.Errorf("%s/%s/%s: MIX loses %.2f%% to split", row[0], row[1], row[2], -v)
			}
		}
		if avg := sum / float64(len(rows)); avg <= 10 {
			t.Errorf("mean MIX improvement = %.2f%%, want > 10%%", avg)
		}
	})
	t.Run("coalescing-recovers-mirroring-loss", func(t *testing.T) {
		// Scaling study: growing the L2 from 64 to 512 sets multiplies
		// the mirror count 8x, but K-way coalescing must keep paying for
		// the copies — overhead vs the ideal TLB stays flat instead of
		// exploding with the set count (the Sec 3/4 capacity argument).
		header, rows := goldenTable(t, "scaling")
		oc := colIndex(t, header, "overhead-vs-ideal-%")
		sc := colIndex(t, header, "l2-sets")
		wc := colIndex(t, header, "workload")
		overhead := map[string]map[float64]float64{}
		for _, row := range rows {
			wl := row[wc]
			if overhead[wl] == nil {
				overhead[wl] = map[float64]float64{}
			}
			overhead[wl][goldenFloat(t, row, sc)] = goldenFloat(t, row, oc)
		}
		for wl, bySets := range overhead {
			at64, ok64 := bySets[64]
			at512, ok512 := bySets[512]
			if !ok64 || !ok512 {
				t.Fatalf("%s: missing 64/512-set rows (have %v)", wl, bySets)
			}
			if at512 > at64+5 {
				t.Errorf("%s: overhead grew from %.2f%% (64 sets) to %.2f%% (512 sets): mirroring loss is not being recovered",
					wl, at64, at512)
			}
		}
	})
}

// failNowIfMissing guards against silently-skipped qualitative checks in
// CI: the goldens the claims read must exist in non-race builds.
func TestGoldensPresent(t *testing.T) {
	if raceEnabled || *updateGolden {
		t.Skip()
	}
	for _, name := range []string{"fig14", "scaling"} {
		if _, err := os.Stat(goldenPath(name)); err != nil {
			t.Errorf("golden %s missing: %v", name, err)
		}
	}
}
