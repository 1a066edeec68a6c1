// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (one Benchmark per figure, plus the
// ablation benches DESIGN.md calls out). Each layer's micro-benchmarks live
// in its own package: MIX fills in internal/core, whole-MMU translation in
// internal/mmu, page walks in internal/pagetable. Run with:
//
//	go test -bench=. -benchmem
//
// Figure benches execute the corresponding experiment at the quick scale
// and report headline metrics via b.ReportMetric (improvement percentages,
// miss ratios), so shape regressions show up in benchmark diffs. The full
// tables come from `go run ./cmd/mixtlb -exp <name>`.
package bench

import (
	"context"
	"strconv"
	"testing"

	"mixtlb/internal/experiments"
	"mixtlb/internal/stats"
)

// runExperiment executes a registered experiment b.N times, returning the
// last table for metric extraction.
func runExperiment(b *testing.B, name string) *stats.Table {
	b.Helper()
	e, err := experiments.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	var tbl *stats.Table
	for i := 0; i < b.N; i++ {
		tbl, err = e.Run(context.Background(), experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// avgColumn averages a numeric column over rows passing the filter.
func avgColumn(b *testing.B, tbl *stats.Table, col int, filter func([]string) bool) float64 {
	b.Helper()
	sum, n := 0.0, 0
	for _, row := range tbl.Rows {
		if filter != nil && !filter(row) {
			continue
		}
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			b.Fatalf("parsing %q: %v", row[col], err)
		}
		sum += v
		n++
	}
	if n == 0 {
		b.Fatal("no rows matched")
	}
	return sum / float64(n)
}

func BenchmarkFigure1(b *testing.B) {
	tbl := runExperiment(b, "fig1")
	b.ReportMetric(avgColumn(b, tbl, 2, nil), "split-%runtime")
	b.ReportMetric(avgColumn(b, tbl, 3, nil), "ideal-%runtime")
}

func BenchmarkFigure9(b *testing.B) {
	tbl := runExperiment(b, "fig9")
	b.ReportMetric(avgColumn(b, tbl, 1, func(r []string) bool { return r[0] == "0" }), "superfrac-memhog0")
	b.ReportMetric(avgColumn(b, tbl, 1, func(r []string) bool { return r[0] == "80" }), "superfrac-memhog80")
}

func BenchmarkFigure10(b *testing.B) {
	tbl := runExperiment(b, "fig10")
	b.ReportMetric(avgColumn(b, tbl, 2, nil), "avg-superpage-fraction")
}

func BenchmarkFigure11(b *testing.B) {
	tbl := runExperiment(b, "fig11")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[1] == "20" }), "contig2MB-memhog20")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[1] == "60" }), "contig2MB-memhog60")
}

func BenchmarkFigure12(b *testing.B) {
	tbl := runExperiment(b, "fig12")
	b.ReportMetric(float64(len(tbl.Rows)), "cdf-points")
}

func BenchmarkFigure13(b *testing.B) {
	tbl := runExperiment(b, "fig13")
	b.ReportMetric(float64(len(tbl.Rows)), "cdf-points")
}

func BenchmarkFigure14(b *testing.B) {
	tbl := runExperiment(b, "fig14")
	b.ReportMetric(avgColumn(b, tbl, 3, nil), "avg-improvement-%")
	b.ReportMetric(avgColumn(b, tbl, 3, func(r []string) bool { return r[0] == "virtual" }), "virt-improvement-%")
}

func BenchmarkFigure15Left(b *testing.B) {
	tbl := runExperiment(b, "fig15l")
	b.ReportMetric(avgColumn(b, tbl, 3, func(r []string) bool { return r[0] == "cpu" }), "cpu-improvement-%")
}

func BenchmarkFigure15Right(b *testing.B) {
	tbl := runExperiment(b, "fig15r")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[0] == "split" }), "split-overhead-%")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[0] == "mix" }), "mix-overhead-%")
}

func BenchmarkFigure16(b *testing.B) {
	tbl := runExperiment(b, "fig16")
	b.ReportMetric(avgColumn(b, tbl, 3, func(r []string) bool { return r[0] == "mix" }), "mix-perf-%")
	b.ReportMetric(avgColumn(b, tbl, 4, func(r []string) bool { return r[0] == "mix" }), "mix-energy-%")
}

func BenchmarkFigure17(b *testing.B) {
	tbl := runExperiment(b, "fig17")
	b.ReportMetric(avgColumn(b, tbl, 6, func(r []string) bool { return r[0] == "mix" }), "mix-energy-vs-split")
}

func BenchmarkFigure18(b *testing.B) {
	tbl := runExperiment(b, "fig18")
	b.ReportMetric(avgColumn(b, tbl, 4, nil), "mix-improvement-%")
	b.ReportMetric(avgColumn(b, tbl, 5, nil), "mixcolt-improvement-%")
}

func BenchmarkAblationIndexBits(b *testing.B) {
	tbl := runExperiment(b, "ablation-index")
	b.ReportMetric(avgColumn(b, tbl, 3, nil), "miss-inflation-x")
}

func BenchmarkScaling(b *testing.B) {
	tbl := runExperiment(b, "scaling")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[1] == "512" }), "512set-overhead-%")
}

// BenchmarkDedupPolicy compares blind mirroring (the paper's Fig 8
// behaviour) with the default write-time merge.
func BenchmarkDedupPolicy(b *testing.B) {
	tbl := runExperiment(b, "duplicates")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[0] == "blind-mirrors" }), "blind-missratio")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[0] == "merge-on-fill" }), "merge-missratio")
}

// BenchmarkCoalesceCap sweeps the bundle capacity K.
func BenchmarkCoalesceCap(b *testing.B) {
	var tbl *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.CoalesceCapStudy(context.Background(), experiments.QuickScale(), []int{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[1] == "1" }), "K1-missratio")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[1] == "16" }), "K16-missratio")
}

// BenchmarkBundleEncoding compares the bitmap and range encodings under
// ordered and popularity-ordered miss arrival.
func BenchmarkBundleEncoding(b *testing.B) {
	var tbl *stats.Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = experiments.EncodingStudy(context.Background(), experiments.QuickScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[0] == "popularity" && r[1] == "bitmap" }), "pop-bitmap-missratio")
	b.ReportMetric(avgColumn(b, tbl, 2, func(r []string) bool { return r[0] == "popularity" && r[1] == "range" }), "pop-range-missratio")
}

// BenchmarkInvalidation reports the Sec 4.4 shootdown refill traffic for
// each design (bitmap vs range vs split).
func BenchmarkInvalidation(b *testing.B) {
	tbl := runExperiment(b, "invalidation")
	b.ReportMetric(avgColumn(b, tbl, 1, func(r []string) bool { return r[0] == "mix-bitmap" }), "bitmap-walks/1k")
	b.ReportMetric(avgColumn(b, tbl, 1, func(r []string) bool { return r[0] == "mix-range" }), "range-walks/1k")
}
