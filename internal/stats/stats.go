// Package stats provides the measurement plumbing for the simulator:
// histograms, the run-length / contiguity statistics that Figures 9-13 of
// the paper are built from, and the result tables experiments print.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram counts occurrences of integer-valued observations. It is used
// for run-length distributions where the domain is small and dense enough
// that exact counting beats bucketing.
type Histogram struct {
	counts map[uint64]uint64
	total  uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make(map[uint64]uint64)}
}

// Observe records one occurrence of v.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n occurrences of v.
func (h *Histogram) ObserveN(v, n uint64) {
	h.counts[v] += n
	h.total += n
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Each calls fn for every distinct observed value in ascending order with
// its occurrence count (exporters re-bucket exact counts this way).
func (h *Histogram) Each(fn func(v, n uint64)) {
	for _, v := range h.sortedValues() {
		fn(v, h.counts[v])
	}
}

func (h *Histogram) sortedValues() []uint64 {
	values := make([]uint64, 0, len(h.counts))
	for v := range h.counts {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	return values
}

// CDFPoint is one point of an empirical cumulative distribution.
type CDFPoint struct {
	Value uint64  // observation value (e.g. run length)
	Frac  float64 // fraction of observations <= Value
}

// CDF returns the empirical CDF of the histogram, one point per distinct
// value, in increasing value order. Figures 12-13 plot exactly this.
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	values := h.sortedValues()
	points := make([]CDFPoint, 0, len(values))
	var cum uint64
	for _, v := range values {
		cum += h.counts[v]
		points = append(points, CDFPoint{Value: v, Frac: float64(cum) / float64(h.total)})
	}
	return points
}

// RunLengths computes the paper's average-contiguity metric (Sec 7.1) from
// a histogram of run lengths, where Observe(L) is called once per run of
// length L. The metric weights each translation by the length of the run
// it belongs to: for runs (1, 1, 2) the average is (1 + 1 + 2×2)/4 = 1.5.
func (h *Histogram) AverageContiguity() float64 {
	var weighted float64
	var translations uint64
	// Accumulate in sorted-value order: float addition is not associative,
	// so map-iteration order would make the last bits of the result vary
	// run to run — enough to break the bit-for-bit table determinism the
	// parallel experiment engine guarantees.
	for _, l := range h.sortedValues() {
		runs := h.counts[l]
		weighted += float64(l) * float64(l) * float64(runs)
		translations += l * runs
	}
	if translations == 0 {
		return 0
	}
	return weighted / float64(translations)
}

// TranslationWeightedCDF returns the CDF over translations (not runs):
// each run of length L contributes L observations of value L. This is the
// distribution the paper's contiguity CDFs (Figures 12-13) describe —
// "what fraction of superpage translations sit in runs of length <= x".
func (h *Histogram) TranslationWeightedCDF() []CDFPoint {
	w := NewHistogram()
	for l, runs := range h.counts {
		w.ObserveN(l, l*runs)
	}
	return w.CDF()
}

// Table is a simple printable result table used by the experiment harness.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row; values are rendered with %v, floats with
// two decimals.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (header + rows).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
