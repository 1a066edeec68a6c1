package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.CDF() != nil {
		t.Errorf("empty histogram: Count = %d, CDF = %v", h.Count(), h.CDF())
	}
	h.ObserveN(4, 3)
	h.Observe(1)
	h.Observe(1)
	if h.Count() != 5 {
		t.Errorf("Count = %d", h.Count())
	}
	var got [][2]uint64
	h.Each(func(v, n uint64) { got = append(got, [2]uint64{v, n}) })
	if want := [][2]uint64{{1, 2}, {4, 3}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Each = %v, want %v in ascending value order", got, want)
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(uint64(v) % 32)
		}
		cdf := h.CDF()
		prevV, prevF := uint64(0), 0.0
		for i, p := range cdf {
			if i > 0 && (p.Value <= prevV || p.Frac < prevF) {
				return false
			}
			prevV, prevF = p.Value, p.Frac
		}
		return len(cdf) == 0 || math.Abs(cdf[len(cdf)-1].Frac-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAverageContiguityPaperExample(t *testing.T) {
	// Sec 7.1: runs (1, 1, 2) over 4 translations → (1+1+2×2)/4 = 1.5.
	h := NewHistogram()
	h.Observe(1)
	h.Observe(1)
	h.Observe(2)
	if got := h.AverageContiguity(); got != 1.5 {
		t.Errorf("AverageContiguity = %v, want 1.5", got)
	}
}

func TestAverageContiguityAllSingletons(t *testing.T) {
	h := NewHistogram()
	h.ObserveN(1, 100)
	if got := h.AverageContiguity(); got != 1 {
		t.Errorf("AverageContiguity = %v, want 1", got)
	}
}

func TestAverageContiguityEmpty(t *testing.T) {
	if got := NewHistogram().AverageContiguity(); got != 0 {
		t.Errorf("empty AverageContiguity = %v", got)
	}
}

func TestTranslationWeightedCDF(t *testing.T) {
	h := NewHistogram()
	h.Observe(1) // 1 translation in a run of 1
	h.Observe(3) // 3 translations in a run of 3
	cdf := h.TranslationWeightedCDF()
	if len(cdf) != 2 {
		t.Fatalf("cdf has %d points", len(cdf))
	}
	if cdf[0].Value != 1 || math.Abs(cdf[0].Frac-0.25) > 1e-12 {
		t.Errorf("point 0 = %+v, want {1 0.25}", cdf[0])
	}
	if cdf[1].Value != 3 || math.Abs(cdf[1].Frac-1) > 1e-12 {
		t.Errorf("point 1 = %+v", cdf[1])
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"name", "value"}}
	tb.AddRow("alpha", 1.234)
	tb.AddRow("b", 42)
	s := tb.String()
	for _, want := range []string{"demo", "alpha", "1.23", "42", "name", "value"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "name,value\n") {
		t.Errorf("csv header wrong: %q", csv)
	}
	if !strings.Contains(csv, "alpha,1.23") {
		t.Errorf("csv missing row: %q", csv)
	}
}
