package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"mixtlb/internal/telemetry"
)

// runCSVScaled runs one experiment at QuickScale after applying mutate,
// rendering its table like runExperimentCSV.
func runCSVScaled(t *testing.T, name string, mutate func(*Scale)) string {
	t.Helper()
	e, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s := QuickScale()
	s.Jobs = 2
	if mutate != nil {
		mutate(&s)
	}
	tbl, err := e.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	return "# " + tbl.Title + "\n" + tbl.CSV()
}

// TestLedgerObserverTableInvariance is the end-to-end half of the
// observer contract: running experiments with the audit ledger and tail
// recorder armed must produce byte-identical tables to running without —
// while the audit itself (which fails cells on any conservation leak)
// passes over every design the experiments drive, victim levels
// included.
func TestLedgerObserverTableInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment comparison is not short")
	}
	for _, name := range []string{"hierarchy", "reach"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			off := runCSVScaled(t, name, nil)
			on := runCSVScaled(t, name, func(s *Scale) {
				s.LedgerAudit = true
				s.TailK = 8
			})
			if on != off {
				t.Errorf("ledger-on table differs from ledger-off:\n--- on ---\n%s\n--- off ---\n%s", on, off)
			}
		})
	}
}

// TestBreakdownSharesSumTo100 sanity-checks the stacked table: each
// row's share columns must sum to ~100% (they are percentages of the
// same attributed total, which the in-cell audit pins to Stats.Cycles).
func TestBreakdownSharesSumTo100(t *testing.T) {
	csv := runCSVScaled(t, "breakdown", func(s *Scale) {
		s.Workloads = []string{"gups"}
	})
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 3 {
		t.Fatalf("breakdown produced no rows:\n%s", csv)
	}
	header := strings.Split(lines[1], ",")
	for _, ln := range lines[2:] {
		fields := strings.Split(ln, ",")
		var sum float64
		for i, h := range header {
			if strings.HasSuffix(h, "%") {
				sum += goldenFloatStr(t, fields[i])
			}
		}
		if sum < 99.5 || sum > 100.5 {
			t.Errorf("row %q shares sum to %.2f, want ~100", ln, sum)
		}
	}
}

func goldenFloatStr(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("non-numeric share %q: %v", s, err)
	}
	return v
}

// TestTailEventsExported drives one experiment with telemetry and TailK
// armed, writes the tracer through the JSONL export and checks the "tail"
// lines there: per design, ranks 0..K-1 in order with non-increasing
// simulated cycles, each carrying the narration args.
func TestTailEventsExported(t *testing.T) {
	e, err := ByName("hierarchy")
	if err != nil {
		t.Fatal(err)
	}
	// At quick scale each design's 16 slowest translations span several
	// costs, so the order check below has something to check.
	const k = 16
	tracer := telemetry.NewTracer(0)
	s := QuickScale()
	s.Workloads = []string{"gups"}
	s.Jobs = 1
	s.TailK = k
	s.Telemetry = telemetry.NewCollector(telemetry.NewRegistry(), tracer)
	if _, err := e.Run(context.Background(), s); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	type tailLine struct {
		SimCycles uint64            `json:"sim_cycles"`
		Args      map[string]string `json:"args"`
	}
	byDesign := map[string][]tailLine{}
	var designs []string
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !strings.Contains(ln, `"cat":"tail"`) {
			continue
		}
		var r tailLine
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("tail line %q: %v", ln, err)
		}
		for _, key := range []string{"design", "va", "size", "served", "trail", "rank"} {
			if _, ok := r.Args[key]; !ok {
				t.Errorf("tail record lacks %q: %s", key, ln)
			}
		}
		d := r.Args["design"]
		if byDesign[d] == nil {
			designs = append(designs, d)
		}
		byDesign[d] = append(byDesign[d], r)
	}
	if len(designs) == 0 {
		t.Fatal("no tail events exported")
	}
	spread := false
	for _, d := range designs {
		recs := byDesign[d]
		if len(recs) != k {
			t.Errorf("%s: %d tail records, want %d", d, len(recs), k)
		}
		for i, r := range recs {
			if r.Args["rank"] != strconv.Itoa(i) {
				t.Errorf("%s: record %d has rank %q", d, i, r.Args["rank"])
			}
			if r.SimCycles == 0 {
				t.Errorf("%s: rank %d has zero cycles", d, i)
			}
			if i > 0 && r.SimCycles > recs[i-1].SimCycles {
				t.Errorf("%s: rank %d costs %d cycles, more than rank %d's %d",
					d, i, r.SimCycles, i-1, recs[i-1].SimCycles)
			}
		}
		spread = spread || recs[0].SimCycles != recs[len(recs)-1].SimCycles
	}
	if !spread {
		t.Error("every design's tail records cost the same; the rank order went unchecked")
	}
}
