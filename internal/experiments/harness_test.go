package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"mixtlb/internal/chaos"
	"mixtlb/internal/stats"
)

func chaosTestScale() Scale {
	s := QuickScale()
	s.MemoryBytes = 1 << 30
	s.FootprintBytes = 128 << 20
	s.WarmupRefs = 8_000
	s.MeasureRefs = 20_000
	return s
}

func TestRunSafeRecoversPanic(t *testing.T) {
	e := Experiment{
		Name: "boom",
		Run: func(ctx context.Context, s Scale) (*stats.Table, error) {
			panic("kaboom")
		},
	}
	s := chaosTestScale()
	s.Seed = 1234
	_, err := RunSafe(context.Background(), e, s, time.Minute)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Seed != 1234 || pe.Experiment != "boom" {
		t.Errorf("panic diagnostics = %+v", pe)
	}
	if !strings.Contains(pe.Error(), "seed 1234") {
		t.Errorf("error text lacks reproducing seed: %v", pe)
	}
	if pe.Stack == "" {
		t.Error("no stack captured")
	}
}

// slowExperiment returns one finished row and then waits for its context
// to end, as an experiment whose remaining cells outlast the deadline does.
var slowExperiment = Experiment{
	Name: "slow",
	Run: func(ctx context.Context, s Scale) (*stats.Table, error) {
		tbl := &stats.Table{Columns: []string{"a"}}
		tbl.AddRow("done-before-deadline")
		<-ctx.Done()
		return tbl, ctx.Err()
	},
}

func TestRunSafeTimeout(t *testing.T) {
	start := time.Now()
	partial, err := RunSafe(context.Background(), slowExperiment, chaosTestScale(), 50*time.Millisecond)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("RunSafe returned %v after a 50ms deadline", elapsed)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if partial == nil || len(partial.Rows) != 1 {
		t.Errorf("partial results lost on timeout: %+v", partial)
	}
}

// TestRunSafeParentDeadlineIsNotTimeout checks that only RunSafe's own
// deadline becomes a *TimeoutError: a parent context that ends first
// returns its own error, with the partial table.
func TestRunSafeParentDeadlineIsNotTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	partial, err := RunSafe(ctx, slowExperiment, chaosTestScale(), time.Minute)
	var te *TimeoutError
	if errors.As(err, &te) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the parent's context.DeadlineExceeded", err)
	}
	if partial == nil || len(partial.Rows) != 1 {
		t.Errorf("partial results lost on cancellation: %+v", partial)
	}
}

func TestRunSafePassesThroughSuccess(t *testing.T) {
	e := Experiment{
		Name: "ok",
		Run: func(ctx context.Context, s Scale) (*stats.Table, error) {
			tbl := &stats.Table{Columns: []string{"a"}}
			tbl.AddRow("v")
			return tbl, nil
		},
	}
	tbl, err := RunSafe(context.Background(), e, chaosTestScale(), 0) // zero timeout = no deadline
	if err != nil || tbl == nil || len(tbl.Rows) != 1 {
		t.Fatalf("tbl=%+v err=%v", tbl, err)
	}
}

// column returns the named column's value in a row, as an integer.
func column(t *testing.T, tbl *stats.Table, row []string, name string) uint64 {
	t.Helper()
	for i, c := range tbl.Columns {
		if c == name {
			v, err := strconv.ParseUint(row[i], 10, 64)
			if err != nil {
				t.Fatalf("column %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("no column %s", name)
	return 0
}

// TestChaosStudyZeroRates is the fault-rate-zero acceptance check: the
// full sweep with an all-zero rate config must record zero injected
// faults, zero oracle catches, zero of everything.
func TestChaosStudyZeroRates(t *testing.T) {
	s := chaosTestScale()
	s.Chaos = chaos.Rates{}
	tbl, err := ChaosStudy(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no designs swept")
	}
	for _, row := range tbl.Rows {
		for _, col := range []string{"tlb-corrupt", "parity-detected", "silent",
			"pte-corrupt", "oracle-catches", "unrecovered", "ipi-lost", "alloc-fails"} {
			if v := column(t, tbl, row, col); v != 0 {
				t.Errorf("%s: %s = %d at zero rates", row[0], col, v)
			}
		}
	}
}

// TestChaosStudyRecoversEverything runs the default aggressive rates: the
// stack must detect or recover every injected corruption — the
// unrecovered column is zero for every design while the fault columns
// prove injection actually happened.
func TestChaosStudyRecoversEverything(t *testing.T) {
	s := chaosTestScale()
	s.Chaos = chaos.DefaultRates()
	tbl, err := ChaosStudy(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	var corruptions, catches, lost uint64
	for _, row := range tbl.Rows {
		if v := column(t, tbl, row, "unrecovered"); v != 0 {
			t.Errorf("%s: %d silent wrong translations reached the workload", row[0], v)
		}
		corruptions += column(t, tbl, row, "tlb-corrupt")
		catches += column(t, tbl, row, "oracle-catches")
		lost += column(t, tbl, row, "ipi-lost")
	}
	if corruptions == 0 {
		t.Error("no TLB corruptions injected at default rates")
	}
	if catches == 0 {
		t.Error("oracle never caught a silent corruption")
	}
	if lost == 0 {
		t.Error("no IPIs lost at default rates")
	}
}
