package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"mixtlb/internal/stats"
	"mixtlb/internal/telemetry"
)

// PanicError is a panic recovered from an experiment run, carrying the
// reproducing seed so the failure can be replayed deterministically.
type PanicError struct {
	Experiment string
	Seed       uint64
	Value      interface{}
	Stack      string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("experiment %q panicked (reproduce with seed %d): %v",
		e.Experiment, e.Seed, e.Value)
}

// TimeoutError reports an experiment exceeding its wall-clock budget.
type TimeoutError struct {
	Experiment string
	Seed       uint64
	Timeout    time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("experiment %q exceeded %v (reproduce with seed %d)",
		e.Experiment, e.Timeout, e.Seed)
}

// TablePublisher collects partial results from a running experiment so the
// harness can report whatever completed when the run times out or dies.
// All methods are safe for concurrent use and safe on a nil receiver (an
// experiment run without a harness simply publishes into the void).
type TablePublisher struct {
	mu   sync.Mutex
	snap *stats.Table
}

// Publish stores a snapshot of the table's current rows.
func (p *TablePublisher) Publish(t *stats.Table) {
	if p == nil || t == nil {
		return
	}
	cp := &stats.Table{Title: t.Title, Columns: append([]string(nil), t.Columns...)}
	for _, row := range t.Rows {
		cp.Rows = append(cp.Rows, append([]string(nil), row...))
	}
	p.mu.Lock()
	p.snap = cp
	p.mu.Unlock()
}

// Snapshot returns the most recent published table, or nil.
func (p *TablePublisher) Snapshot() *stats.Table {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap
}

// RunSafe executes one experiment with panic recovery and a wall-clock
// timeout. Panics become *PanicError (with the seed and stack); a timeout
// returns *TimeoutError. In both failure cases the partial table — rows
// the experiment published before dying — is returned alongside the
// error, so a long sweep never loses completed work. A timeout of zero
// disables the deadline. On timeout or ctx cancellation the experiment's
// context is canceled, so its workers stop at their next stream
// checkpoint instead of simulating on into the void.
func RunSafe(ctx context.Context, e Experiment, s Scale, timeout time.Duration) (*stats.Table, error) {
	pub := &TablePublisher{}
	s.Progress = pub

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type outcome struct {
		tbl *stats.Table
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- outcome{err: &PanicError{
					Experiment: e.Name, Seed: s.Seed,
					Value: r, Stack: string(debug.Stack()),
				}}
			}
		}()
		var span telemetry.Span
		if s.Telemetry != nil {
			span = s.Telemetry.Span("experiment", e.Name)
		}
		tbl, err := e.Run(runCtx, s)
		if s.Telemetry != nil {
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			span.End("outcome", outcome)
		}
		done <- outcome{tbl: tbl, err: err}
	}()

	// drain cancels the run and waits (briefly) for the experiment
	// goroutine to unwind before RunSafe returns. The wait is what flushes
	// the partial run's observability: the engine's end-of-grid counters,
	// per-cell BenchLog timings, and journal appends for cells that beat
	// the deadline all happen on that goroutine's way out — returning
	// immediately used to drop them whenever a deadline fired mid-grid.
	drain := func() {
		cancel() // workers exit at their next checkpoint
		select {
		case <-done:
		case <-time.After(runSafeFlushGrace):
			// A cell is ignoring cancellation; give up on its events rather
			// than hanging the harness on a stuck simulation.
		}
	}
	var deadline <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case out := <-done:
		if out.err != nil {
			return pub.Snapshot(), out.err
		}
		return out.tbl, nil
	case <-deadline:
		drain()
		return pub.Snapshot(), &TimeoutError{Experiment: e.Name, Seed: s.Seed, Timeout: timeout}
	case <-ctx.Done():
		drain()
		return pub.Snapshot(), ctx.Err()
	}
}

// runSafeFlushGrace bounds how long RunSafe waits after cancellation for
// the experiment goroutine to unwind and flush its telemetry/bench/journal
// state. A package variable so tests can shrink it.
var runSafeFlushGrace = 5 * time.Second
