package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
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

// RunSafe executes one experiment on the caller's goroutine with panic
// recovery and a wall-clock timeout. A panic outside any cell becomes a
// *PanicError (with the seed and stack); the experiment's own deadline
// becomes a *TimeoutError, and a canceled parent ctx returns its error.
// Every simulation loop checks its context every ctxCheckStride
// references, so a timed-out run unwinds within milliseconds. On a failure
// the returned table is whatever the experiment returned: the rows of the
// cells that completed, so a long sweep never loses finished work. A
// timeout of zero disables the deadline.
func RunSafe(ctx context.Context, e Experiment, s Scale, timeout time.Duration) (tbl *stats.Table, err error) {
	runCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			tbl, err = nil, &PanicError{
				Experiment: e.Name, Seed: s.Seed,
				Value: r, Stack: string(debug.Stack()),
			}
		}
	}()
	var span telemetry.Span
	if s.Telemetry != nil {
		span = s.Telemetry.Span("experiment", e.Name)
	}
	tbl, err = e.Run(runCtx, s)
	if s.Telemetry != nil {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		span.End("outcome", outcome)
	}
	switch {
	case err == nil:
	case ctx.Err() != nil:
		err = ctx.Err()
	case runCtx.Err() != nil:
		err = &TimeoutError{Experiment: e.Name, Seed: s.Seed, Timeout: timeout}
	}
	return tbl, err
}
