package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mixtlb/internal/journal"
	"mixtlb/internal/simrand"
	"mixtlb/internal/stats"
	"mixtlb/internal/telemetry"
)

// This file is the parallel experiment engine. Every experiment decomposes
// its design x workload x environment grid into independent Cells — one
// simulation each, the repo's analogue of the paper's per-workload Pin
// traces — and RunGrid executes them on a bounded worker pool. Three
// properties make the parallelism invisible in the results:
//
//   - Seed splitting: each cell simulates under the deterministic seed
//     simrand.SplitSeed(Scale.Seed, experiment, cellName), a pure function
//     of the cell's identity. No cell observes scheduling order.
//   - Canonical merge: each cell's rows land in the cell's declaration
//     slot; the final table is the in-order concatenation, so tables are
//     byte-identical at any -jobs count.
//   - Per-cell harness semantics: a panic inside one cell becomes a
//     *CellError carrying the cell name and derived seed (wrapping a
//     *PanicError with the stack), and the rows of every completed cell
//     are still returned — RunSafe's partial-table guarantee holds at
//     cell, not experiment, granularity.

// Row is one unformatted table row produced by a cell; values are
// formatted by stats.Table.AddRow during the canonical merge.
type Row []interface{}

// Cell is one independent unit of an experiment's grid: one design x
// workload x environment simulation. Run must build all of its own state
// (environments, MMUs, streams) from the Scale it receives — its Seed is
// the cell's split seed — and must not touch anything shared.
type Cell struct {
	// Name identifies the cell within its experiment ("native/2MB/mcf").
	// It is hashed into the cell's seed, so renaming a cell changes its
	// random sequence.
	Name string
	Run  func(ctx context.Context, s Scale) ([]Row, error)
}

// CellError reports a failure inside one grid cell, carrying the cell's
// identity and derived seed so the failure line names exactly what to
// re-run.
type CellError struct {
	Experiment string
	Cell       string
	Seed       uint64 // the cell's derived seed (SplitSeed of the base)
	Err        error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("experiment %q cell %q failed (cell seed %d; reproduce with -exp %s -cell %q): %v",
		e.Experiment, e.Cell, e.Seed, e.Experiment, e.Cell, e.Err)
}

// Unwrap exposes the cause (a *PanicError for recovered panics).
func (e *CellError) Unwrap() error { return e.Err }

// CellSeed derives a cell's seed from the experiment's base seed and the
// cell's identity.
func CellSeed(base uint64, experiment, cell string) uint64 {
	return simrand.SplitSeed(base, experiment, cell)
}

// ProgressEvent is one live engine progress update, emitted after each
// cell finishes. It carries wall-clock and scheduling detail (worker,
// ETA) and therefore never feeds the metrics registry — only the
// Scale.ProgressFn callback and the trace stream.
type ProgressEvent struct {
	Experiment string
	Cell       string
	Worker     int // pool worker that ran the cell
	Done       int // cells finished so far (including failed)
	Total      int // cells selected to run
	Failed     bool
	Elapsed    time.Duration
	// ETA extrapolates the remaining wall time from the mean cell time so
	// far; zero until the first cell completes.
	ETA time.Duration
}

// RunGrid executes an experiment's cells on a bounded worker pool and
// returns each cell's rows in canonical (declaration) order. The pool size
// is Scale.Jobs (0 = GOMAXPROCS); idle workers steal the next unclaimed
// cell from a shared counter. Scale.Cell filters the grid to matching
// cells (substring match) for single-cell reproduction. The first real
// cell failure cancels the remaining cells and is returned (smallest cell
// index wins, so the reported error does not depend on scheduling). Only
// cells that succeeded (or replayed from the journal) have rows in the
// result, so on an error it holds exactly the completed work.
func RunGrid(ctx context.Context, s Scale, experiment string, cells []Cell) ([][]Row, error) {
	// work holds the original indices of the cells to run. Results stay
	// aligned to the full declared grid even under -cell filtering, so
	// experiments that post-process by position (Figure 9's per-row
	// reassembly, Figure 15's sort groups) index correctly; filtered-out
	// cells simply leave nil slots.
	work := make([]int, 0, len(cells))
	if s.Cell != "" {
		names := make([]string, 0, len(cells))
		for i, c := range cells {
			names = append(names, c.Name)
			if strings.Contains(c.Name, s.Cell) {
				work = append(work, i)
			}
		}
		if len(work) == 0 {
			return nil, fmt.Errorf("experiments: no cell of %q matches %q (cells: %s)",
				experiment, s.Cell, strings.Join(names, ", "))
		}
	} else {
		for i := range cells {
			work = append(work, i)
		}
	}
	gridCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	gridStart := time.Now()
	var (
		mu         sync.Mutex
		results    = make([][]Row, len(cells))
		errs       = make([]error, len(cells))
		done       = make([]bool, len(cells))
		completed  int   // cells finished (success or failure), for progress
		next       int64 = -1
		wg         sync.WaitGroup
		journalErr error // first checkpoint-append failure
	)

	// Replay: cells already checkpointed in the journal skip simulation
	// entirely; only the remainder is scheduled. Replayed rows land in
	// their canonical slots with their exact recorded values (and the
	// journal is fingerprint-pinned to this configuration), so the merged
	// table is byte-identical to an uninterrupted run. Each record's seed
	// must equal the seed this grid would derive — a renamed cell or
	// changed split function invalidates the record rather than replaying
	// rows that no longer correspond to the cell.
	replayed := 0
	if s.Journal != nil {
		remaining := work[:0]
		for _, i := range work {
			if rec, ok := s.Journal.Lookup(experiment, cells[i].Name); ok &&
				rec.Seed == CellSeed(s.Seed, experiment, cells[i].Name) {
				results[i] = rowsFromRecord(rec)
				done[i] = true
				replayed++
				continue
			}
			remaining = append(remaining, i)
		}
		work = remaining
		if replayed > 0 && s.Telemetry != nil {
			s.Telemetry.With("exp", experiment).
				Counter("engine_journal_replayed_total").Add(uint64(replayed))
		}
	}

	jobs := s.Jobs
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > len(work) {
		jobs = len(work)
	}
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			ran := 0 // cells this worker claimed (stealing visibility)
			for {
				wi := int(atomic.AddInt64(&next, 1))
				if wi >= len(work) {
					if s.Telemetry != nil && ran > 0 {
						s.Telemetry.WithTID(worker).Instant("engine", "worker_done", 0,
							"exp", experiment, "cells_run", strconv.Itoa(ran))
					}
					return
				}
				i := work[wi]
				if err := gridCtx.Err(); err != nil {
					mu.Lock()
					errs[i] = err
					mu.Unlock()
					continue // drain remaining indices without running them
				}
				ran++
				c := cells[i]
				cs := s
				cs.Seed = CellSeed(s.Seed, experiment, c.Name)
				cs.Bench = nil
				cs.Jobs, cs.Cell = 1, ""
				cs.ProgressFn, cs.Journal = nil, nil
				// Scope the cell's telemetry: metrics gain deterministic
				// exp/cell labels (so dumps merge identically at any -jobs
				// value); the trace tid records which worker ran it.
				cs.Telemetry = s.Telemetry.With("exp", experiment, "cell", c.Name).WithTID(worker)

				var span telemetry.Span
				if cs.Telemetry != nil {
					span = cs.Telemetry.Span("cell", experiment+"/"+c.Name)
				}
				start := time.Now()
				rows, err := runCell(gridCtx, experiment, c, cs)
				elapsed := time.Since(start)
				if cs.Telemetry != nil {
					outcome := "ok"
					if err != nil {
						outcome = "error"
					}
					span.End("outcome", outcome)
				}
				s.Bench.RecordCell(CellTime{
					Experiment: experiment, Cell: c.Name,
					Seed: cs.Seed, Seconds: elapsed.Seconds(),
				})

				// Checkpoint before progress is reported: once ProgressFn has
				// seen the cell complete, a kill must find its record durable.
				if err == nil {
					if jerr := s.Journal.Append(journal.Record{
						Experiment: experiment, Cell: c.Name,
						Seed: cs.Seed, Rows: recordRows(rows),
					}); jerr != nil {
						mu.Lock()
						if journalErr == nil {
							journalErr = jerr
						}
						mu.Unlock()
						cancel() // checkpointing broke: stop making unrecorded progress
					}
				}
				mu.Lock()
				errs[i] = err
				completed++
				if err != nil {
					cancel() // fail fast at cell granularity
				} else {
					results[i], done[i] = rows, true
				}
				if s.ProgressFn != nil {
					gridElapsed := time.Since(gridStart)
					var eta time.Duration
					if completed > 0 && completed < len(work) {
						eta = gridElapsed / time.Duration(completed) * time.Duration(len(work)-completed)
					}
					s.ProgressFn(ProgressEvent{
						Experiment: experiment, Cell: c.Name, Worker: worker,
						Done: completed, Total: len(work), Failed: err != nil,
						Elapsed: gridElapsed, ETA: eta,
					})
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if s.Telemetry != nil {
		ec := s.Telemetry.With("exp", experiment)
		ok, failed := 0, 0
		for _, i := range work {
			switch {
			case done[i]:
				ok++
			case errs[i] != nil:
				failed++
			}
		}
		ec.Counter("engine_cells_completed_total").Add(uint64(ok))
		if failed > 0 {
			ec.Counter("engine_cells_failed_total").Add(uint64(failed))
		}
	}

	// Prefer the lowest-indexed real failure over cancellation fallout from
	// cells the failure itself skipped; a checkpoint-append failure (which
	// itself cancels the grid) outranks that fallout too.
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		var ce *CellError
		if errors.As(err, &ce) {
			return results, err
		}
		if firstCancel == nil {
			firstCancel = err
		}
	}
	if journalErr != nil {
		return results, fmt.Errorf("experiments: checkpoint journal: %w", journalErr)
	}
	if firstCancel != nil {
		return results, firstCancel
	}
	return results, nil
}

// runCell executes one cell with panic recovery, wrapping any failure in a
// *CellError that names the cell and its derived seed.
func runCell(ctx context.Context, experiment string, c Cell, cs Scale) (rows []Row, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellError{
				Experiment: experiment, Cell: c.Name, Seed: cs.Seed,
				Err: &PanicError{
					Experiment: experiment + "/" + c.Name, Seed: cs.Seed,
					Value: r, Stack: string(debug.Stack()),
				},
			}
		}
	}()
	rows, err = c.Run(ctx, cs)
	if err != nil {
		err = &CellError{Experiment: experiment, Cell: c.Name, Seed: cs.Seed, Err: err}
	}
	return rows, err
}

// AppendRows adds every cell's rows to t in canonical order.
func AppendRows(t *stats.Table, results [][]Row) {
	for _, rows := range results {
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
}

// Flatten concatenates per-cell rows in canonical order.
func Flatten(results [][]Row) []Row {
	var out []Row
	for _, rows := range results {
		out = append(out, rows...)
	}
	return out
}

// CellTime is one cell's wall-clock measurement.
type CellTime struct {
	Experiment string  `json:"experiment"`
	Cell       string  `json:"cell"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// ExperimentTime is one experiment's end-to-end wall clock.
type ExperimentTime struct {
	Experiment string  `json:"experiment"`
	Seconds    float64 `json:"seconds"`
	Cells      int     `json:"cells"`
	Err        string  `json:"error,omitempty"`
}

// BenchLog accumulates per-cell and per-experiment wall-clock timings;
// the CLI serializes it as a BenchReport so speedups across -jobs
// settings are measurable. All methods are nil-safe and safe for
// concurrent use.
type BenchLog struct {
	mu    sync.Mutex
	jobs  int
	cells []CellTime
	exps  []ExperimentTime
	tel   *TelemetrySummary
}

// TelemetrySummary is the one-line overhead record benchtrend prints: how
// many trace events the run produced and how many the bounded buffer had
// to drop.
type TelemetrySummary struct {
	EventsTotal   uint64 `json:"events_total"`
	EventsDropped uint64 `json:"events_dropped"`
}

// SetTelemetry attaches the run's event totals to the report.
func (b *BenchLog) SetTelemetry(ts TelemetrySummary) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tel = &ts
	b.mu.Unlock()
}

// NewBenchLog returns a log annotated with the worker-pool size in use.
func NewBenchLog(jobs int) *BenchLog {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	return &BenchLog{jobs: jobs}
}

// RecordCell appends one cell timing.
func (b *BenchLog) RecordCell(ct CellTime) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.cells = append(b.cells, ct)
	b.mu.Unlock()
}

// RecordExperiment appends one experiment-level timing, counting the cells
// recorded for it so far.
func (b *BenchLog) RecordExperiment(name string, seconds float64, err error) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	for _, c := range b.cells {
		if c.Experiment == name {
			n++
		}
	}
	et := ExperimentTime{Experiment: name, Seconds: seconds, Cells: n}
	if err != nil {
		et.Err = err.Error()
	}
	b.exps = append(b.exps, et)
}

// BenchReport is the serialized shape of a -bench-out file: what
// BenchLog.JSON writes and cmd/benchtrend reads.
type BenchReport struct {
	Jobs             int               `json:"jobs"`
	GOMAXPROCS       int               `json:"gomaxprocs"`
	NumCPU           int               `json:"num_cpu"`
	TotalWallSeconds float64           `json:"total_wall_seconds"`
	Telemetry        *TelemetrySummary `json:"telemetry,omitempty"`
	Experiments      []ExperimentTime  `json:"experiments"`
	Cells            []CellTime        `json:"cells"`
}

// JSON renders the log. Cell order follows completion order (a timing
// artifact, deliberately not canonicalized — it shows the schedule).
func (b *BenchLog) JSON() ([]byte, error) {
	if b == nil {
		return []byte("{}"), nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var total float64
	for _, e := range b.exps {
		total += e.Seconds
	}
	rep := BenchReport{
		Jobs:             b.jobs,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		NumCPU:           runtime.NumCPU(),
		TotalWallSeconds: total,
		Telemetry:        b.tel,
		Experiments:      b.exps,
		Cells:            b.cells,
	}
	return json.MarshalIndent(rep, "", "  ")
}
