// Command benchtrend is the one reader of mixtlb -bench-out files
// (experiments.BenchReport, archived under bench_history/). It diffs two
// of them, trends a history of them and gates on the result.
//
//	benchtrend [-max-regression 25] OLD.json NEW.json
//	benchtrend [-max-regression 25] bench_history/
//
// The unit of comparison is the cell (experiment, cell). A snapshot's
// value for a cell is the sum of its entries (the engine records one per
// attempt), and a cell's baseline is the geomean of that value over every
// snapshot before the newest; with two files that is just the old one.
// Cells with zero seconds are joined but not counted.
//
// It prints one row per experiment of the newest snapshot (cells joined,
// geomean time ratio newest/baseline, status ok, REGRESSION, new or
// error), then each regressed cell, the newest snapshot's total wall time,
// jobs and telemetry totals, how many cells appear on one side only, and
// the overall geomean speedup (baseline/newest).
//
// A directory operand expands to its *.json files sorted by name, so
// lexically ordered snapshot names read oldest-to-newest. Snapshots
// recorded at different -jobs settings are still compared; the jobs
// figure shows when a shift in timing is a pool-size change rather than
// a code change.
//
// Exit codes: 0 no regression (or fewer than two snapshots); 1 a counted
// cell is more than -max-regression percent slower than its baseline,
// the overall geomean speedup is below 0.85, or an experiment that has a
// baseline failed in the newest snapshot; 2 usage, an unreadable or
// malformed snapshot, or no joined cells.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"

	"mixtlb/internal/experiments"
)

// geomeanFloor is the lowest overall geomean speedup that passes. Per-cell
// limits are loose backstops against scheduler noise; this is the gate.
const geomeanFloor = 0.85

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type cellKey struct{ experiment, cell string }

// cellSeconds sums a snapshot's entries per cell.
func cellSeconds(r experiments.BenchReport) map[cellKey]float64 {
	m := make(map[cellKey]float64, len(r.Cells))
	for _, c := range r.Cells {
		m[cellKey{c.Experiment, c.Cell}] += c.Seconds
	}
	return m
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtrend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxRegression := fs.Float64("max-regression", 25,
		"fail when a cell's newest wall time is this percent slower than its baseline")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths, err := expand(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "benchtrend:", err)
		return 2
	}
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "usage: benchtrend [-max-regression PCT] <OLD.json NEW.json ... | history-dir>")
		return 2
	}

	snaps := make([]experiments.BenchReport, 0, len(paths))
	for _, p := range paths {
		s, err := load(p)
		if err != nil {
			fmt.Fprintln(stderr, "benchtrend:", err)
			return 2
		}
		snaps = append(snaps, s)
	}
	if len(snaps) < 2 {
		fmt.Fprintf(stdout, "benchtrend: %d snapshot(s) — need at least 2 for a trend; nothing to compare\n", len(snaps))
		return 0
	}
	latest, latestName := snaps[len(snaps)-1], filepath.Base(paths[len(paths)-1])
	history := snaps[:len(snaps)-1]

	// meanLog[k] = mean log of the cell's positive values over history,
	// so its baseline is the geomean exp(meanLog[k]); ratios stay in log
	// space, so a file compared with itself reads exactly 1. seen holds
	// every cell history recorded, zero-second ones included.
	meanLog := map[cellKey]float64{}
	runs := map[cellKey]int{}
	seen := map[cellKey]bool{}
	ranOK := map[string]bool{}
	for _, s := range history {
		for _, e := range s.Experiments {
			if e.Err == "" {
				ranOK[e.Experiment] = true
			}
		}
		for k, sec := range cellSeconds(s) {
			seen[k] = true
			if sec > 0 {
				meanLog[k] += math.Log(sec)
				runs[k]++
			}
		}
	}
	for k, sum := range meanLog {
		meanLog[k] = sum / float64(runs[k])
	}

	type expRow struct {
		joined, counted int
		logRatio        float64
		regressed       bool
	}
	rows := map[string]expRow{}
	failed := map[string]string{}
	for _, e := range latest.Experiments {
		rows[e.Experiment] = expRow{}
		failed[e.Experiment] = e.Err
	}
	newest := cellSeconds(latest)
	keys := make([]cellKey, 0, len(newest))
	for k := range newest {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.experiment < b.experiment || a.experiment == b.experiment && a.cell < b.cell
	})
	limit := 1 + *maxRegression/100
	var regressedCells []string
	onlyNewest := 0
	for _, k := range keys {
		if !seen[k] {
			onlyNewest++
			continue
		}
		row := rows[k.experiment]
		row.joined++
		if mean, ok := meanLog[k]; ok && newest[k] > 0 {
			logRatio := math.Log(newest[k]) - mean
			row.counted++
			row.logRatio += logRatio
			if ratio := math.Exp(logRatio); ratio > limit {
				row.regressed = true
				regressedCells = append(regressedCells, fmt.Sprintf("%s %s: %.3fs -> %.3fs (%.2fx)",
					k.experiment, k.cell, math.Exp(mean), newest[k], ratio))
			}
		}
		rows[k.experiment] = row
	}

	fmt.Fprintf(stdout, "history: %d snapshots, newest %s: %.2fs total wall (jobs %d)\n",
		len(snaps), latestName, latest.TotalWallSeconds, latest.Jobs)
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tcells\tratio\tstatus")
	var failures []string
	joined, counted, logRatio := 0, 0, 0.0
	for _, name := range names {
		row := rows[name]
		joined += row.joined
		counted += row.counted
		logRatio += row.logRatio
		ratio, status := "-", "ok"
		if row.counted > 0 {
			ratio = fmt.Sprintf("%.2fx", math.Exp(row.logRatio/float64(row.counted)))
		}
		switch {
		case failed[name] != "":
			status = "error"
			if ranOK[name] {
				failures = append(failures, fmt.Sprintf("%s failed: %s", name, failed[name]))
			}
		case row.counted == 0:
			status = "new"
		case row.regressed:
			status = "REGRESSION"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", name, row.joined, ratio, status)
	}
	tw.Flush()

	for _, c := range regressedCells {
		fmt.Fprintln(stdout, "regressed:", c)
	}
	if t := latest.Telemetry; t != nil {
		fmt.Fprintf(stdout, "telemetry %s: %d events, %d dropped\n", latestName, t.EventsTotal, t.EventsDropped)
	}
	if onlyHistory := len(seen) - joined; onlyHistory > 0 || onlyNewest > 0 {
		fmt.Fprintf(stdout, "cells on one side only: %d in history, %d in newest\n", onlyHistory, onlyNewest)
	}
	if uncounted := joined - counted; uncounted > 0 {
		fmt.Fprintf(stdout, "%d joined cell(s) with zero seconds not counted\n", uncounted)
	}
	if counted > 0 {
		speedup := math.Exp(-logRatio / float64(counted))
		fmt.Fprintf(stdout, "geomean speedup vs history over %d cells: %.2fx (floor %.2fx)\n",
			counted, speedup, geomeanFloor)
		if speedup < geomeanFloor {
			failures = append(failures, fmt.Sprintf("geomean speedup %.2fx is below the %.2fx floor", speedup, geomeanFloor))
		}
	}
	if len(regressedCells) > 0 {
		failures = append(failures, fmt.Sprintf("%d cell(s) more than %.0f%% slower than their baseline",
			len(regressedCells), *maxRegression))
	}
	for _, f := range failures {
		fmt.Fprintln(stdout, "REGRESSION:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	if joined == 0 {
		fmt.Fprintln(stderr, "benchtrend: no cells in common between the newest snapshot and its history")
		return 2
	}
	return 0
}

// expand turns operands into an ordered snapshot path list: files stay in
// argument order; a directory contributes its *.json entries sorted by
// name.
func expand(operands []string) ([]string, error) {
	var out []string
	for _, op := range operands {
		info, err := os.Stat(op)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, op)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(op, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	return out, nil
}

func load(path string) (experiments.BenchReport, error) {
	var r experiments.BenchReport
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %v", path, err)
	}
	if len(r.Experiments) == 0 {
		return r, fmt.Errorf("%s: no experiment timings (is this a -bench-out file?)", path)
	}
	return r, nil
}
