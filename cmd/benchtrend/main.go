// Command benchtrend is the one reader of mixtlb -bench-out files
// (experiments.BenchReport, archived under bench_history/). It compares
// the runs of a baseline with the runs of a change and gates on the
// result.
//
//	benchtrend BASE NEW
//
// Each operand is a -bench-out file or a directory of them, read in name
// order; run i of BASE pairs with run i of NEW. A history is just a BASE
// directory. The unit of comparison is the cell (experiment, cell). A
// run's value for a cell is the sum of its entries (the engine records
// one per attempt); cells with zero seconds are joined but not counted.
//
// Host time is noisy: one cell of one unchanged command can spread 1.5x
// across runs on a shared host, so no single pair of runs can gate a
// cell. A counted cell is a REGRESSION only when both hold:
//   - NEW's median is slower than BASE's by more than BASE's
//     interquartile range;
//   - NEW is slower in at least 9 of every 10 pairs.
//
// That needs at least minPairs pairs: equal run counts on both sides, and
// the cell timed in every run. A cell with fewer is unpaired and is not
// gated on its own. Every counted cell, paired or not, enters the overall
// geomean speedup (BASE median / NEW median), which must stay at or above
// geomeanFloor.
//
// It prints one row per experiment of NEW (cells joined, geomean median
// ratio NEW/BASE, status ok, REGRESSION, unpaired, new or error), then
// each regressed cell, the newest NEW run's total wall time, jobs and
// telemetry totals, how many cells appear on one side only or are
// unpaired, and the overall geomean speedup. Runs recorded at different
// -jobs settings are still compared; the jobs figure shows when a shift in
// timing is a pool-size change rather than a code change.
//
// Exit codes: 0 no regression; 1 a regressed cell, a geomean speedup
// below the floor, or an experiment that ran in BASE failed in NEW; 2
// usage (anything but two operands, or any flag), an unreadable or
// malformed snapshot, an empty directory, or no joined cells.
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

const (
	// geomeanFloor is the lowest overall geomean speedup that passes.
	geomeanFloor = 0.85
	// minPairs is the fewest pairs the per-cell rule gates on; a
	// regressed cell is slower in at least slowerTenths/10 of its pairs.
	minPairs     = 10
	slowerTenths = 9
)

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

// side is one operand's runs, each reduced to its per-cell seconds.
type side struct {
	runs []map[cellKey]float64
	seen map[cellKey]bool
}

func newSide(snaps []experiments.BenchReport) side {
	s := side{seen: map[cellKey]bool{}}
	for _, snap := range snaps {
		secs := cellSeconds(snap)
		for k := range secs {
			s.seen[k] = true
		}
		s.runs = append(s.runs, secs)
	}
	return s
}

// samples returns the cell's positive seconds in run order, and whether
// every run timed it.
func (s side) samples(k cellKey) (v []float64, everyRun bool) {
	for _, run := range s.runs {
		if sec := run[k]; sec > 0 {
			v = append(v, sec)
		}
	}
	return v, len(v) == len(s.runs)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks.
func quantile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtrend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchtrend BASE NEW (each a -bench-out file or a directory of them)")
		return 2
	}
	var sides [2][]experiments.BenchReport
	var newestName string
	for i, op := range fs.Args() {
		paths, err := expand(op)
		if err != nil {
			fmt.Fprintln(stderr, "benchtrend:", err)
			return 2
		}
		for _, p := range paths {
			s, err := load(p)
			if err != nil {
				fmt.Fprintln(stderr, "benchtrend:", err)
				return 2
			}
			sides[i] = append(sides[i], s)
		}
		newestName = filepath.Base(paths[len(paths)-1])
	}
	baseSnaps, newSnaps := sides[0], sides[1]
	base, cur := newSide(baseSnaps), newSide(newSnaps)
	pairable := len(base.runs) == len(cur.runs) && len(base.runs) >= minPairs

	ranOK := map[string]bool{}
	for _, s := range baseSnaps {
		for _, e := range s.Experiments {
			if e.Err == "" {
				ranOK[e.Experiment] = true
			}
		}
	}
	type expRow struct {
		joined, counted, unpaired int
		logRatio                  float64
		regressed                 bool
	}
	rows := map[string]expRow{}
	failed := map[string]string{}
	for _, s := range newSnaps {
		for _, e := range s.Experiments {
			rows[e.Experiment] = expRow{}
			if failed[e.Experiment] == "" {
				failed[e.Experiment] = e.Err
			}
		}
	}
	keys := make([]cellKey, 0, len(cur.seen))
	for k := range cur.seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.experiment < b.experiment || a.experiment == b.experiment && a.cell < b.cell
	})
	var regressedCells []string
	onlyNew, joined, counted, unpaired, logRatio := 0, 0, 0, 0, 0.0
	for _, k := range keys {
		if !base.seen[k] {
			onlyNew++
			continue
		}
		row := rows[k.experiment]
		row.joined++
		joined++
		b, bAll := base.samples(k)
		n, nAll := cur.samples(k)
		if len(b) > 0 && len(n) > 0 {
			bMed, nMed := quantile(b, 0.5), quantile(n, 0.5)
			lr := math.Log(nMed / bMed)
			row.counted++
			row.logRatio += lr
			counted++
			logRatio += lr
			if !pairable || !bAll || !nAll {
				row.unpaired++
				unpaired++
			} else {
				slower := 0
				for i := range b {
					if n[i] > b[i] {
						slower++
					}
				}
				iqr := quantile(b, 0.75) - quantile(b, 0.25)
				if nMed-bMed > iqr && 10*slower >= slowerTenths*len(b) {
					row.regressed = true
					regressedCells = append(regressedCells, fmt.Sprintf(
						"%s %s: median %.3fs -> %.3fs (%.2fx), base IQR %.3fs, slower in %d/%d pairs",
						k.experiment, k.cell, bMed, nMed, nMed/bMed, iqr, slower, len(b)))
				}
			}
		}
		rows[k.experiment] = row
	}

	newest := newSnaps[len(newSnaps)-1]
	fmt.Fprintf(stdout, "base: %d run(s); new: %d run(s), newest %s: %.2fs total wall (jobs %d)\n",
		len(baseSnaps), len(newSnaps), newestName, newest.TotalWallSeconds, newest.Jobs)
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tcells\tratio\tstatus")
	var failures []string
	for _, name := range names {
		row := rows[name]
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
		case row.unpaired == row.counted:
			status = "unpaired"
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\n", name, row.joined, ratio, status)
	}
	tw.Flush()

	for _, c := range regressedCells {
		fmt.Fprintln(stdout, "regressed:", c)
	}
	if t := newest.Telemetry; t != nil {
		fmt.Fprintf(stdout, "telemetry %s: %d events, %d dropped\n", newestName, t.EventsTotal, t.EventsDropped)
	}
	if onlyBase := len(base.seen) - joined; onlyBase > 0 || onlyNew > 0 {
		fmt.Fprintf(stdout, "cells on one side only: %d in base, %d in new\n", onlyBase, onlyNew)
	}
	if uncounted := joined - counted; uncounted > 0 {
		fmt.Fprintf(stdout, "%d joined cell(s) with zero seconds not counted\n", uncounted)
	}
	if unpaired > 0 {
		fmt.Fprintf(stdout, "%d counted cell(s) unpaired (base %d run(s), new %d; the per-cell rule needs %d pairs): geomean only\n",
			unpaired, len(baseSnaps), len(newSnaps), minPairs)
	}
	if counted > 0 {
		speedup := math.Exp(-logRatio / float64(counted))
		fmt.Fprintf(stdout, "geomean speedup over %d cells: %.2fx (floor %.2fx)\n",
			counted, speedup, geomeanFloor)
		if speedup < geomeanFloor {
			failures = append(failures, fmt.Sprintf("geomean speedup %.2fx is below the %.2fx floor", speedup, geomeanFloor))
		}
	}
	if len(regressedCells) > 0 {
		failures = append(failures, fmt.Sprintf("%d cell(s) slower by more than the base IQR in at least %d/10 of pairs",
			len(regressedCells), slowerTenths))
	}
	for _, f := range failures {
		fmt.Fprintln(stdout, "REGRESSION:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	if joined == 0 {
		fmt.Fprintln(stderr, "benchtrend: no cells in common between BASE and NEW")
		return 2
	}
	return 0
}

// expand turns an operand into its snapshot paths: a file is itself; a
// directory contributes its *.json entries sorted by name.
func expand(op string) ([]string, error) {
	info, err := os.Stat(op)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{op}, nil
	}
	matches, err := filepath.Glob(filepath.Join(op, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("%s: no *.json snapshots", op)
	}
	sort.Strings(matches)
	return matches, nil
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
