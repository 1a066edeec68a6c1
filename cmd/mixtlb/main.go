// Command mixtlb regenerates the paper's tables and figures from the
// simulator. List experiments with -list, run one with -exp fig14, a
// group with -exp perf, or everything with -exp all. The -quick flag
// trades fidelity for speed (useful for smoke runs); -csv emits
// machine-readable output.
//
// Experiments decompose into independent grid cells (one design x
// workload x environment simulation each) that run on a bounded worker
// pool: -jobs sets the pool size (default GOMAXPROCS), and results are
// byte-identical at any setting because each cell's randomness derives
// from its identity, not its schedule. -cell restricts a run to matching
// cells — the knob failure lines name for single-cell reproduction.
// -bench-out writes per-cell and per-experiment wall-clock timings as
// JSON (experiments.BenchReport) so -jobs speedups are measurable;
// cmd/benchtrend compares such files.
//
// Every experiment runs under a crash-safe harness: panics are recovered
// into a diagnostic carrying the reproducing seed, each experiment gets a
// wall-clock timeout (-timeout, 0 disables), and partial tables — rows
// finished before a failure — are still printed. The chaos experiment
// (-exp chaos, or the -chaos shorthand) sweeps every TLB design under
// fault injection; -fault-scale multiplies the default fault rates.
//
// Long sweeps survive process death: -journal FILE checkpoints each
// completed cell to a checksummed JSONL log, and -resume replays those
// cells on restart, simulating only the remainder — the final table is
// byte-identical to an uninterrupted run. Each cell runs once: its rows
// are a pure function of its seed, so rerunning a failed cell would only
// fail it again. The first failing cell stops the experiment and names
// the -cell line that replays it.
//
// Exit codes: 0 all cells succeeded; 1 hard failure (a cell error, a
// panic, I/O); 2 usage or configuration error (including a journal whose
// fingerprint does not match the run); 4 an experiment was truncated by
// -timeout. When several apply, the most severe wins (1 > 4).
//
// Telemetry is off by default and costs nothing when off. Any of
// -metrics-out (Prometheus text dump), -trace-events (Chrome trace_event
// JSON for chrome://tracing or Perfetto), -events-out (JSONL event
// stream), or -pprof-addr (HTTP listener with /metrics, /trace,
// /debug/tail, /debug/vars, /debug/pprof/) switches it on; -progress
// prints live done/total/ETA lines to stderr as cells finish. Telemetry
// never feeds back into the simulation: result tables are byte-identical
// with it on or off.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mixtlb/internal/experiments"
	"mixtlb/internal/isa"
	"mixtlb/internal/journal"
	"mixtlb/internal/logx"
	"mixtlb/internal/mmu"
	"mixtlb/internal/stats"
	"mixtlb/internal/telemetry"
)

// groups are named experiment bundles matching the paper's sections.
var groups = map[string][]string{
	"perf":      {"fig1", "fig14", "fig15l", "fig15r"},
	"charact":   {"fig9", "fig10", "fig11", "fig12", "fig13"},
	"energy":    {"fig16", "fig17", "fig18"},
	"ablations": {"ablation-index", "scaling", "duplicates"},
}

// groupOrder keeps -list output stable.
var groupOrder = []string{"perf", "charact", "energy", "ablations"}

func main() { os.Exit(run()) }

// run is the whole command; it returns the process exit code, so its
// deferred cleanup (profiles) runs on every path.
func run() (code int) {
	var expName string
	flag.StringVar(&expName, "exp", "", "experiment or group to run (see -list), or 'all'")
	flag.StringVar(&expName, "experiment", "", "alias for -exp")
	// The run's settings are an experiments.RunSpec;
	// everything else here observes or steers the process.
	spec := experiments.DefaultRunSpec()
	spec.RegisterFlags(flag.CommandLine)
	var (
		list       = flag.Bool("list", false, "list available experiments and groups")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		chaosRun   = flag.Bool("chaos", false, "shorthand for -exp chaos")
		timeout    = flag.Duration("timeout", 10*time.Minute, "per-experiment wall-clock timeout (0 disables)")
		benchOut   = flag.String("bench-out", "", "write per-cell wall-clock timings to this JSON file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file at exit")
		memProfile = flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
		metricsOut = flag.String("metrics-out", "", "write a Prometheus text metrics dump to this file at exit")
		traceOut   = flag.String("trace-events", "", "write a Chrome trace_event JSON file (chrome://tracing, Perfetto)")
		eventsOut  = flag.String("events-out", "", "write the raw telemetry event stream as JSONL to this file")
		pprofAddr  = flag.String("pprof-addr", "", "serve /metrics, /trace, /debug/tail, /debug/vars and /debug/pprof/ on this address (e.g. localhost:6060)")
		progress   = flag.Bool("progress", false, "print live per-cell progress (done/total, ETA) to stderr")
		designFile = flag.String("design-file", "", "JSON file of extra TLB design specs to register (see examples/designs.json)")

		journalPath = flag.String("journal", "", "checkpoint each completed cell to this JSONL file (crash-safe)")
		resume      = flag.Bool("resume", false, "replay completed cells from the -journal file instead of truncating it")
		killAfter   = flag.Int("kill-after-cells", 0, "exit(137) after this many cells complete (crash-testing the journal)")

		logFormat = flag.String("log-format", "text", "stderr log format: text or json")
		explain   = flag.Bool("explain", false, "replay one translation with full cost narration: mixtlb -explain vaddr=0x... design=...")
	)
	flag.Parse()

	lg, err := logx.New(os.Stderr, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		lg.Error("starting profiles", "err", err)
		return 2
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			lg.Error("stopping profiles", "err", err)
			if code != 2 { // a usage error keeps its code
				code = 1
			}
		}
	}()

	// Design registry: the builtins, extended by any -design-file specs.
	// A malformed file, invalid spec, or duplicate name is rejected up
	// front — a typo'd design must not silently run the builtin set.
	registry := mmu.DefaultRegistry()
	if *designFile != "" {
		f, err := os.Open(*designFile)
		if err != nil {
			lg.Error("opening design file", "err", err)
			return 2
		}
		specs, err := mmu.ParseSpecs(f)
		f.Close()
		if err == nil {
			for _, s := range specs {
				if err = registry.Register(s); err != nil {
					break
				}
			}
		}
		if err != nil {
			lg.Error("loading design file", "file", *designFile, "err", err)
			return 2
		}
	}

	if *list {
		fmt.Println("experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-15s %s\n", e.Name, e.Desc)
		}
		fmt.Println("groups:")
		for _, g := range groupOrder {
			fmt.Printf("  %-15s %s\n", g, strings.Join(groups[g], " "))
		}
		fmt.Println("designs:")
		for _, s := range registry.Specs() {
			designISA := s.ISA
			if designISA == "" {
				designISA = "any" // ISA-agnostic: runs on whatever -isa selects
			}
			fmt.Printf("  %-15s [%s] %s\n", s.Name, designISA, s.Desc)
		}
		fmt.Println("isas:")
		for _, n := range isa.Names() {
			d, _ := isa.Lookup(n)
			contig := ""
			if d.ContigPages > 1 {
				contig = fmt.Sprintf(", %s x%d", d.Contig, d.ContigPages)
			}
			fmt.Printf("  %-15s %d-level radix, %d-bit VAs%s\n", n, d.Depth(), d.VABits, contig)
		}
		return 0
	}
	if *chaosRun && expName == "" {
		expName = "chaos"
	}
	if expName == "" && !*explain {
		fmt.Fprintln(os.Stderr, "usage: mixtlb -exp <name>|<group>|all [-jobs N] [-quick] [-csv] [-chaos]; see -list")
		fmt.Fprintln(os.Stderr, "       mixtlb -explain vaddr=0x... design=<name>")
		return 2
	}

	// Reject bad settings up front (a typo'd workload would otherwise run
	// every experiment over an empty set and print empty tables).
	scale, err := spec.Scale(registry)
	if err != nil {
		lg.Error("invalid run settings", "err", err)
		return 2
	}

	// Single-translation replay: narrate one address's cost and exit.
	if *explain {
		design, va, err := parseExplainArgs(flag.Args())
		if err != nil {
			lg.Error("bad -explain arguments", "err", err)
			return 2
		}
		if err := experiments.Explain(os.Stdout, scale, design, va); err != nil {
			lg.Error("explain failed", "err", err)
			return 1
		}
		return 0
	}

	// Checkpoint journal. Without -resume the file starts fresh; with it,
	// completed cells recorded under the *same configuration fingerprint*
	// replay instead of re-simulating. A journal written under different
	// scale parameters (memory, seed, workloads, ...) is refused — its
	// rows would not correspond to this run's cells.
	if *resume && *journalPath == "" {
		lg.Error("-resume requires -journal FILE")
		return 2
	}
	var jnl *journal.Journal
	if *journalPath != "" {
		fp := scale.Fingerprint()
		var jerr error
		if *resume {
			jnl, jerr = journal.Open(*journalPath, fp)
		} else {
			jnl, jerr = journal.Create(*journalPath, fp)
		}
		if jerr != nil {
			lg.Error("opening journal", "journal", *journalPath, "err", jerr)
			var ce *journal.CorruptError
			if errors.As(jerr, &ce) && ce.Reason == journal.ReasonFingerprint {
				lg.Error("refusing to resume: the journal was written under a different configuration (rerun with matching flags, or without -resume to start over)")
			}
			return 2
		}
		if st := jnl.Stats(); *resume {
			lg.Info("journal resumed", "journal", *journalPath,
				"replayed_cells", st.Replayed, "dropped_torn_tail", st.DroppedTail)
		}
		scale.Journal = jnl
	}

	// Telemetry root. All exporter flags share one registry/tracer so a
	// single run can emit every format; when no flag asks for it,
	// scale.Telemetry stays nil and the simulator takes its zero-cost path.
	var (
		reg    *telemetry.Registry
		tracer *telemetry.Tracer
	)
	stopServe := func() {}
	if *metricsOut != "" || *traceOut != "" || *eventsOut != "" || *pprofAddr != "" {
		reg = telemetry.NewRegistry()
		tracer = telemetry.NewTracer(0)
		scale.Telemetry = telemetry.NewCollector(reg, tracer)
	}
	if *pprofAddr != "" {
		bound, shutdown, err := telemetry.Serve(*pprofAddr, reg, tracer)
		if err != nil {
			lg.Error("starting telemetry server", "err", err)
			return 2
		}
		lg.Info("telemetry serving", "addr", bound,
			"endpoints", "/metrics /trace /debug/tail /debug/vars /debug/pprof/")
		stopServe = shutdown
	}
	if *progress {
		scale.ProgressFn = func(ev experiments.ProgressEvent) {
			status := "ok"
			if ev.Failed {
				status = "FAIL"
			}
			lg.Info("cell done", "experiment", ev.Experiment,
				"done", ev.Done, "total", ev.Total, "cell", ev.Cell, "status", status,
				"elapsed", ev.Elapsed.Round(time.Millisecond).String(),
				"eta", ev.ETA.Round(time.Millisecond).String())
		}
	}
	if *killAfter > 0 {
		// Crash simulation for the journal's check.sh gate: die the instant
		// the Nth cell reports completion. The engine checkpoints a cell
		// before reporting it, so every cell this counter saw is durable —
		// exiting here is exactly a SIGKILL between two cells.
		limit, prev := *killAfter, scale.ProgressFn
		var count int64
		scale.ProgressFn = func(ev experiments.ProgressEvent) {
			if prev != nil {
				prev(ev)
			}
			if atomic.AddInt64(&count, 1) == int64(limit) {
				lg.Warn("simulated crash", "after_cells", limit)
				os.Exit(137)
			}
		}
	}

	var toRun []experiments.Experiment
	switch {
	case expName == "all":
		toRun = experiments.All()
	case groups[expName] != nil:
		for _, name := range groups[expName] {
			e, err := experiments.ByName(name)
			if err != nil {
				lg.Error("unknown experiment", "err", err)
				return 2
			}
			toRun = append(toRun, e)
		}
	default:
		e, err := experiments.ByName(expName)
		if err != nil {
			lg.Error("unknown experiment", "err", err,
				"groups", strings.Join(groupOrder, ", ")+", all")
			return 2
		}
		toRun = []experiments.Experiment{e}
	}

	bench := experiments.NewBenchLog(spec.Jobs)
	scale.Bench = bench
	ctx := context.Background()

	// Exit-code severity lattice: 1 (hard failure) > 4 (timeout
	// truncation) > 0.
	exitCode := 0
	setExit := func(code int) {
		rank := map[int]int{0: 0, 4: 1, 1: 2}
		if rank[code] > rank[exitCode] {
			exitCode = code
		}
	}
	for _, e := range toRun {
		start := time.Now()
		tbl, err := experiments.RunSafe(ctx, e, scale, *timeout)
		bench.RecordExperiment(e.Name, time.Since(start).Seconds(), err)
		if err != nil {
			// Print whatever completed, then the failure with its
			// reproducing seed.
			if tbl != nil && len(tbl.Rows) > 0 {
				lg.Warn("partial results", "experiment", e.Name, "rows", len(tbl.Rows))
				printTable(tbl, *csv)
			}
			lg.Error("experiment failed", "experiment", e.Name, "err", err)
			var ce *experiments.CellError
			if errors.As(err, &ce) {
				lg.Info("reproduce", "cmd", fmt.Sprintf("mixtlb -exp %s -cell %q -seed %d -jobs 1",
					e.Name, ce.Cell, scale.Seed))
			}
			var pe *experiments.PanicError
			if errors.As(err, &pe) {
				fmt.Fprint(os.Stderr, pe.Stack)
			}
			var te *experiments.TimeoutError
			if errors.As(err, &te) {
				lg.Info("reproduce", "cmd", fmt.Sprintf("mixtlb -exp %s -seed %d -timeout 0", e.Name, te.Seed))
				setExit(4) // truncated, not broken: partial rows are valid
			} else {
				setExit(1)
			}
			continue
		}
		printTable(tbl, *csv)
		lg.Info("experiment completed", "experiment", e.Name,
			"elapsed", time.Since(start).Round(time.Millisecond).String())
	}
	if err := jnl.Close(); err != nil {
		lg.Error("closing journal", "err", err)
		setExit(1)
	}
	stopServe()
	if err := writeTelemetry(reg, tracer, *metricsOut, *traceOut, *eventsOut); err != nil {
		lg.Error("writing telemetry", "err", err)
		setExit(1)
	}
	if tracer != nil {
		total, dropped := tracer.Counts()
		bench.SetTelemetry(experiments.TelemetrySummary{EventsTotal: total, EventsDropped: dropped})
	}
	if *benchOut != "" {
		data, err := bench.JSON()
		if err == nil {
			err = os.WriteFile(*benchOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			lg.Error("writing bench log", "file", *benchOut, "err", err)
			setExit(1)
		}
	}
	return exitCode
}

// parseExplainArgs reads -explain's k=v operands: vaddr (required hex or
// decimal address) and design (default mix).
func parseExplainArgs(args []string) (design string, va uint64, err error) {
	design = mmu.DesignMix
	haveVA := false
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return "", 0, fmt.Errorf("expected key=value, got %q", a)
		}
		switch k {
		case "vaddr", "va":
			va, err = strconv.ParseUint(v, 0, 64)
			if err != nil {
				return "", 0, fmt.Errorf("bad vaddr %q (want hex 0x... or decimal): %v", v, err)
			}
			haveVA = true
		case "design":
			design = v
		default:
			return "", 0, fmt.Errorf("unknown key %q (want vaddr=, design=)", k)
		}
	}
	if !haveVA {
		return "", 0, fmt.Errorf("missing vaddr=0x...")
	}
	return design, va, nil
}

// writeTelemetry dumps whichever exporter files were requested. A nil
// registry/tracer (telemetry disabled) writes nothing.
func writeTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer, metricsPath, tracePath, eventsPath string) error {
	write := func(path string, emit func(f *os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("creating %s: %v", path, err)
		}
		if err := emit(f); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("writing %s: %v", path, err)
		}
		return nil
	}
	if err := write(metricsPath, func(f *os.File) error { return reg.WritePrometheus(f) }); err != nil {
		return err
	}
	if err := write(tracePath, func(f *os.File) error { return tracer.WriteChromeTrace(f) }); err != nil {
		return err
	}
	return write(eventsPath, func(f *os.File) error { return tracer.WriteJSONL(f) })
}

// startProfiles begins CPU profiling and arranges heap profiling according
// to the -cpuprofile/-memprofile flags. The returned stop function stops
// the CPU profile and writes the heap profile; run defers it once.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("creating %s: %v", cpuPath, err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("starting CPU profile: %v", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("writing %s: %v", cpuPath, err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("creating %s: %v", memPath, err)
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the heap profile reflects live data
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				return fmt.Errorf("writing %s: %v", memPath, err)
			}
		}
		return nil
	}, nil
}

func printTable(tbl *stats.Table, csv bool) {
	if tbl == nil {
		return
	}
	if csv {
		fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
	} else {
		fmt.Println(tbl.String())
	}
}
