// Command mixbench is the simulator's benchmark: four workloads, each
// loading a different simulator layer, measured end to end on the host
// (throughput, wall, set-up, memory) with the simulated results checked,
// plus a traced run that splits host time across the layers.
//
//	mixbench -seed 42                      # all four workloads, each in a child process
//	mixbench -workload walk-storm -trace 1 # one workload, per-layer metrics
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md for the metrics,
// the workloads and why each exists.
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed testdata/expect.json
var embeddedExpect []byte

// expectSeed is the seed the pinned digests in testdata/expect.json hold for.
const expectSeed = 42

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	traceDir string
	size     string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in its own child process)")
	flag.Uint64Var(&o.seed, "seed", expectSeed, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 10, "repeat instances of the workload until this many seconds have passed")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, printing the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceDir, "trace-dir", "mixbench-trace", "directory a traced run writes its Chrome trace and CPU profile to")
	flag.StringVar(&o.size, "size", "full", "instance size: full, or smoke for a sub-second check of every path")
	flag.StringVar(&o.out, "out", "", "also write every workload's result as JSON to this file")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "mixbench: -trace must be 0 or 1, -seconds non-negative, and no positional arguments")
		os.Exit(2)
	}
	var err error
	var failed bool
	if o.workload == "" {
		failed, err = runAll(o)
	} else {
		failed, err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixbench:", err)
		os.Exit(1)
	}
	if failed {
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends its output with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne runs one workload in this process and prints its result.
func runOne(o options) (failed bool, err error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return false, err
	}
	exp, err := loadExpect()
	if err != nil {
		return false, err
	}
	res, err := measureWorkload(w, o, exp)
	if err != nil {
		return false, err
	}
	printMetrics(os.Stdout, w.name, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return !res.Correct, nil
}

// runAll runs every workload in turn, each in a child process of this
// binary, and prints their metrics and a combined result.
func runAll(o options) (failed bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	total := result{Correct: true, Metrics: make(map[string]metric)}
	all := make(map[string]result)
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
			"-trace-dir", o.traceDir, "-size", o.size}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			if runErr != nil {
				return false, fmt.Errorf("%s: %w", w.name, runErr)
			}
			return false, fmt.Errorf("%s: no result line: %w", w.name, err)
		}
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
		all[w.name] = res
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			total.Metrics[w.name+"/"+name] = m
		}
	}
	for _, w := range workloads {
		res := all[w.name]
		fmt.Printf("%s failed_frac %g fraction (%d of %d checks)\n", w.name,
			float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	}
	if o.out != "" {
		doc := map[string]any{"seed": o.seed, "size": o.size, "trace": o.trace, "workloads": all}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return !total.Correct, nil
}

// printMetrics prints one "workload name value unit" line per metric.
func printMetrics(f *os.File, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	w := bufio.NewWriter(f)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %s %s\n", workload, n, strconv.FormatFloat(ms[n].Value, 'g', -1, 64), ms[n].Unit)
	}
	w.Flush()
}

// expectations holds pinned digests at expectSeed: size -> workload ->
// SHA-256 of the simulated results.
type expectations map[string]map[string]string

func loadExpect() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(embeddedExpect, &e); err != nil {
		return nil, fmt.Errorf("expectations: %w", err)
	}
	return e, nil
}

// measureWorkload repeats instances of w until o.seconds have passed (at
// least minInstances of each kind run) and derives its metrics. A traced
// run alternates untraced and traced instances: the untraced ones give the
// baseline for the tracing overhead.
func measureWorkload(w workloadDef, o options, exp expectations) (result, error) {
	sz, err := sizeOf(w, o.size)
	if err != nil {
		return result{}, err
	}
	var tr *tracer
	var prof *profiler
	if o.trace == 1 {
		tr, prof = newTracer(), newProfiler()
		tr.replayPending = true
	}
	var plain, traced []*instance
	start := time.Now()
	for i := 0; ; i++ {
		var t *tracer
		var p *profiler
		if tr != nil && i%2 == 1 {
			t, p = tr, prof
			tr.run = int32(len(traced) + 1)
		}
		var inst *instance
		if w.grid {
			inst, err = runGrid(w, sz, o.seed, t, p)
		} else {
			inst, err = runStream(w, sz, o.seed, t, p)
		}
		if err != nil {
			return result{}, err
		}
		if t != nil {
			traced = append(traced, inst)
		} else {
			plain = append(plain, inst)
		}
		fmt.Fprintf(os.Stderr, "mixbench: %s instance %d (traced=%t): set-up %.3fs, wall %.3fs, median %.0f refs/s\n",
			w.name, i+1, t != nil, inst.setupS, inst.wallS, median(inst.rates))
		runtime.GC() // drop this instance's machine before the next is built
		enough := len(plain) >= minInstances && (tr == nil || len(traced) >= minInstances)
		if enough && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
	}

	res := result{Metrics: make(map[string]metric)}
	all := append(append([]*instance{}, plain...), traced...)
	for _, inst := range all {
		res.Attempted += inst.checks
		res.Failed += inst.failed
		for _, e := range inst.errs {
			fmt.Fprintf(os.Stderr, "mixbench: %s: check failed: %s\n", w.name, e)
		}
	}
	// Every instance runs the same seed, so every digest must match the
	// first: the simulation is deterministic and tracing only observes.
	for _, inst := range all[1:] {
		res.Attempted++
		if inst.digest != all[0].digest {
			res.Failed++
			fmt.Fprintf(os.Stderr, "mixbench: %s: instance digest %s differs from %s\n", w.name, inst.digest, all[0].digest)
		}
	}
	fmt.Fprintf(os.Stderr, "mixbench: %s digest %s (seed %d, size %s)\n", w.name, all[0].digest, o.seed, o.size)
	if want, ok := exp[o.size][w.name]; ok && o.seed == expectSeed {
		res.Attempted++
		if all[0].digest != want {
			res.Failed++
			fmt.Fprintf(os.Stderr, "mixbench: %s: digest %s, expected %s at seed %d\n", w.name, all[0].digest, want, expectSeed)
		}
	}
	res.Correct = res.Failed == 0

	if tr == nil {
		endToEnd(res.Metrics, plain)
		return res, nil
	}
	if err := perLayer(res.Metrics, plain, traced, tr, prof); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return result{}, err
	}
	base := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := tr.writeChrome(base+".trace.json", w.name); err != nil {
		return result{}, err
	}
	// The first traced instance's profile, for cross-checking the layer
	// shares with go tool pprof.
	if err := os.WriteFile(base+".pprof", prof.raw[0], 0o644); err != nil {
		return result{}, err
	}
	return res, nil
}

// minInstances is the fewest instances of each kind a run makes.
const minInstances = 3

// endToEnd fills the end-to-end metrics from untraced instances. Other
// tenants of a shared host only ever slow a window down, so a run's median
// tracks their load; the fast end of the run tracks the simulator. Rates
// are therefore the 90th percentile of the window rates and wall_s the
// fastest instance, while setup_s is the median of every set-up.
func endToEnd(ms map[string]metric, insts []*instance) {
	var rates, walls, setups []float64
	for _, in := range insts {
		rates = append(rates, in.rates...)
		walls = append(walls, in.wallS)
		setups = append(setups, in.setupS)
	}
	ms["refs_per_s"] = metric{quantile(rates, 0.9), "refs/s"}
	ms["wall_s"] = metric{quantile(walls, 0), "s"}
	ms["setup_s"] = metric{quantile(setups, 0.5), "s"}
	ms["max_rss_mb"] = metric{maxRSSMiB(), "MiB"}
}

// maxRSSMiB is this process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
