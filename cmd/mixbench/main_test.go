package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// bench is the mixbench binary TestMain builds for the tests to run.
var bench string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mixbench")
	if err != nil {
		panic(err)
	}
	bench = filepath.Join(dir, "mixbench")
	if out, err := exec.Command("go", "build", "-o", bench, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic(fmt.Sprintf("go build: %v\n%s", err, out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchRun is one finished run of the binary.
type benchRun struct {
	lines []string // standard output
	res   result   // its last line
	err   error    // from exec, non-nil on a nonzero exit
}

// runBench runs the binary with args.
func runBench(args ...string) benchRun {
	out, err := exec.Command(bench, args...).Output()
	r := benchRun{lines: strings.Split(strings.TrimSpace(string(out)), "\n"), err: err}
	if jerr := json.Unmarshal([]byte(r.lines[len(r.lines)-1]), &r.res); jerr != nil && err == nil {
		r.err = fmt.Errorf("last line is not a result: %v", jerr)
	}
	return r
}

type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// simMetrics are the per-layer metrics read from the simulator's counters;
// they must repeat exactly.
var simMetrics = []string{
	"mmu.cycles_per_ref", "mmu.walks_per_kref", "tlb.l1_hit_frac", "tlb.l2_hit_frac",
	"core.merge_frac", "core.members_per_bundle", "core.mirror_writes_per_fill",
	"pagetable.refs_per_walk", "pagetable.dirty_assists_per_kref",
	"pwc.hit_frac", "cachesim.accesses_per_kref", "cachesim.l1_hit_frac", "osmm.superpage_frac",
}

// TestSmoke runs every workload at smoke size, once untraced and twice
// traced, all three at once, and checks the output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	dirs := []string{t.TempDir(), t.TempDir()}
	smoke := []string{"-size", "smoke", "-seconds", "0"}
	runs := make([]benchRun, 3)
	var wg sync.WaitGroup
	for i := range runs {
		args := smoke
		if i > 0 {
			args = append([]string{"-trace", "1", "-trace-dir", dirs[i-1]}, smoke...)
		}
		wg.Add(1)
		go func(i int, args []string) {
			defer wg.Done()
			runs[i] = runBench(args...)
		}(i, args)
	}
	wg.Wait()
	for i, r := range runs {
		if r.err != nil || !r.res.Correct || r.res.Failed != 0 || r.res.Attempted == 0 {
			t.Fatalf("run %d: err=%v correct=%v failed=%d attempted=%d", i, r.err, r.res.Correct, r.res.Failed, r.res.Attempted)
		}
		want := spec.PerLayer
		if i == 0 {
			want = spec.EndToEnd
		}
		for _, w := range spec.Workloads {
			for _, m := range want {
				checkPrinted(t, r, w.Name, m.Name, m.Unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		for _, m := range simMetrics {
			key := w.Name + "/" + m
			if a, b := runs[1].res.Metrics[key], runs[2].res.Metrics[key]; a != b {
				t.Errorf("%s differs across runs: %v vs %v", key, a, b)
			}
		}
		checkTrace(t, filepath.Join(dirs[0], w.Name+"-seed42.trace.json"))
	}
}

// checkPrinted asserts that metric name of workload is printed as a
// "workload name value unit" line and carried in the result with its unit.
func checkPrinted(t *testing.T, r benchRun, workload, name, unit string) {
	t.Helper()
	m, ok := r.res.Metrics[workload+"/"+name]
	if !ok || m.Unit != unit {
		t.Errorf("%s/%s: result has %+v (present %v), want unit %q", workload, name, m, ok, unit)
		return
	}
	prefix := workload + " " + name + " "
	for _, l := range r.lines {
		if strings.HasPrefix(l, prefix) && strings.HasSuffix(l, " "+unit) {
			return
		}
	}
	t.Errorf("no printed line for %s %s in %s", workload, name, unit)
}

// checkTrace asserts that a Chrome trace parses and that every non-root
// span's parent is in it.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	ids := make(map[int32]bool)
	for _, ev := range doc.TraceEvents {
		ids[ev.Args.ID] = true
	}
	for _, ev := range doc.TraceEvents {
		if ev.Args.Parent != 0 && !ids[ev.Args.Parent] {
			t.Fatalf("%s: span %d (%s) has missing parent %d", path, ev.Args.ID, ev.Name, ev.Args.Parent)
		}
	}
}

// TestTamperedExpectationFails checks that a digest mismatch is counted
// as a failed check, which makes the result incorrect and so the command
// exit nonzero.
func TestTamperedExpectationFails(t *testing.T) {
	exp, err := loadExpect()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := exp["smoke"]["walk-storm"]
	if !ok {
		t.Fatal("testdata/expect.json pins no smoke digest for walk-storm")
	}
	exp["smoke"]["walk-storm"] = strings.Repeat("0", len(want))
	w, err := workloadByName("walk-storm")
	if err != nil {
		t.Fatal(err)
	}
	res, err := measureWorkload(w, options{seed: expectSeed, size: "smoke"}, exp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("want failed checks, got correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
}

// TestLayerOf pins the profile bucketing: standard-library frames are
// charged to the nearest simulator caller.
func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"mixtlb/internal/core.(*MixTLB).Fill"}, "core"},
		{[]string{"math.Pow", "mixtlb/internal/simrand.(*Zipf).Next"}, "simrand"},
		{[]string{"runtime.duffcopy", "mixtlb/internal/tlb.(*Split).Lookup"}, "tlb"},
		{[]string{"runtime.memmove", "main.(*driver).step"}, "other"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"mixtlb/internal/stats.(*Table).CSV"}, "other"},
		{[]string{"time.Now"}, "other"},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.frames, got, c.want)
		}
	}
}
