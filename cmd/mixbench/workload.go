package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/core"
	"mixtlb/internal/experiments"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

// workloadDef is one benchmark workload. Three drive one catalog stream
// through one design, each chosen so a different simulator layer does most
// of the host work (README.md and BENCHMARK.json say which and why);
// paper-grid runs a whole experiment through the engine.
type workloadDef struct {
	name   string
	app    string // workload.Catalog name of the stream (or of paper-grid's probe cell)
	policy osmm.Policy
	hog    float64 // memhog fraction applied before the footprint is populated
	design string
	grid   bool
}

var workloads = []workloadDef{
	{
		name:   "walk-storm",
		app:    "gups",
		policy: osmm.BasePages,
		design: string(mmu.DesignSplitPWC),
	},
	{
		name:   "mix-coalesce",
		app:    "mcf",
		policy: osmm.THS,
		hog:    0.8,
		design: string(mmu.DesignMix),
	},
	{
		name:   "hit-stream",
		app:    "graph500",
		policy: osmm.THS,
		hog:    0.6,
		design: string(mmu.DesignSplit),
	},
	{
		name: "paper-grid",
		// The probe cell: fig14's native/4KB/gups cell on mix, whose
		// set-up is paper-grid's setup_s and whose stream, driven in traced
		// runs, gives the stream layers' metrics.
		app:    "gups",
		policy: osmm.BasePages,
		design: string(mmu.DesignMix),
		grid:   true,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// sizing is the fixed work of one instance of a workload.
type sizing struct {
	memBytes, fpBytes uint64
	warmup, measure   uint64 // refs; measure is a multiple of windows*chunk
	gridWarmup        uint64 // paper-grid: refs per design per cell
	gridMeasure       uint64
	gpuCores          int
}

// sizeOf returns a workload's instance size. "full" is the benchmark;
// "smoke" keeps every code path but finishes in well under a second.
func sizeOf(w workloadDef, size string) (sizing, error) {
	if size == "smoke" {
		return sizing{memBytes: 32 << 20, fpBytes: 8 << 20, warmup: 4096, measure: windows * chunk * 4,
			gridWarmup: 2000, gridMeasure: 2000, gpuCores: 2}, nil
	}
	if size != "full" {
		return sizing{}, fmt.Errorf("unknown size %q (valid: full, smoke)", size)
	}
	switch w.name {
	case "walk-storm":
		return sizing{memBytes: 8 << 30, fpBytes: 2 << 30, warmup: 1 << 18, measure: 1 << 19}, nil
	case "mix-coalesce":
		return sizing{memBytes: 8 << 30, fpBytes: 2 << 30, warmup: 1 << 17, measure: 1 << 18}, nil
	case "hit-stream":
		return sizing{memBytes: 8 << 30, fpBytes: 2 << 30, warmup: 1 << 20, measure: 1 << 21}, nil
	default: // paper-grid; warmup and measure size its probe cell
		return sizing{memBytes: 1 << 30, fpBytes: 256 << 20, warmup: 1 << 16, measure: 1 << 16,
			gridWarmup: 50_000, gridMeasure: 50_000, gpuCores: 8}, nil
	}
}

const (
	memhogSeed = 42 ^ 0x9e37 // the experiments' memhog seed at their default seed 42
	chunk      = 512         // refs per FillBatch/TranslateBatch call, as the experiment engine uses
	windows    = 8           // equal windows of an instance's timed phase, ~0.1s each at full size
	checkEvery = 16          // every 16th measured chunk is checked against the page table
)

// env is one built simulation: machine, address space, stream and MMU.
type env struct {
	as     *osmm.AddressSpace
	pt     *pagetable.PageTable
	m      *mmu.MMU
	caches *cachesim.Hierarchy
	stream workload.Stream
}

// setup builds a workload's environment the way the experiments' native
// cells do (experiments.newNative, which is not exported): memhog fragments
// first, then the address space is created and the footprint faulted in
// ascending order, then the stream and MMU are built. It differs from a
// cell only in the fixed memhog seed.
func setup(w workloadDef, sz sizing, seed uint64, reg *mmu.Registry, tr *tracer, parent int32) (*env, error) {
	h := tr.begin("physmem.NewBuddy", parent)
	phys := physmem.NewBuddy(sz.memBytes)
	tr.end(h)
	// The fragmented machine is part of the workload, not of its input: a
	// fixed memhog seed gives every run the same page-size mix, so -seed
	// varies only the reference stream. (Fragmentation at these loads
	// differs enough between seeds to move host time per ref by ~15%.)
	hog := physmem.NewMemhog(phys, simrand.New(memhogSeed))
	// The pinning the experiments apply under heavy load (>= 50%):
	// unmovable chunks pollute movable pageblocks and defeat compaction.
	if w.hog >= 0.5 {
		hog.UnmovableFrac = min(0.25+(w.hog-0.4)*1.75, 0.95)
		hog.UnmovableScatterFrac = min((w.hog-0.4)*4, 1)
	}
	if w.hog > 0 {
		h = tr.begin("physmem.Memhog.Run", parent)
		hog.Run(w.hog)
		tr.end(h)
	}
	cfg := osmm.Config{Policy: w.policy, Compactor: hog}
	// Like the experiments, the footprint shrinks to what the hog left.
	fp := min(sz.fpBytes, addr.AlignedDown(phys.FreeFrames()*addr.Size4K*97/100, addr.Size2M))
	h = tr.begin("osmm.New", parent)
	as, err := osmm.New(phys, cfg)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	h = tr.begin("osmm.Mmap", parent)
	base, err := as.Mmap(fp)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	h = tr.begin("osmm.Populate", parent)
	_, err = as.Populate(base, fp)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByName(w.app)
	if err != nil {
		return nil, err
	}
	h = tr.begin("workload.Spec.Build", parent)
	stream := spec.Build(base, fp, simrand.New(seed))
	tr.end(h)
	caches := cachesim.DefaultHierarchy()
	h = tr.begin("mmu.Registry.Build", parent)
	m, err := reg.Build(w.design, as.PageTable(), as.PageTable(), caches, as.HandleFault)
	tr.end(h)
	if err != nil {
		return nil, err
	}
	return &env{as: as, pt: as.PageTable(), m: m, caches: caches, stream: stream}, nil
}

// driver feeds an env's stream through its MMU in chunks.
type driver struct {
	e    *env
	tr   *tracer
	refs [chunk]workload.Ref
	reqs [chunk]tlb.Request
	out  [chunk]mmu.Result
}

// step generates and translates n refs.
func (d *driver) step(n int, parent int32) error {
	h := d.tr.begin("workload.FillBatch", parent)
	workload.FillBatch(d.e.stream, d.refs[:n])
	d.tr.end(h)
	for i := 0; i < n; i++ {
		d.reqs[i] = tlb.Request{VA: d.refs[i].VA, Write: d.refs[i].Write, PC: d.refs[i].PC}
	}
	h = d.tr.begin("mmu.TranslateBatch", parent)
	k := d.e.m.TranslateBatch(d.reqs[:n], d.out[:n])
	d.tr.end(h)
	if k > 0 && d.out[k-1].Faulted {
		return fmt.Errorf("fault at %v", d.reqs[k-1].VA)
	}
	return nil
}

// warm runs n refs untimed.
func (d *driver) warm(n uint64, parent int32) error {
	for done := uint64(0); done < n; {
		k := min(uint64(chunk), n-done)
		if err := d.step(int(k), parent); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		done += k
	}
	return nil
}

// verify checks the last n results against the page table, the
// simulator's ground truth. It reports checks attempted and failed.
func (d *driver) verify(n int) (checks, failed int) {
	for i := 0; i < n; i++ {
		r := d.out[i]
		t, ok := d.e.pt.Lookup(d.reqs[i].VA)
		if !ok || r.PA != t.Translate(d.reqs[i].VA) || r.Size != t.Size {
			failed++
		}
		checks++
	}
	return checks, failed
}

// measured is the timed phase of one stream run.
type measured struct {
	rates  []float64     // refs/s of each window
	paused time.Duration // checks and capture, excluded from every time
	checks int
	failed int
}

// measure runs total refs in equal windows, timing each window. Every
// checkEvery-th chunk is verified and, when capture is non-nil, walked
// requests are captured for replay; both happen with the window clock
// paused.
func (d *driver) measure(total uint64, parent int32, capture *[]tlb.Request) (measured, error) {
	var res measured
	per := total / windows
	idx := 0
	for w := 0; w < windows; w++ {
		wh := d.tr.begin("window", parent)
		var paused time.Duration
		start := time.Now()
		for done := uint64(0); done < per; {
			k := min(uint64(chunk), per-done)
			if err := d.step(int(k), wh.id); err != nil {
				return res, err
			}
			if idx%checkEvery == 0 || capture != nil {
				p := time.Now()
				if idx%checkEvery == 0 {
					c, f := d.verify(int(k))
					res.checks += c
					res.failed += f
				}
				if capture != nil {
					for i := 0; i < int(k) && len(*capture) < maxCapture; i++ {
						if d.out[i].Walked {
							*capture = append(*capture, d.reqs[i])
						}
					}
				}
				paused += time.Since(p)
			}
			idx++
			done += k
		}
		el := time.Since(start) - paused
		d.tr.end(wh)
		res.rates = append(res.rates, float64(per)/el.Seconds())
		res.paused += paused
	}
	return res, nil
}

// streamRun is the warm-up and timed phase of one env, with the layer
// state read after it.
type streamRun struct {
	measured
	end     time.Time // when the timed phase ended (before any replay)
	refs    uint64    // refs in the timed phase
	mallocs uint64    // heap allocations during the timed phase
	digest  string    // SHA-256 of the simulated results

	fillNs, translateNs time.Duration // FillBatch and TranslateBatch spans, timed phase
	stats               mmu.Stats
	levels              []mmu.LevelStat
	cores               []core.Stats
	cacheAcc            uint64 // L1D accesses during the timed phase
	cacheL1Hits         uint64
	cacheMem            uint64 // DRAM accesses during the timed phase
	superFrac           float64
	replay              *replayTimes // traced runs only
}

// run warms the env up, resets the MMU's stats and runs the timed phase.
// A traced run (tr non-nil) also captures walked requests and replays them
// once the timed phase is over.
func (e *env) run(sz sizing, tr *tracer, parent int32, prof *profiler) (*streamRun, error) {
	d := &driver{e: e, tr: tr}
	wh := tr.begin("warmup", parent)
	err := d.warm(sz.warmup, wh.id)
	tr.end(wh)
	if err != nil {
		return nil, err
	}
	e.m.ResetStats()
	_, acc0, miss0 := e.caches.LevelStats(0)
	mem0 := e.caches.MemAccesses()
	fill0, _ := tr.total("workload.FillBatch")
	tr0, _ := tr.total("mmu.TranslateBatch")
	var capture *[]tlb.Request
	if tr != nil && tr.replayPending {
		tr.replayPending = false
		capture = new([]tlb.Request)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	prof.start()
	mh := tr.begin("measure", parent)
	res, err := d.measure(sz.measure, mh.id, capture)
	tr.end(mh)
	end := time.Now() // before stopping the profiler, which waits for its writer
	prof.stop()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	r := &streamRun{measured: res, end: end, refs: sz.measure, mallocs: ms.Mallocs - mallocs0}
	fill1, _ := tr.total("workload.FillBatch")
	tr1, _ := tr.total("mmu.TranslateBatch")
	r.fillNs, r.translateNs = fill1-fill0, tr1-tr0
	r.stats = e.m.Stats()
	r.levels = e.m.LevelStats()
	for _, l := range e.m.LevelTLBs() {
		if mt, ok := l.(*core.MixTLB); ok {
			r.cores = append(r.cores, mt.Stats())
		}
	}
	_, acc1, miss1 := e.caches.LevelStats(0)
	r.cacheAcc = acc1 - acc0
	r.cacheL1Hits = r.cacheAcc - (miss1 - miss0)
	r.cacheMem = e.caches.MemAccesses() - mem0
	r.superFrac = e.as.Stats().SuperpageFraction()
	r.digest = statsDigest(r.stats, r.cores)
	if capture != nil {
		rt, err := replay(e.pt, *capture, e.m.Name())
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		r.replay = &rt
	}
	return r, nil
}

// statsDigest hashes the full simulated outcome of a stream run: MMU
// stats plus every MIX level's stats, in %+v form.
func statsDigest(st mmu.Stats, cores []core.Stats) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", st)
	for _, c := range cores {
		fmt.Fprintf(h, "%+v\n", c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// instance is the outcome of one fixed-work run of a workload.
type instance struct {
	setupS float64
	wallS  float64
	rates  []float64 // refs/s: per window, or the grid's single rate
	refs   uint64
	// mallocs counts heap allocations in the timed phase (the grid: the
	// Experiment.Run call).
	mallocs uint64
	checks  int
	failed  int
	digest  string
	errs    []string
	// stream is the stream layer state: the workload's own run, or for
	// paper-grid the probe cell run after the grid in traced instances.
	stream *streamRun
	bench  []byte // paper-grid: BenchLog JSON
}

// setupTimed builds w's environment under a "setup" span and returns it
// with the seconds the build took and when it started.
func setupTimed(w workloadDef, sz sizing, seed uint64, tr *tracer, parent int32) (*env, float64, time.Time, error) {
	start := time.Now()
	h := tr.begin("setup", parent)
	e, err := setup(w, sz, seed, mmu.DefaultRegistry(), tr, h.id)
	tr.end(h)
	if err != nil {
		return nil, 0, start, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return e, time.Since(start).Seconds(), start, nil
}

// runStream runs one instance of a stream workload: set-up, warm-up,
// mmu.ResetStats, then the timed phase.
func runStream(w workloadDef, sz sizing, seed uint64, tr *tracer, prof *profiler) (*instance, error) {
	root := tr.begin("instance", 0)
	defer tr.end(root)
	e, setupS, t0, err := setupTimed(w, sz, seed, tr, root.id)
	if err != nil {
		return nil, err
	}
	r, err := e.run(sz, tr, root.id, prof)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	wall := r.end.Sub(t0) - r.paused
	return &instance{
		setupS: setupS, wallS: wall.Seconds(), rates: r.rates, refs: r.refs,
		mallocs: r.mallocs, checks: r.checks, failed: r.failed, digest: r.digest, stream: r,
	}, nil
}

// gridScale is paper-grid's experiment configuration.
func gridScale(sz sizing, seed uint64, bench *experiments.BenchLog) experiments.Scale {
	return experiments.Scale{
		MemoryBytes:    sz.memBytes,
		FootprintBytes: sz.fpBytes,
		WarmupRefs:     sz.gridWarmup,
		MeasureRefs:    sz.gridMeasure,
		GPUCores:       sz.gpuCores,
		Workloads:      []string{"mcf", "gups", "memcached"},
		Seed:           seed,
		Jobs:           gridJobs,
		Bench:          bench,
		LedgerAudit:    true,
		TailK:          16,
	}
}

// gridJobs is paper-grid's worker pool size.
const gridJobs = 2

// runGrid runs one instance of paper-grid: set-up of its probe cell's
// native environment (the set-up every native cell of the grid repeats),
// then the fig14 experiment through the engine. A traced instance then
// drives the probe cell's stream, for the stream layers' metrics the
// engine's internal streams cannot give.
func runGrid(w workloadDef, sz sizing, seed uint64, tr *tracer, prof *profiler) (*instance, error) {
	root := tr.begin("instance", 0)
	defer tr.end(root)
	e, setupS, _, err := setupTimed(w, sz, seed, tr, root.id)
	if err != nil {
		return nil, err
	}
	inst := &instance{setupS: setupS}
	if tr == nil {
		e = nil // let the probe environment go before the grid runs
	}
	exp, err := experiments.ByName("fig14")
	if err != nil {
		return nil, err
	}
	bench := experiments.NewBenchLog(gridJobs)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	prof.start()
	rh := tr.begin("experiments.Experiment.Run", root.id)
	start := time.Now()
	table, err := exp.Run(context.Background(), gridScale(sz, seed, bench))
	inst.wallS = time.Since(start).Seconds()
	tr.end(rh)
	prof.stop()
	runtime.ReadMemStats(&ms)
	inst.mallocs = ms.Mallocs - mallocs0
	inst.checks = 1
	if err != nil {
		// LedgerAudit fails a cell whose cycle books do not balance.
		inst.failed = 1
		inst.errs = append(inst.errs, err.Error())
		return inst, nil
	}
	if inst.bench, err = bench.JSON(); err != nil {
		return nil, err
	}
	cells, err := cellSeconds(inst.bench)
	if err != nil {
		return nil, err
	}
	// Every fig14 cell runs the split and the mix design over warm-up
	// plus measured refs.
	inst.refs = uint64(len(cells)) * 2 * (sz.gridWarmup + sz.gridMeasure)
	inst.rates = []float64{float64(inst.refs) / inst.wallS}
	sum := sha256.Sum256([]byte(table.CSV()))
	inst.digest = hex.EncodeToString(sum[:])
	if e != nil {
		ph := tr.begin("probe", root.id)
		inst.stream, err = e.run(sz, tr, ph.id, nil)
		tr.end(ph)
		if err != nil {
			return nil, fmt.Errorf("%s probe: %w", w.name, err)
		}
		inst.checks += inst.stream.checks
		inst.failed += inst.stream.failed
	}
	return inst, nil
}

// cellSeconds returns a grid instance's per-cell wall times, sorted.
func cellSeconds(bench []byte) ([]float64, error) {
	var rep struct {
		Cells []experiments.CellTime `json:"cells"`
	}
	if err := json.Unmarshal(bench, &rep); err != nil {
		return nil, err
	}
	out := make([]float64, len(rep.Cells))
	for i, c := range rep.Cells {
		out[i] = c.Seconds
	}
	sort.Float64s(out)
	return out, nil
}
