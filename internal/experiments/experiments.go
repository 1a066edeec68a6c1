// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec 7) from the simulator: OS page-allocation
// characterization (Figures 9-13), performance comparisons against split
// and multi-indexing TLBs (Figures 1, 14, 15), energy studies (Figures
// 16, 17), COLT combinations (Figure 18), and the ablations the design
// discussion calls out (superpage index bits, set-count scaling,
// duplicate handling).
//
// Every experiment takes a Scale so the same code serves the full CLI
// runs and the fast `go test -bench` harness; absolute numbers shift with
// scale but the qualitative shapes (who wins, by roughly what factor) are
// stable.
package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/chaos"
	"mixtlb/internal/isa"
	"mixtlb/internal/journal"
	"mixtlb/internal/ledger"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/perfmodel"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/stats"
	"mixtlb/internal/telemetry"
	"mixtlb/internal/tlb"
	"mixtlb/internal/virt"
	"mixtlb/internal/workload"
)

// Scale sizes an experiment run.
type Scale struct {
	// MemoryBytes is system physical memory (the paper's machine: 80GB).
	MemoryBytes uint64
	// FootprintBytes is the workload footprint (the paper: ~80GB).
	FootprintBytes uint64
	// WarmupRefs and MeasureRefs bound each simulation.
	WarmupRefs  uint64
	MeasureRefs uint64
	// GPUCores sizes the GPU model.
	GPUCores int
	// Workloads optionally restricts the CPU workload set (nil = all).
	Workloads []string
	// Designs optionally overrides the design set of the experiments that
	// iterate the registry ("hierarchy", "reach" and "breakdown"; nil =
	// their defaults).
	Designs []string
	// Registry resolves design names for registry-driven experiments.
	// Nil falls back to mmu.DefaultRegistry() (the builtin designs); the
	// CLI installs a registry extended with -design-file specs.
	Registry *mmu.Registry
	// ISA names the translation architecture every native environment's
	// page table implements (an isa.Lookup name; empty = default x86-64,
	// reproducing pre-descriptor behaviour bit-for-bit). The xisa
	// experiment ignores it and sweeps its own descriptor set.
	ISA string
	// Seed drives all randomness.
	Seed uint64
	// Chaos configures fault injection for the chaos experiment (zero
	// rates disable injection entirely).
	Chaos chaos.Rates
	// Jobs bounds the worker pool each experiment's cell grid runs on
	// (0 = GOMAXPROCS). Results are byte-identical at any value.
	Jobs int
	// Cell, when non-empty, restricts the run to grid cells whose name
	// contains it — the reproduce-one-cell knob from failure lines.
	Cell string
	// Bench, when set, receives per-cell wall-clock timings.
	Bench *BenchLog
	// Telemetry, when set, is the run's observability sink: the engine
	// scopes it per cell (exp/cell labels, worker trace tid) and the
	// simulation layers export metrics and spans into it. Nil (the
	// default) disables all instrumentation at zero cost. Simulation
	// results never depend on it.
	Telemetry *telemetry.Collector
	// ProgressFn, when set, receives live engine progress (cells
	// done/total, ETA) as cells complete. Calls are serialized. Like
	// Telemetry, it observes the run without influencing it.
	ProgressFn func(ProgressEvent)
	// Journal, when set, is the run's crash-safe checkpoint log: the
	// engine replays cells already recorded there (skipping their
	// simulation) and appends each newly completed cell. Results are
	// byte-identical to an uninterrupted run because replayed rows carry
	// their exact values and seeds are pure functions of cell identity.
	// Nil disables checkpointing at zero cost.
	Journal *journal.Journal
	// LedgerAudit, when true, attaches a cycle-attribution ledger to
	// every MMU driven through runStream and fails the cell unless the
	// closed translations' cycles sum exactly to the MMU's total
	// (ledger.Audit). Like Telemetry it is an observer: tables are
	// byte-identical with it on or off, so it is excluded from
	// Fingerprint.
	LedgerAudit bool
	// TailK, when positive, arms a bounded top-K tail flight recorder on
	// every runStream MMU: the K slowest translations of each cell's
	// measurement interval (VA, page size, serving level, walk depth,
	// charge trail) export as "tail" trace events through Telemetry.
	// Clamped to ledger.MaxTailK; an observer like LedgerAudit.
	TailK int
}

// Fingerprint summarizes every Scale field that determines simulation
// results, plus the journal format version. A checkpoint journal is
// pinned to this string: resuming under a different memory size, seed,
// workload set, or chaos configuration is refused instead of silently
// mixing incompatible cells. Scheduling-only knobs (Jobs, Cell) and
// observers (Telemetry, Bench, ProgressFn, ...) are deliberately excluded —
// they never change results.
func (s Scale) Fingerprint() string {
	isaName := s.ISA
	if isaName == "" {
		isaName = isa.DefaultName // "" and the explicit default are the same run
	}
	return fmt.Sprintf("mixtlb-journal-v%d mem=%d foot=%d warmup=%d measure=%d gpu=%d seed=%d workloads=[%s] designs=[%s] isa=%s chaos=%+v",
		journal.Version, s.MemoryBytes, s.FootprintBytes, s.WarmupRefs, s.MeasureRefs,
		s.GPUCores, s.Seed, strings.Join(s.Workloads, ","), strings.Join(s.Designs, ","), isaName, s.Chaos)
}

// DefaultScale is the CLI configuration: footprints far beyond TLB reach
// while keeping each figure's regeneration in minutes on a laptop.
func DefaultScale() Scale {
	return Scale{
		MemoryBytes:    8 << 30,
		FootprintBytes: 2 << 30,
		WarmupRefs:     300_000,
		MeasureRefs:    700_000,
		GPUCores:       8,
		Seed:           42,
		Chaos:          chaos.DefaultRates(),
	}
}

// QuickScale keeps everything small enough for unit tests and benchmarks.
func QuickScale() Scale {
	return Scale{
		MemoryBytes:    1 << 30,
		FootprintBytes: 256 << 20,
		WarmupRefs:     30_000,
		MeasureRefs:    60_000,
		GPUCores:       4,
		Workloads:      []string{"mcf", "gups", "memcached"},
		Seed:           42,
		Chaos:          chaos.DefaultRates(),
	}
}

// registry resolves the scale's design registry.
func (s Scale) registry() *mmu.Registry {
	if s.Registry != nil {
		return s.Registry
	}
	return mmu.DefaultRegistry()
}

// specs resolves design names in the scale's registry, failing with
// *mmu.UnknownDesignError on the first name it does not hold.
func (s Scale) specs(names ...string) ([]mmu.DesignSpec, error) {
	reg := s.registry()
	out := make([]mmu.DesignSpec, len(names))
	for i, name := range names {
		spec, ok := reg.Lookup(name)
		if !ok {
			return nil, &mmu.UnknownDesignError{Name: name, Valid: reg.Names()}
		}
		out[i] = spec
	}
	return out, nil
}

// workloads resolves the scale's workload set.
func (s Scale) workloads() []workload.Spec {
	all := workload.Catalog()
	if len(s.Workloads) == 0 {
		return all
	}
	var out []workload.Spec
	for _, name := range s.Workloads {
		for _, spec := range all {
			if spec.Name == name {
				out = append(out, spec)
			}
		}
	}
	return out
}

// runEnv is what building and running a design needs from an
// environment. A native environment and VM 0 of a consolidated host
// differ only in these values.
type runEnv struct {
	src   mmu.TranslationSource
	pt    *pagetable.PageTable // nil in a VM: a nested walk has no single table
	fault mmu.FaultHandler
	base  addr.V
	fp    uint64 // footprint actually mapped (capped under memory pressure)
	// labels follow the caller's on every run's telemetry; flush, when
	// set, exports the environment's own telemetry after a run.
	labels []string
	flush  func()
}

// build constructs a design over the environment with a fresh cache
// hierarchy. It is the one place experiment cells build an MMU, apart
// from DuplicateStudy's blind-mirror levels, which no design spec can
// express.
func (e *runEnv) build(ds mmu.DesignSpec) (*mmu.MMU, *cachesim.Hierarchy, error) {
	caches := cachesim.DefaultHierarchy()
	m, err := ds.Build(e.src, e.pt, caches, e.fault)
	if err != nil {
		return nil, nil, err
	}
	return m, caches, nil
}

// stream builds spec's reference stream over the environment. A cell
// builds it once, before its first design, and never drives it: run
// hands every design its own cursor (workload.Fork), so each design sees
// the same references and the cell pays for one build. The stream lives
// as long as the cell.
func (e *runEnv) stream(cs Scale, spec workload.Spec) workload.Stream {
	return spec.Build(e.base, e.fp, simrand.New(cs.Seed))
}

// run drives a cursor over built, the cell's stream of the named
// workload, through an MMU built over the environment: it attaches
// telemetry under the workload's labels, the caller's and then the
// environment's, runs warmup and measurement (runStream), flushes the
// MMU's and the environment's telemetry, and names the labelled run, the
// design and the seed in any error.
func (e *runEnv) run(ctx context.Context, cs Scale, m *mmu.MMU, name string, built workload.Stream, labels ...string) (mmu.Stats, error) {
	labels = append(append([]string{"workload", name}, labels...), e.labels...)
	if cs.Telemetry != nil {
		m.AttachTelemetry(cs.Telemetry.With(labels...))
	}
	st, err := runStream(ctx, cs, m, workload.Fork(built))
	if err != nil {
		what := ""
		for i := 1; i < len(labels); i += 2 {
			what += labels[i] + "/"
		}
		return mmu.Stats{}, fmt.Errorf("%s%s (seed %d): %w", what, m.Name(), cs.Seed, err)
	}
	if cs.Telemetry != nil {
		m.FlushTelemetry()
		if e.flush != nil {
			e.flush()
		}
	}
	return st, nil
}

// measure runs one workload on one design in the environment, on a
// cursor over built (the cell's stream of spec), under the caller's
// labels, returning functional stats, the runtime estimate and the
// caches the run charged.
func (e *runEnv) measure(ctx context.Context, cs Scale, spec workload.Spec, built workload.Stream, ds mmu.DesignSpec, labels ...string) (mmu.Stats, perfmodel.Estimate, *cachesim.Hierarchy, error) {
	m, caches, err := e.build(ds)
	if err != nil {
		return mmu.Stats{}, perfmodel.Estimate{}, nil, err
	}
	st, err := e.run(ctx, cs, m, spec.Name, built, labels...)
	if err != nil {
		return mmu.Stats{}, perfmodel.Estimate{}, nil, err
	}
	return st, perfmodel.Default(spec.BaseCPI, spec.RefsPerInstr).Runtime(st), caches, nil
}

// per returns scale*num/den, or 0 when den is 0: the per-access and
// per-walk rates of the study tables.
func per(scale float64, num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return scale * float64(num) / float64(den)
}

// nativeEnv is one native-CPU simulation environment: physical memory, an
// OS address space with a chosen page-size policy, an optional memhog.
type nativeEnv struct {
	runEnv
	phys *physmem.Buddy
	hog  *physmem.Memhog
	as   *osmm.AddressSpace

	// telFlushed makes flushTelemetry idempotent: an environment is often
	// measured under several designs, but its OS/buddy/contiguity snapshot
	// must export exactly once.
	telFlushed bool
}

// flushTelemetry exports the environment's OS-layer snapshot (allocation
// counters, buddy fragmentation, contiguity histograms) at most once.
func (e *nativeEnv) flushTelemetry() {
	if e.telFlushed {
		return
	}
	e.telFlushed = true
	e.as.FlushTelemetry()
}

// pollute sets how far a memhog load of frac pollutes memory. Heavy
// background load does not just consume memory: on long-loaded systems,
// migratetype fallbacks let unmovable allocations pollute movable
// pageblocks, which is what ultimately defeats compaction and pushes the
// OS into the mixed / mostly-small-pages regimes of Fig 9. Loads below
// half of memory leave the hog's defaults.
func pollute(hog *physmem.Memhog, frac float64) {
	if frac < 0.5 {
		return
	}
	hog.UnmovableFrac = min(0.25+(frac-0.4)*1.75, 0.95)
	hog.UnmovableScatterFrac = min((frac-0.4)*4, 1)
}

// newNative builds an environment: memhog fragments first (background
// load), then the address space is created (reserving hugetlbfs pools
// under that fragmentation) and the footprint is faulted in ascending
// order.
func newNative(s Scale, policy osmm.Policy, memhogFrac float64) (*nativeEnv, error) {
	phys := physmem.NewBuddy(s.MemoryBytes)
	hog := physmem.NewMemhog(phys, simrand.New(s.Seed^0x9e37))
	pollute(hog, memhogFrac)
	if memhogFrac > 0 {
		hog.Run(memhogFrac)
	}
	// The workload takes whatever memory the hog left over (the paper's
	// machines run footprints the size of memory; this simulator cannot
	// swap, so populate stops gracefully at exhaustion and the stream
	// runs over what was mapped).
	fp := s.FootprintBytes
	if free := phys.FreeFrames() * addr.Size4K * 97 / 100; fp > free {
		fp = addr.AlignedDown(free, addr.Size2M)
	}
	cfg := osmm.Config{Policy: policy, Compactor: hog, ISA: s.ISA}
	switch policy {
	case osmm.Hugetlbfs2M, osmm.Hugetlbfs1G:
		cfg.PoolBytes = fp
	}
	as, err := osmm.New(phys, cfg)
	if err != nil {
		return nil, err
	}
	if s.Telemetry != nil {
		// Attach before Populate so demand-fault map counts are captured.
		as.AttachTelemetry(s.Telemetry)
		as.PageTable().AttachTelemetry(s.Telemetry)
	}
	base, err := as.Mmap(fp)
	if err != nil {
		return nil, err
	}
	mapped, err := as.Populate(base, fp)
	if err != nil {
		if mapped < 8*addr.Size2M {
			return nil, fmt.Errorf("populate: %w (only %d bytes fit)", err, mapped)
		}
		fp = addr.AlignedDown(mapped, addr.Size2M) // memory exhausted: run over what fit
	}
	env := &nativeEnv{phys: phys, hog: hog, as: as}
	env.runEnv = runEnv{src: as.PageTable(), pt: as.PageTable(), fault: as.HandleFault,
		base: base, fp: fp, flush: env.flushTelemetry}
	return env, nil
}

// ctxCheckStride is how many refs a stream loop simulates between
// cancellation checks: frequent enough that cancel latency stays in the
// low milliseconds, rare enough to be free.
const ctxCheckStride = 8192

// translateBatch is the chunk size of the batched simulation loop: large
// enough to amortize interface dispatch and the batch-call overhead, small
// enough that the three scratch arrays stay cache-resident. It divides
// ctxCheckStride so cancellation checks land on the same reference indices
// as the scalar loop did.
const translateBatch = 512

// runStream drives refs through an MMU: warmup, reset, measure. References
// are generated and translated in chunks (workload.FillBatch feeding
// mmu.TranslateBatch), which produces bit-identical statistics to the
// scalar loop while paying per-chunk instead of per-reference dispatch.
// The context is a cancellation checkpoint — a canceled grid stops
// mid-stream rather than finishing a multi-second simulation whose result
// will be discarded.
//
// When the scale requests attribution (LedgerAudit or TailK) and the
// caller has not already wired a ledger, one is attached before warmup;
// after measurement the conservation audit runs and the tail recorder
// flushes. Both observe without influencing: st is read before any of it.
func runStream(ctx context.Context, cs Scale, m *mmu.MMU, stream workload.Stream) (mmu.Stats, error) {
	warmup, measure := cs.WarmupRefs, cs.MeasureRefs
	led := m.Ledger()
	if led == nil && (cs.LedgerAudit || cs.TailK > 0) {
		led = ledger.New(cs.TailK)
		m.AttachLedger(led)
	}
	var (
		refs [translateBatch]workload.Ref
		reqs [translateBatch]tlb.Request
		out  [translateBatch]mmu.Result
	)
	run := func(total uint64, faultFmt string) error {
		for done := uint64(0); done < total; {
			if done%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			n := uint64(len(refs))
			if rem := total - done; rem < n {
				n = rem
			}
			workload.FillBatch(stream, refs[:n])
			for i := uint64(0); i < n; i++ {
				reqs[i] = tlb.Request{VA: refs[i].VA, Write: refs[i].Write, PC: refs[i].PC}
			}
			k := m.TranslateBatch(reqs[:n], out[:n])
			if k > 0 && out[k-1].Faulted {
				return fmt.Errorf(faultFmt, refs[k-1].VA)
			}
			done += n
		}
		return nil
	}
	if err := run(warmup, "fault at %v during warmup"); err != nil {
		return mmu.Stats{}, err
	}
	m.ResetStats()
	if err := run(measure, "fault at %v"); err != nil {
		return mmu.Stats{}, err
	}
	st := m.Stats()
	if led != nil {
		if err := led.Audit(st.Cycles); err != nil {
			return mmu.Stats{}, fmt.Errorf("%s: %w", m.Name(), err)
		}
		flushTail(cs, m, led)
	}
	return st, nil
}

// flushTail exports a cell's K slowest translations as "tail" instant
// trace events: rank order, simulated-cycle stamp, and the merged charge
// trail. The records surface in the telemetry JSONL export and the
// /debug/tail endpoints; they never touch tables or goldens.
func flushTail(cs Scale, m *mmu.MMU, led *ledger.Ledger) {
	if cs.Telemetry == nil {
		return
	}
	for i, r := range led.Top() {
		served := "walk"
		switch {
		case r.Faulted:
			served = "fault"
		case r.HitLevel >= 0:
			served = fmt.Sprintf("L%d", r.HitLevel+1)
		}
		cs.Telemetry.Instant("tail", "slow_translation", r.Cycles,
			"design", m.Name(),
			"rank", strconv.Itoa(i),
			"va", fmt.Sprintf("0x%x", r.VA),
			"size", r.Size.String(),
			"served", served,
			"walk_refs", strconv.Itoa(int(r.WalkRefs)),
			"retries", strconv.Itoa(int(r.Retries)),
			"seq", strconv.FormatUint(r.Seq, 10),
			"trail", ledger.TrailString(r.Trail()))
	}
}

// vmEnv is a consolidated virtualized environment. Its runEnv runs
// designs inside VM 0.
type vmEnv struct {
	runEnv
	vms []*virt.VM
}

// newVirt consolidates `vms` guests on one host, each running memhog at
// guestHogFrac inside the VM (the Fig 10 methodology), with THS guests.
func newVirt(s Scale, vms int, guestHogFrac float64) (*vmEnv, error) {
	m := virt.NewMachine(s.MemoryBytes, simrand.New(s.Seed^0x51))
	env := &vmEnv{}
	// Guests split the host memory as in Sec 7.1 (8 x 10GB on 80GB).
	guestBytes := s.MemoryBytes / uint64(vms)
	fp := guestBytes / 2
	for i := 0; i < vms; i++ {
		vm, err := m.AddVM(guestBytes, osmm.Config{Policy: osmm.THS}, simrand.New(s.Seed+uint64(i)))
		if err != nil {
			return nil, err
		}
		if guestHogFrac > 0 {
			vm.GuestHog().Run(guestHogFrac)
		}
		base, err := vm.GuestAS().Mmap(fp)
		if err != nil {
			return nil, err
		}
		if _, err := vm.Populate(base, fp); err != nil {
			return nil, fmt.Errorf("VM %d populate: %w", i, err)
		}
		if i == 0 {
			env.runEnv = runEnv{src: vm.Walker(), fault: vm.HandleFault,
				base: base, fp: fp, labels: []string{"env", "virt"}}
		}
		env.vms = append(env.vms, vm)
	}
	return env, nil
}

// Registry maps experiment names to their functions for the CLI.
type Experiment struct {
	Name string
	Desc string
	Run  func(context.Context, Scale) (*stats.Table, error)
}

// All lists every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig1", "% runtime in address translation: split vs ideal across page-size policies", Figure1},
		{"fig9", "fraction of footprint in superpages vs memhog fragmentation", Figure9},
		{"fig10", "superpage fraction vs VM consolidation x memhog", Figure10},
		{"fig11", "average superpage contiguity vs memhog (2MB and 1GB)", Figure11},
		{"fig12", "superpage contiguity CDF, native CPU", Figure12},
		{"fig13", "superpage contiguity CDF, virtualized and GPU", Figure13},
		{"fig14", "% performance improvement of MIX vs split", Figure14},
		{"fig15l", "MIX improvement vs split as memhog varies", Figure15Left},
		{"fig15r", "overhead vs ideal TLB: split and MIX curves", Figure15Right},
		{"fig16", "performance-energy tradeoffs: skew+pred, rehash+pred, MIX", Figure16},
		{"fig17", "dynamic energy breakdown by TLB activity (GPU)", Figure17},
		{"fig18", "COLT, COLT++, MIX and MIX+COLT vs split", Figure18},
		{"ablation-index", "Sec 3 ablation: superpage index bits vs small-page index bits", AblationIndexBits},
		{"scaling", "Sec 7.2 scaling study: set counts up to 512", ScalingStudy},
		{"duplicates", "Sec 4.3 duplicate creation and elimination study", DuplicateStudy},
		{"invalidation", "Sec 4.4 invalidation study: shootdown refill traffic by design", InvalidationStudy},
		{"hierarchy", "registry designs compared: per-level hits, walk traffic, PWC effect", HierarchyStudy},
		{"reach", "coalesced SRAM reach (MIX) vs spilled cache reach (Victima) under fragmentation", ReachStudy},
		{"chaos", "fault injection: TLB/PTE corruption, lost IPIs, transient OOM — detection and recovery rates", ChaosStudy},
		{"breakdown", "cycle attribution: where each design's translation cycles go, conservation-audited", Breakdown},
		{"xisa", "cross-ISA study: headline designs over radix depth (LA57, Sv48) and contiguity encodings (SVNAPOT, ARM64 contig)", CrossISAStudy},
	}
}

// Names lists every experiment name in paper order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, e := range all {
		names[i] = e.Name
	}
	return names
}

// UnknownExperimentError reports a requested experiment that does not
// exist, carrying the valid names so callers (the CLI) can print them
// instead of silently running nothing.
type UnknownExperimentError struct {
	Name  string
	Valid []string
}

func (e *UnknownExperimentError) Error() string {
	return fmt.Sprintf("experiments: unknown experiment %q (valid: %s)",
		e.Name, strings.Join(e.Valid, ", "))
}

// UnknownWorkloadError reports a requested workload missing from the
// catalog. Before this check, a typo in -workloads made every experiment
// iterate over an empty workload set and print empty tables.
type UnknownWorkloadError struct {
	Name  string
	Valid []string
}

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("experiments: unknown workload %q (valid: %s)",
		e.Name, strings.Join(e.Valid, ", "))
}

// ByName finds an experiment, returning *UnknownExperimentError with the
// valid names when it does not exist.
func ByName(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, &UnknownExperimentError{Name: name, Valid: Names()}
}
