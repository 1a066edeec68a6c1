package experiments

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"mixtlb/internal/chaos"
	"mixtlb/internal/isa"
	"mixtlb/internal/mmu"
	"mixtlb/internal/workload"
)

// RunSpec is a run's settings as a person states them: mixtlb's flags
// fill one, so a run is declared, defaulted and validated in one place.
// Zero values keep the scale preset's setting; Scale turns a spec into the
// engine's Scale.
type RunSpec struct {
	Quick       bool
	MemGB       uint64
	FootprintGB uint64
	Refs        uint64 // measured refs per cell; warm-up is half
	Seed        uint64
	Workloads   []string
	Designs     []string
	ISA         string
	FaultScale  float64
	Jobs        int
	Cell        string
	LedgerAudit bool
	TailK       int
}

// MaxMemoryGB caps -mem-gb and -footprint-gb at 3.2x the paper's 80 GB
// machine. Every machine a cell builds keeps a buddy tree of 2 bytes per
// 4 KB frame (128 MiB at the cap); an uncapped size could exhaust host
// memory, which Go reports as a fatal error that no recover catches.
const MaxMemoryGB = 256

// DefaultRunSpec is the spec nobody configured: the default scale with
// chaos fault rates at 1x. mixtlb's flag defaults are its values.
func DefaultRunSpec() RunSpec { return RunSpec{FaultScale: 1} }

// FieldError reports a RunSpec field, by its mixtlb flag name, whose value
// cannot configure a run.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return fmt.Sprintf("experiments: bad %s: %v", e.Field, e.Err) }

func (e *FieldError) Unwrap() error { return e.Err }

// RegisterFlags declares r's fields as flags on fs, with r's current
// values as defaults.
func (r *RunSpec) RegisterFlags(fs *flag.FlagSet) {
	list := func(dst *[]string) func(string) error {
		return func(v string) error {
			*dst = nil
			if v != "" {
				*dst = strings.Split(v, ",")
			}
			return nil
		}
	}
	fs.BoolVar(&r.Quick, "quick", r.Quick, "use the small quick scale instead of the default")
	fs.Uint64Var(&r.MemGB, "mem-gb", r.MemGB, fmt.Sprintf("override system memory (GiB, at most %d)", MaxMemoryGB))
	fs.Uint64Var(&r.FootprintGB, "footprint-gb", r.FootprintGB, fmt.Sprintf("override workload footprint (GiB, at most %d)", MaxMemoryGB))
	fs.Uint64Var(&r.Refs, "refs", r.Refs, "override measured references per simulation")
	fs.Uint64Var(&r.Seed, "seed", r.Seed, "override random seed")
	fs.Func("workloads", "comma-separated workload subset (default: all)", list(&r.Workloads))
	fs.Func("designs", "comma-separated design subset for the hierarchy experiment (default: its built-in set)", list(&r.Designs))
	fs.StringVar(&r.ISA, "isa", r.ISA, "translation ISA descriptor for every native environment (see -list; default x86-64)")
	fs.Float64Var(&r.FaultScale, "fault-scale", r.FaultScale, "multiply the default chaos fault rates")
	fs.IntVar(&r.Jobs, "jobs", r.Jobs, "worker-pool size for experiment cells (0 = GOMAXPROCS)")
	fs.StringVar(&r.Cell, "cell", r.Cell, "run only grid cells whose name contains this substring")
	fs.BoolVar(&r.LedgerAudit, "ledger-audit", r.LedgerAudit, "attach the cycle-attribution ledger to every cell and fail cells whose books do not balance")
	fs.IntVar(&r.TailK, "tail", r.TailK, "record the K slowest translations per cell in the tail flight recorder (0 disables)")
}

// Scale builds the run: the quick or default preset, overridden by r's
// non-zero fields, with designs resolved in reg (nil = the builtins). It
// is the one place a run's settings are checked. An unknown name returns
// *UnknownWorkloadError, *mmu.UnknownDesignError or *isa.UnknownISAError;
// a size above MaxMemoryGB returns *FieldError.
func (r RunSpec) Scale(reg *mmu.Registry) (Scale, error) {
	s := DefaultScale()
	if r.Quick {
		s = QuickScale()
	}
	for _, f := range []struct {
		name string
		gb   uint64
		dst  *uint64
	}{{"mem-gb", r.MemGB, &s.MemoryBytes}, {"footprint-gb", r.FootprintGB, &s.FootprintBytes}} {
		if f.gb > MaxMemoryGB {
			return Scale{}, &FieldError{f.name, fmt.Errorf("%d GiB is above the %d GiB ceiling", f.gb, MaxMemoryGB)}
		}
		if f.gb > 0 {
			*f.dst = f.gb << 30
		}
	}
	if r.Refs > 0 {
		s.MeasureRefs, s.WarmupRefs = r.Refs, r.Refs/2
	}
	if r.Seed > 0 {
		s.Seed = r.Seed
	}
	if len(r.Workloads) > 0 {
		s.Workloads = r.Workloads
	}
	if len(r.Designs) > 0 {
		s.Designs = r.Designs
	}
	if r.FaultScale != 1 {
		s.Chaos = chaos.DefaultRates().Scaled(r.FaultScale)
	}
	s.ISA, s.Registry = r.ISA, reg
	s.Jobs, s.Cell, s.LedgerAudit, s.TailK = r.Jobs, r.Cell, r.LedgerAudit, r.TailK

	var valid []string
	for _, spec := range workload.Catalog() {
		valid = append(valid, spec.Name)
	}
	for _, name := range s.Workloads {
		if !slices.Contains(valid, name) {
			return Scale{}, &UnknownWorkloadError{Name: name, Valid: valid}
		}
	}
	for _, name := range s.Designs {
		if _, ok := s.registry().Lookup(name); !ok {
			return Scale{}, &mmu.UnknownDesignError{Name: name, Valid: s.registry().Names()}
		}
	}
	if _, err := isa.Lookup(s.ISA); err != nil {
		return Scale{}, err
	}
	return s, nil
}
