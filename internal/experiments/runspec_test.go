package experiments

import (
	"errors"
	"flag"
	"reflect"
	"testing"

	"mixtlb/internal/chaos"
	"mixtlb/internal/isa"
	"mixtlb/internal/mmu"
)

// TestRunSpecScale is RunSpec's table: each spec either builds a Scale
// that check accepts, or fails with the typed error naming what is wrong.
func TestRunSpecScale(t *testing.T) {
	t.Parallel()
	quick := func(edit func(*RunSpec)) RunSpec {
		r := DefaultRunSpec()
		r.Quick = true
		if edit != nil {
			edit(&r)
		}
		return r
	}
	fieldErr := func(field string) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			var fe *FieldError
			if !errors.As(err, &fe) || fe.Field != field {
				t.Errorf("error = %T %v, want *FieldError for %s", err, err, field)
			}
		}
	}
	cases := []struct {
		name  string
		spec  RunSpec
		check func(*testing.T, Scale)
		fails func(*testing.T, error)
	}{
		{name: "default", spec: DefaultRunSpec(), check: func(t *testing.T, s Scale) {
			if s.Fingerprint() != DefaultScale().Fingerprint() {
				t.Errorf("fingerprint %q, want DefaultScale's", s.Fingerprint())
			}
		}},
		{name: "quick", spec: quick(nil), check: func(t *testing.T, s Scale) {
			if s.Fingerprint() != QuickScale().Fingerprint() {
				t.Errorf("fingerprint %q, want QuickScale's", s.Fingerprint())
			}
		}},
		{name: "overrides", spec: quick(func(r *RunSpec) {
			r.MemGB, r.FootprintGB, r.Refs, r.Seed = 2, 1, 1000, 7
			r.FaultScale, r.Jobs, r.TailK = 0, 3, 4
		}), check: func(t *testing.T, s Scale) {
			if s.MemoryBytes != 2<<30 || s.FootprintBytes != 1<<30 || s.MeasureRefs != 1000 ||
				s.WarmupRefs != 500 || s.Seed != 7 ||
				s.Chaos != chaos.DefaultRates().Scaled(0) || s.Jobs != 3 || s.TailK != 4 {
				t.Errorf("overrides not applied: %+v", s)
			}
		}},
		{name: "mem at ceiling", spec: quick(func(r *RunSpec) { r.MemGB = MaxMemoryGB }), check: func(t *testing.T, s Scale) {
			if s.MemoryBytes != MaxMemoryGB<<30 {
				t.Errorf("MemoryBytes = %d", s.MemoryBytes)
			}
		}},
		{name: "mem above ceiling", spec: quick(func(r *RunSpec) { r.MemGB = MaxMemoryGB + 1 }), fails: fieldErr("mem-gb")},
		{name: "mem far above ceiling", spec: quick(func(r *RunSpec) { r.MemGB = 65536 }), fails: fieldErr("mem-gb")},
		{name: "mem shifts to zero", spec: quick(func(r *RunSpec) { r.MemGB = 1 << 34 }), fails: fieldErr("mem-gb")},
		{name: "mem shifts to all ones", spec: quick(func(r *RunSpec) { r.MemGB = 1<<34 - 1 }), fails: fieldErr("mem-gb")},
		{name: "footprint above ceiling", spec: quick(func(r *RunSpec) { r.FootprintGB = MaxMemoryGB + 1 }), fails: fieldErr("footprint-gb")},
		{name: "footprint shifts to zero", spec: quick(func(r *RunSpec) { r.FootprintGB = 1 << 34 }), fails: fieldErr("footprint-gb")},
		{name: "workload subset", spec: quick(func(r *RunSpec) { r.Workloads = []string{"gups"} }), check: func(t *testing.T, s Scale) {
			if !reflect.DeepEqual(s.Workloads, []string{"gups"}) {
				t.Errorf("Workloads = %v", s.Workloads)
			}
		}},
		{name: "unknown workload", spec: quick(func(r *RunSpec) { r.Workloads = []string{"gups", "not-a-workload"} }),
			fails: func(t *testing.T, err error) {
				var uw *UnknownWorkloadError
				if !errors.As(err, &uw) || uw.Name != "not-a-workload" || len(uw.Valid) == 0 {
					t.Errorf("error = %T %+v, want *UnknownWorkloadError naming not-a-workload", err, err)
				}
			}},
		{name: "design subset", spec: quick(func(r *RunSpec) { r.Designs = []string{"split", "mix"} }), check: func(t *testing.T, s Scale) {
			if !reflect.DeepEqual(s.Designs, []string{"split", "mix"}) {
				t.Errorf("Designs = %v", s.Designs)
			}
		}},
		{name: "unknown design", spec: quick(func(r *RunSpec) { r.Designs = []string{"nope"} }),
			fails: func(t *testing.T, err error) {
				var ud *mmu.UnknownDesignError
				if !errors.As(err, &ud) || ud.Name != "nope" || len(ud.Valid) == 0 {
					t.Errorf("error = %T %+v, want *mmu.UnknownDesignError naming nope", err, err)
				}
			}},
		{name: "isa", spec: quick(func(r *RunSpec) { r.ISA = "sv39" }), check: func(t *testing.T, s Scale) {
			if s.ISA != "sv39" {
				t.Errorf("ISA = %q", s.ISA)
			}
		}},
		{name: "unknown isa", spec: quick(func(r *RunSpec) { r.ISA = "pdp-11" }),
			fails: func(t *testing.T, err error) {
				var ui *isa.UnknownISAError
				if !errors.As(err, &ui) || ui.Name != "pdp-11" {
					t.Errorf("error = %T %+v, want *isa.UnknownISAError naming pdp-11", err, err)
				}
			}},
	}
	for _, c := range cases {
		s, err := c.spec.Scale(nil)
		switch {
		case c.fails != nil && err == nil:
			t.Errorf("%s: accepted, want an error", c.name)
		case c.fails != nil:
			c.fails(t, err)
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		default:
			c.check(t, s)
		}
	}
}

// TestRunSpecFlags checks that the flags default to DefaultRunSpec and
// fill the fields they are named after.
func TestRunSpecFlags(t *testing.T) {
	t.Parallel()
	parse := func(args ...string) RunSpec {
		r := DefaultRunSpec()
		fs := flag.NewFlagSet("mixtlb", flag.ContinueOnError)
		r.RegisterFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return r
	}
	if got := parse(); !reflect.DeepEqual(got, DefaultRunSpec()) {
		t.Errorf("no flags: %+v, want DefaultRunSpec", got)
	}
	got := parse("-quick", "-mem-gb", "2", "-footprint-gb", "1", "-refs", "9", "-seed", "7",
		"-workloads", "gups,mcf", "-designs", "split", "-isa", "sv39", "-fault-scale", "0.5",
		"-jobs", "3", "-cell", "hog", "-ledger-audit", "-tail", "8")
	want := RunSpec{Quick: true, MemGB: 2, FootprintGB: 1, Refs: 9, Seed: 7,
		Workloads: []string{"gups", "mcf"}, Designs: []string{"split"}, ISA: "sv39", FaultScale: 0.5,
		Jobs: 3, Cell: "hog", LedgerAudit: true, TailK: 8}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags parsed to %+v\nwant %+v", got, want)
	}
	if got := parse("-workloads", ""); got.Workloads != nil {
		t.Errorf("-workloads \"\" = %q, want all workloads (nil)", got.Workloads)
	}
}
