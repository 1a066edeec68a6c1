package mmu

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/tlb"
)

// validSpec returns a minimal valid spec for mutation in error tests.
func validSpec() DesignSpec {
	return DesignSpec{
		Name: "test-design",
		Levels: []LevelSpec{
			{Kind: KindMix, Sets: 16, Ways: 4},
		},
	}
}

func TestDesignSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*DesignSpec)
		level   int    // expected DesignSpecError.Level
		field   string // expected DesignSpecError.Field
		inError string // substring expected in the message
	}{
		{"empty-name", func(s *DesignSpec) { s.Name = "" }, -1, "name", "empty"},
		{"comma-name", func(s *DesignSpec) { s.Name = "a,b" }, -1, "name", "commas"},
		{"space-name", func(s *DesignSpec) { s.Name = "a b" }, -1, "name", "whitespace"},
		{"no-levels", func(s *DesignSpec) { s.Levels = nil }, -1, "levels", "at least one"},
		{"negative-pwc", func(s *DesignSpec) { s.PWCEntries = -1 }, -1, "pwc_entries", "negative"},
		{"unknown-kind", func(s *DesignSpec) { s.Levels[0].Kind = "quantum" }, 0, "kind", "unknown level kind"},
		{"missing-kind", func(s *DesignSpec) { s.Levels[0].Kind = "" }, 0, "kind", "missing"},
		{"zero-sets", func(s *DesignSpec) { s.Levels[0].Sets = 0 }, 0, "sets", "power of two"},
		{"non-pow2-sets", func(s *DesignSpec) { s.Levels[0].Sets = 12 }, 0, "sets", "power of two"},
		{"zero-ways", func(s *DesignSpec) { s.Levels[0].Ways = 0 }, 0, "ways", "positive"},
		{"non-pow2-coalesce", func(s *DesignSpec) { s.Levels[0].Coalesce = 3 }, 0, "coalesce", "power of two"},
		{"oversized-bitmap-coalesce", func(s *DesignSpec) { s.Levels[0].Coalesce = 128 }, 0, "coalesce", "at most 64"},
		{"negative-small-coalesce", func(s *DesignSpec) { s.Levels[0].SmallCoalesce = -2 }, 0, "small_coalesce", "non-negative"},
		{"bad-encoding", func(s *DesignSpec) { s.Levels[0].Encoding = "huffman" }, 0, "encoding", "bitmap"},
		{"predictor-on-mix", func(s *DesignSpec) { s.Levels[0].PredictorEntries = 64 }, 0, "predictor_entries", "rehash"},
		{"geometry-on-fixed-kind", func(s *DesignSpec) {
			s.Levels[0] = LevelSpec{Kind: KindHaswellL1, Sets: 8, Ways: 2}
		}, 0, "kind", "fixed geometry"},
		{"knobs-on-predicted-kind", func(s *DesignSpec) {
			s.Levels[0] = LevelSpec{Kind: KindRehashPred, Sets: 16, Ways: 4, SmallCoalesce: 4}
		}, 0, "kind", "no coalescing"},
		{"ideal-with-sibling-levels", func(s *DesignSpec) {
			s.Levels = []LevelSpec{{Kind: KindIdeal}, {Kind: KindHaswellL2}}
		}, 0, "kind", "only level"},
		{"victim-not-deepest", func(s *DesignSpec) {
			s.Levels = []LevelSpec{{Kind: KindHaswellL1},
				{Kind: KindVictim, Sets: 8, Ways: 2}, {Kind: KindHaswellL2}}
		}, 1, "kind", "deepest"},
		{"victim-as-only-level", func(s *DesignSpec) {
			s.Levels = []LevelSpec{{Kind: KindVictim, Sets: 8, Ways: 2}}
		}, 0, "kind", "demote from"},
		{"victim-non-pow2-sets", func(s *DesignSpec) {
			s.Levels = append(s.Levels, LevelSpec{Kind: KindVictim, Sets: 12, Ways: 2})
		}, 1, "sets", "power of two"},
		{"victim-zero-ways", func(s *DesignSpec) {
			s.Levels = append(s.Levels, LevelSpec{Kind: KindVictim, Sets: 8})
		}, 1, "ways", "positive"},
		{"victim-with-coalescing", func(s *DesignSpec) {
			s.Levels = append(s.Levels, LevelSpec{Kind: KindVictim, Sets: 8, Ways: 2, Coalesce: 4})
		}, 1, "kind", "only sets/ways"},
		{"victim-with-hit-latency", func(s *DesignSpec) {
			s.Levels = append(s.Levels, LevelSpec{Kind: KindVictim, Sets: 8, Ways: 2, HitLatency: 9})
		}, 1, "hit_latency", "data-cache accesses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate() accepted %+v", s)
			}
			var se *DesignSpecError
			if !errors.As(err, &se) {
				t.Fatalf("error type %T, want *DesignSpecError", err)
			}
			if se.Level != tc.level || se.Field != tc.field {
				t.Errorf("error at level=%d field=%q, want level=%d field=%q (%v)",
					se.Level, se.Field, tc.level, tc.field, se)
			}
			if !strings.Contains(err.Error(), tc.inError) {
				t.Errorf("error %q does not mention %q", err, tc.inError)
			}
		})
	}
	if err := validSpec().Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

func TestRegistryBuiltinsConstruct(t *testing.T) {
	e := newEnv(t)
	reg := DefaultRegistry()
	names := reg.Names()
	if len(names) != 15 {
		t.Errorf("%d builtin designs registered, want 15: %v", len(names), names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Errorf("duplicate design name %q", n)
		}
		seen[n] = true
		m, err := reg.Build(n, e.pt, e.pt, e.caches, nil)
		if err != nil {
			t.Errorf("design %q failed to build: %v", n, err)
			continue
		}
		if m.Name() != n {
			t.Errorf("design %q built MMU named %q", n, m.Name())
		}
		if m.Depth() < 1 {
			t.Errorf("design %q has no hierarchy levels", n)
		}
	}
	// Every Design constant must resolve.
	for _, d := range append(AllDesigns(), DesignMixSuperIndex, DesignMixRange,
		DesignMixAsL2, DesignSplitPWC, DesignVictima, DesignMixVictima, DesignVictimaLite) {
		if _, ok := reg.Lookup(d); !ok {
			t.Errorf("design constant %q missing from registry", d)
		}
	}
}

func TestRegistryDuplicateAndUnknown(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(validSpec()); err != nil {
		t.Fatal(err)
	}
	err := reg.Register(validSpec())
	var se *DesignSpecError
	if !errors.As(err, &se) || se.Field != "name" || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate registration: got %v, want *DesignSpecError on name", err)
	}
	e := newEnv(t)
	_, err = reg.Build("nope", e.pt, e.pt, e.caches, nil)
	var ue *UnknownDesignError
	if !errors.As(err, &ue) {
		t.Fatalf("unknown build: got %T (%v), want *UnknownDesignError", err, err)
	}
	if ue.Name != "nope" || len(ue.Valid) != 1 || ue.Valid[0] != "test-design" {
		t.Errorf("UnknownDesignError = %+v", ue)
	}
}

func TestRegistrySpecsSortedAndDescribed(t *testing.T) {
	reg := DefaultRegistry()
	specs := reg.Specs()
	for i, s := range specs {
		if i > 0 && specs[i-1].Name >= s.Name {
			t.Errorf("Specs() out of order at %d: %q >= %q", i, specs[i-1].Name, s.Name)
		}
		if s.Desc == "" {
			t.Errorf("builtin design %q has no description", s.Name)
		}
	}
}

func TestIdealSpecRequiresPageTable(t *testing.T) {
	reg := DefaultRegistry()
	spec, ok := reg.Lookup(string(DesignIdeal))
	if !ok {
		t.Fatal("ideal not registered")
	}
	if _, err := spec.BuildTLBs(nil); err == nil {
		t.Error("ideal built without a page table")
	}
}

func TestParseSpecs(t *testing.T) {
	good := `[
	  {"name": "custom", "levels": [
	    {"kind": "mix", "sets": 32, "ways": 4, "encoding": "range"},
	    {"kind": "haswell-l2"}
	  ], "pwc": true}
	]`
	specs, err := ParseSpecBytes([]byte(good))
	if err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	if len(specs) != 1 || specs[0].Name != "custom" || !specs[0].PWC {
		t.Errorf("parsed %+v", specs)
	}
	e := newEnv(t)
	m, err := specs[0].Build(e.pt, e.pt, e.caches, nil)
	if err != nil {
		t.Fatalf("parsed spec failed to build: %v", err)
	}
	if m.Depth() != 2 || m.PWC() == nil {
		t.Errorf("built MMU depth=%d pwc=%v", m.Depth(), m.PWC())
	}

	for name, bad := range map[string]string{
		"unknown-field": `[{"name": "x", "levles": []}]`,
		"bad-kind":      `[{"name": "x", "levels": [{"kind": "nope"}]}]`,
		"not-an-array":  `{"name": "x"}`,
		"trailing-data": `[] []`,
		"bad-geometry":  `[{"name": "x", "levels": [{"kind": "mix", "sets": 3, "ways": 1}]}]`,
	} {
		if _, err := ParseSpecBytes([]byte(bad)); err == nil {
			t.Errorf("%s accepted: %s", name, bad)
		}
	}
}

func TestSpecISAValidation(t *testing.T) {
	// An unknown ISA name fails up front with the typed error listing
	// every valid descriptor, not a generic build failure.
	s := validSpec()
	s.ISA = "vax"
	err := s.Validate()
	var ie *isa.UnknownISAError
	if !errors.As(err, &ie) {
		t.Fatalf("unknown ISA: got %T (%v), want *isa.UnknownISAError", err, err)
	}
	if ie.Name != "vax" || len(ie.Valid) != len(isa.Names()) {
		t.Errorf("UnknownISAError = %+v", ie)
	}

	// On a contiguity-encoding descriptor, a MIX level whose superpage
	// bundle capacity cannot cover one hardware block is rejected.
	s = validSpec()
	s.ISA = "sv48-napot"
	s.Levels[0].Coalesce = 8
	err = s.Validate()
	var se *DesignSpecError
	if !errors.As(err, &se) || se.Field != "coalesce" {
		t.Fatalf("undersized coalesce: got %v, want *DesignSpecError on coalesce", err)
	}
	if !strings.Contains(err.Error(), "contiguity blocks") {
		t.Errorf("error %q does not mention contiguity blocks", err)
	}
	s.Levels[0].Coalesce = 16
	if err := s.Validate(); err != nil {
		t.Errorf("block-covering coalesce rejected: %v", err)
	}

	// A design pinned to one ISA refuses to build against a page table
	// implementing another.
	e := newEnv(t) // default x86-64 page table
	s = validSpec()
	s.ISA = "sv39"
	if _, err := s.Build(e.pt, e.pt, e.caches, nil); err == nil ||
		!strings.Contains(err.Error(), `implements "x86-64"`) {
		t.Errorf("ISA-pinned build on mismatched page table: got %v", err)
	}
	s.ISA = "x86-64"
	if _, err := s.Build(e.pt, e.pt, e.caches, nil); err != nil {
		t.Errorf("matching ISA pin rejected: %v", err)
	}
}

func TestSpecHitLatencyOverride(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	spec := DesignSpec{
		Name: "slow-l1",
		Levels: []LevelSpec{
			{Kind: KindMix, Sets: 16, Ways: 4, HitLatency: 9},
		},
	}
	m, err := spec.Build(e.pt, e.pt, e.caches, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Translate(tlb.Request{VA: 0x1000})
	r := m.Translate(tlb.Request{VA: 0x1000})
	if r.HitLevel != 0 || r.Cycles != 9 {
		t.Errorf("overridden L1 hit: %+v, want 9 cycles", r)
	}
}
