package mmu

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/core"
	"mixtlb/internal/isa"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/pwc"
	"mixtlb/internal/tlb"
)

// Level kinds a LevelSpec may name. Fixed kinds carry their geometry
// (the paper's area-equivalent design points); parameterized kinds take
// Sets/Ways and friends from the spec.
const (
	// KindHaswellL1 is the commercial split L1: per-size components with
	// Haswell's geometry. Fixed.
	KindHaswellL1 = "haswell-l1"
	// KindHaswellL2 is the commercial L2: shared hash-rehash array plus a
	// dedicated 1GB component. Fixed.
	KindHaswellL2 = "haswell-l2"
	// KindColtSplitL1 is the split L1 with a coalescing 4KB component
	// (CoLT). Fixed.
	KindColtSplitL1 = "colt-split-l1"
	// KindColtPPSplitL1 is the split L1 with every component coalescing
	// (COLT++). Fixed.
	KindColtPPSplitL1 = "colt++-split-l1"
	// KindMix is a MIX TLB (the paper's contribution). Parameterized:
	// Sets, Ways required; Coalesce defaults to Sets; Encoding selects
	// bitmap (default) or range bundles; SmallCoalesce adds 4KB
	// coalescing; SuperpageIndex reproduces the Sec 3 ablation.
	KindMix = "mix"
	// KindRehashPred is hash-rehash over all page sizes behind a size
	// predictor. Parameterized: Sets, Ways required; PredictorEntries
	// defaults to 512.
	KindRehashPred = "rehash+pred"
	// KindSkewPred is a skew-associative all-sizes TLB behind a size
	// predictor. Parameterized: Sets and Ways (ways per page size)
	// required; PredictorEntries defaults to 512.
	KindSkewPred = "skew+pred"
	// KindIdeal never misses on mapped pages; it must be a design's only
	// level and requires the native page table at build time.
	KindIdeal = "ideal"
	// KindVictim is a software-managed victim level resident in the data
	// caches (Victima-style): sets x ways cache-line bundles of packed
	// PTEs (tlb.BundlePTEs each), fed only by eviction-driven demotion
	// from the level above and charged data-cache accesses instead of an
	// SRAM probe latency. Parameterized: Sets, Ways required; it must be
	// the design's deepest level and cannot be the first.
	KindVictim = "victim"
)

// levelKinds lists every valid LevelSpec kind, for error messages.
var levelKinds = []string{
	KindHaswellL1, KindHaswellL2, KindColtSplitL1, KindColtPPSplitL1,
	KindMix, KindRehashPred, KindSkewPred, KindIdeal, KindVictim,
}

// LevelSpec describes one level of a design's translation hierarchy.
type LevelSpec struct {
	// Kind selects the TLB organization (one of the Kind* constants).
	Kind string `json:"kind"`
	// Name labels the level's TLB in telemetry; empty derives
	// "<design>-L<n>". Fixed kinds carry their own names.
	Name string `json:"name,omitempty"`
	// Sets and Ways give the geometry of parameterized kinds. Sets must
	// be a power of two. For skew+pred, Ways is the way count per page
	// size.
	Sets int `json:"sets,omitempty"`
	Ways int `json:"ways,omitempty"`
	// Coalesce is the MIX bundle capacity K (power of two); zero defaults
	// to Sets.
	Coalesce int `json:"coalesce,omitempty"`
	// Encoding selects MIX bundle encoding: "bitmap" (default) or
	// "range".
	Encoding string `json:"encoding,omitempty"`
	// SmallCoalesce enables MIX+COLT 4KB coalescing with bundles of this
	// many pages.
	SmallCoalesce int `json:"small_coalesce,omitempty"`
	// SuperpageIndex indexes a MIX level by superpage bits (the Sec 3
	// ablation) instead of the 4KB index bits.
	SuperpageIndex bool `json:"superpage_index,omitempty"`
	// PredictorEntries sizes the size predictor of rehash+pred and
	// skew+pred levels; zero defaults to 512.
	PredictorEntries int `json:"predictor_entries,omitempty"`
	// HitLatency overrides the cycles charged when this level is probed;
	// zero selects the MMU default (Lat.L1Hit for the first level,
	// Lat.L2Hit deeper).
	HitLatency uint64 `json:"hit_latency,omitempty"`
}

// DesignSpec declares a complete MMU design: the ordered hierarchy, the
// walker's paging-structure caches, and cost-model overrides. Specs are
// data — they validate up front and build through the Registry.
type DesignSpec struct {
	Name string `json:"name"`
	// Desc is a one-line description for listings.
	Desc string `json:"desc,omitempty"`
	// Levels is the hierarchy, probed first to last.
	Levels []LevelSpec `json:"levels"`
	// PWC attaches paging-structure caches to the walker with
	// pwc.DefaultEntries per level; PWCEntries overrides the capacity
	// (and implies PWC).
	PWC        bool `json:"pwc,omitempty"`
	PWCEntries int  `json:"pwc_entries,omitempty"`
	// FreeWalks makes misses cost nothing (the ideal yardstick).
	FreeWalks bool `json:"free_walks,omitempty"`
	// Latencies overrides the cycle model; nil uses DefaultLatencies.
	Latencies *Latencies `json:"latencies,omitempty"`
	// ISA names the translation architecture the design targets (an
	// isa.Lookup name). Empty means the design is ISA-agnostic and runs
	// on whatever descriptor the page table implements — the default
	// x86-64 when nothing selects otherwise. A non-empty ISA pins the
	// design: validation checks encoding-aware coalescing caps against
	// that descriptor, and building against a page table of a different
	// ISA is an error.
	ISA string `json:"isa,omitempty"`
}

// DesignSpecError reports an invalid DesignSpec: an unknown level kind,
// bad geometry, a duplicate design name, and so on. Level is the
// offending level index, or -1 for design-level problems.
type DesignSpecError struct {
	Design string
	Level  int
	Field  string
	Reason string
}

func (e *DesignSpecError) Error() string {
	if e.Level >= 0 {
		return fmt.Sprintf("design %q: level %d: %s: %s", e.Design, e.Level, e.Field, e.Reason)
	}
	return fmt.Sprintf("design %q: %s: %s", e.Design, e.Field, e.Reason)
}

// UnknownDesignError reports a requested design missing from the
// registry, carrying the valid names so callers (the CLI) can print them
// instead of silently running nothing.
type UnknownDesignError struct {
	Name  string
	Valid []string
}

func (e *UnknownDesignError) Error() string {
	return fmt.Sprintf("mmu: unknown design %q (valid: %s)",
		e.Name, strings.Join(e.Valid, ", "))
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// mixMaxCoalesce is the bundle-capacity ceiling core.New enforces: bitmap
// bundles carry a presence bit per slot and cap at 64; range bundles
// store two bounds and stretch to 256.
func mixMaxCoalesce(l LevelSpec) int {
	if l.Encoding == "range" {
		return 256
	}
	return 64
}

// Validate checks the spec's shape, returning a *DesignSpecError for the
// first problem. Geometry that only the TLB constructors can judge (way
// counts vs window sizes, predictor sizing) is re-checked at build time.
func (s DesignSpec) Validate() error {
	derr := func(field, reason string) error {
		return &DesignSpecError{Design: s.Name, Level: -1, Field: field, Reason: reason}
	}
	if s.Name == "" {
		return derr("name", "empty design name")
	}
	if strings.ContainsAny(s.Name, ", \t\n") {
		return derr("name", "design names may not contain commas or whitespace")
	}
	if len(s.Levels) == 0 {
		return derr("levels", "a design needs at least one hierarchy level")
	}
	if s.PWCEntries < 0 {
		return derr("pwc_entries", "negative capacity")
	}
	// Resolve the declared ISA up front; the typed *isa.UnknownISAError
	// carries the valid names for CLI reporting.
	desc, err := isa.Lookup(s.ISA)
	if err != nil {
		return err
	}
	for i, l := range s.Levels {
		lerr := func(field, reason string) error {
			return &DesignSpecError{Design: s.Name, Level: i, Field: field, Reason: reason}
		}
		geom := func() error { // common checks for parameterized kinds
			if !powerOfTwo(l.Sets) {
				return lerr("sets", fmt.Sprintf("must be a power of two, got %d", l.Sets))
			}
			if l.Ways <= 0 {
				return lerr("ways", fmt.Sprintf("must be positive, got %d", l.Ways))
			}
			return nil
		}
		fixed := func() error { // fixed kinds take no geometry knobs
			if l.Sets != 0 || l.Ways != 0 || l.Coalesce != 0 || l.SmallCoalesce != 0 ||
				l.PredictorEntries != 0 || l.Encoding != "" || l.SuperpageIndex {
				return lerr("kind", fmt.Sprintf("%s has fixed geometry; remove sets/ways/coalesce/encoding knobs", l.Kind))
			}
			return nil
		}
		switch l.Kind {
		case KindHaswellL1, KindHaswellL2, KindColtSplitL1, KindColtPPSplitL1:
			if err := fixed(); err != nil {
				return err
			}
		case KindMix:
			if err := geom(); err != nil {
				return err
			}
			switch l.Encoding {
			case "", "bitmap", "range":
			default:
				return lerr("encoding", fmt.Sprintf("must be \"bitmap\" or \"range\", got %q", l.Encoding))
			}
			maxK := mixMaxCoalesce(l)
			if l.Coalesce != 0 && (!powerOfTwo(l.Coalesce) || l.Coalesce > maxK) {
				return lerr("coalesce", fmt.Sprintf("must be a power of two at most %d for this encoding, got %d", maxK, l.Coalesce))
			}
			if l.SmallCoalesce < 0 || l.SmallCoalesce > maxK {
				return lerr("small_coalesce", fmt.Sprintf("must be non-negative and at most %d, got %d", maxK, l.SmallCoalesce))
			}
			// Encoding-aware cap: on an ISA with hardware contiguity
			// blocks, a bundle must be able to cover one whole block —
			// otherwise the design throws away ranges the architecture
			// hands it pre-coalesced.
			if desc.ContigPages > 0 {
				k := l.Coalesce
				if k == 0 {
					if k = l.Sets; k > maxK {
						k = maxK
					}
				}
				if k < desc.ContigPages {
					return lerr("coalesce", fmt.Sprintf("bundle capacity %d cannot cover the %s ISA's %d-page contiguity blocks", k, desc.Name, desc.ContigPages))
				}
			}
			if l.PredictorEntries != 0 {
				return lerr("predictor_entries", "only rehash+pred and skew+pred levels take a predictor")
			}
		case KindRehashPred, KindSkewPred:
			if err := geom(); err != nil {
				return err
			}
			if l.PredictorEntries < 0 {
				return lerr("predictor_entries", fmt.Sprintf("must be non-negative, got %d", l.PredictorEntries))
			}
			if l.Coalesce != 0 || l.SmallCoalesce != 0 || l.Encoding != "" || l.SuperpageIndex {
				return lerr("kind", fmt.Sprintf("%s takes no coalescing or indexing knobs", l.Kind))
			}
		case KindIdeal:
			if len(s.Levels) != 1 {
				return lerr("kind", "an ideal level must be the design's only level")
			}
			if err := fixed(); err != nil {
				return err
			}
		case KindVictim:
			if i != len(s.Levels)-1 {
				return lerr("kind", "a victim level must be the design's deepest level")
			}
			if i == 0 {
				return lerr("kind", "a victim level needs at least one SRAM level above it to demote from")
			}
			if err := geom(); err != nil {
				return err
			}
			if l.Coalesce != 0 || l.SmallCoalesce != 0 || l.Encoding != "" ||
				l.SuperpageIndex || l.PredictorEntries != 0 {
				return lerr("kind", "victim levels take only sets/ways")
			}
			if l.HitLatency != 0 {
				return lerr("hit_latency", "victim probes are charged data-cache accesses, not a fixed latency")
			}
		case "":
			return lerr("kind", "missing level kind")
		default:
			return lerr("kind", fmt.Sprintf("unknown level kind %q (valid: %s)",
				l.Kind, strings.Join(levelKinds, ", ")))
		}
	}
	return nil
}

// levelName derives the telemetry name of level i.
func (s DesignSpec) levelName(i int) string {
	if s.Levels[i].Name != "" {
		return s.Levels[i].Name
	}
	return fmt.Sprintf("%s-L%d", s.Name, i+1)
}

// descriptor resolves the translation architecture a build targets: the
// page table's when one is present (the hardware the design actually runs
// on), else the spec's declared ISA, else the default x86-64. A design
// pinned to an ISA refuses to build on a page table of a different one.
func (s DesignSpec) descriptor(pt *pagetable.PageTable) (*isa.Descriptor, error) {
	if pt != nil {
		d := pt.Descriptor()
		if s.ISA != "" && d.Name != s.ISA {
			return nil, &DesignSpecError{Design: s.Name, Level: -1, Field: "isa",
				Reason: fmt.Sprintf("design targets ISA %q but the page table implements %q", s.ISA, d.Name)}
		}
		return d, nil
	}
	return isa.Lookup(s.ISA)
}

// buildLevel constructs level i's TLB for the given descriptor.
func (s DesignSpec) buildLevel(i int, pt *pagetable.PageTable, desc *isa.Descriptor) (tlb.TLB, error) {
	l := s.Levels[i]
	switch l.Kind {
	case KindHaswellL1:
		return tlb.NewHaswellL1()
	case KindHaswellL2:
		return tlb.NewHaswellL2()
	case KindColtSplitL1:
		return tlb.NewColtSplitL1()
	case KindColtPPSplitL1:
		return tlb.NewColtPlusPlusL1()
	case KindMix:
		cfg := core.Config{
			Name:          s.levelName(i),
			Sets:          l.Sets,
			Ways:          l.Ways,
			Coalesce:      l.Coalesce,
			SmallCoalesce: l.SmallCoalesce,
			IndexShift:    addr.Shift4K,
			ContigPages:   desc.ContigPages,
		}
		if cfg.Coalesce == 0 {
			// Default K to the set count (the paper's geometry), clamped to
			// what the encoding can hold for large arrays.
			cfg.Coalesce = l.Sets
			if max := mixMaxCoalesce(l); cfg.Coalesce > max {
				cfg.Coalesce = max
			}
		}
		if l.Encoding == "range" {
			cfg.Encoding = core.Range
		}
		if l.SuperpageIndex {
			cfg.IndexShift = addr.Shift2M
		}
		return core.New(cfg)
	case KindRehashPred:
		inner, err := tlb.NewHashRehash(s.levelName(i), l.Sets, l.Ways,
			addr.Page4K, addr.Page2M, addr.Page1G)
		if err != nil {
			return nil, err
		}
		pred, err := tlb.NewSizePredictor(predictorEntries(l))
		if err != nil {
			return nil, err
		}
		return tlb.NewPredicted(inner, pred), nil
	case KindSkewPred:
		inner, err := tlb.NewSkewAllSizes(s.levelName(i), l.Sets, l.Ways)
		if err != nil {
			return nil, err
		}
		pred, err := tlb.NewSizePredictor(predictorEntries(l))
		if err != nil {
			return nil, err
		}
		return tlb.NewPredicted(inner, pred), nil
	case KindIdeal:
		if pt == nil {
			return nil, fmt.Errorf("design %q: ideal level requires the native page table", s.Name)
		}
		return tlb.NewIdeal(pt), nil
	case KindVictim:
		return tlb.NewVictim(s.levelName(i), l.Sets, l.Ways)
	default:
		return nil, &DesignSpecError{Design: s.Name, Level: i, Field: "kind",
			Reason: fmt.Sprintf("unknown level kind %q", l.Kind)}
	}
}

func predictorEntries(l LevelSpec) int {
	if l.PredictorEntries > 0 {
		return l.PredictorEntries
	}
	return 512
}

// BuildTLBs validates the spec and constructs its hierarchy TLBs in probe
// order, without assembling an MMU — conformance tests exercise the raw
// levels this way.
func (s DesignSpec) BuildTLBs(pt *pagetable.PageTable) ([]tlb.TLB, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	desc, err := s.descriptor(pt)
	if err != nil {
		return nil, err
	}
	out := make([]tlb.TLB, len(s.Levels))
	for i := range s.Levels {
		t, err := s.buildLevel(i, pt, desc)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// BuildConfig validates the spec and assembles the mmu.Config it
// describes, constructing fresh TLB and paging-structure-cache instances.
func (s DesignSpec) BuildConfig(pt *pagetable.PageTable) (Config, error) {
	tlbs, err := s.BuildTLBs(pt)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Name: s.Name, FreeWalks: s.FreeWalks}
	if s.Latencies != nil {
		cfg.Lat = *s.Latencies
	}
	cfg.Levels = make([]Level, len(tlbs))
	for i, t := range tlbs {
		cfg.Levels[i] = Level{TLB: t, HitLatency: s.Levels[i].HitLatency}
	}
	if s.PWC || s.PWCEntries > 0 {
		// Size the walker's prefix caches from the radix the walks will
		// actually traverse (one level per non-leaf radix level).
		desc, err := s.descriptor(pt)
		if err != nil {
			return Config{}, err
		}
		cfg.PWC = pwc.NewISA(s.PWCEntries, desc)
	}
	return cfg, nil
}

// Build validates the spec and constructs a ready MMU over the given
// translation source and cache hierarchy.
func (s DesignSpec) Build(src TranslationSource, pt *pagetable.PageTable, caches *cachesim.Hierarchy, fault FaultHandler) (*MMU, error) {
	cfg, err := s.BuildConfig(pt)
	if err != nil {
		return nil, err
	}
	return New(cfg, src, caches, fault)
}

// ParseSpecs decodes a design file: a JSON array of DesignSpec objects.
// Unknown fields are rejected (a typo'd knob must not silently become a
// default), and every spec is validated before any is returned.
func ParseSpecs(r io.Reader) ([]DesignSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var specs []DesignSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("design file: %w", err)
	}
	// Trailing content (a second document, stray text) is also a mistake.
	if dec.More() {
		return nil, fmt.Errorf("design file: trailing data after the design array")
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// ParseSpecBytes is ParseSpecs over an in-memory document.
func ParseSpecBytes(data []byte) ([]DesignSpec, error) {
	return ParseSpecs(bytes.NewReader(data))
}
