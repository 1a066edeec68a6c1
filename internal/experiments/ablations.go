package experiments

import (
	"context"
	"fmt"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/core"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/simrand"
	"mixtlb/internal/stats"
	"mixtlb/internal/workload"
)

// ablationPattern builds one hot-region access pattern over a prepared
// environment; the patterns expose the superpage-index-bits pathology.
type ablationPattern struct {
	name  string
	build func(env *nativeEnv, seed uint64) workload.Stream
}

// ablationPatterns returns the Sec 3 ablation's access patterns. The
// pathology is about small pages with spatial locality: under superpage
// index bits, groups of 512 adjacent 4KB pages collide in one set.
// Dedicated hot-region patterns expose it directly — real programs'
// heaps behave like the mixed case.
func ablationPatterns() []ablationPattern {
	return []ablationPattern{
		{"hot-1MB-region", func(env *nativeEnv, seed uint64) workload.Stream {
			// Mostly uniform traffic over a 1MB hot region — 256 adjacent
			// 4KB pages that fit the small-page-indexed TLB comfortably
			// but collapse into a single set under superpage indexing —
			// plus a light streaming component providing the compulsory
			// misses real workloads always carry.
			rng := simrand.New(seed)
			return workload.MustMix(rng.Split(),
				workload.Weighted{Stream: workload.NewUniform(env.base, 1<<20, rng.Split(), 0.2, 11), Weight: 0.9},
				workload.Weighted{Stream: workload.NewSequential(env.base+addr.V(16<<20), env.fp-(16<<20), 4096, false, 19), Weight: 0.1},
			)
		}},
		{"hot+stream", func(env *nativeEnv, seed uint64) workload.Stream {
			rng := simrand.New(seed)
			return workload.MustMix(rng.Split(),
				workload.Weighted{Stream: workload.NewUniform(env.base, 1<<20, rng.Split(), 0.1, 12), Weight: 0.7},
				workload.Weighted{Stream: workload.NewSequential(env.base+addr.V(8<<20), env.fp-(8<<20), 4096, false, 13), Weight: 0.3},
			)
		}},
		{"two-hot-regions", func(env *nativeEnv, seed uint64) workload.Stream {
			rng := simrand.New(seed)
			return workload.MustMix(rng.Split(),
				workload.Weighted{Stream: workload.NewUniform(env.base, 512<<10, rng.Split(), 0.2, 14), Weight: 0.45},
				workload.Weighted{Stream: workload.NewUniform(env.base+addr.V(64<<20), 512<<10, rng.Split(), 0.2, 15), Weight: 0.45},
				workload.Weighted{Stream: workload.NewSequential(env.base+addr.V(128<<20), env.fp-(128<<20), 4096, false, 20), Weight: 0.1},
			)
		}},
	}
}

// AblationIndexBits regenerates the Sec 3 design argument: indexing the
// MIX TLB with superpage index bits (so superpages map uniquely and need
// no mirrors) makes spatially-adjacent small pages conflict, raising TLB
// misses by 4-8x on average compared to small-page index bits. One cell
// per access pattern.
func AblationIndexBits(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Sec 3 ablation: small-page vs superpage index bits (4KB pages)",
		Columns: []string{"pattern", "miss-ratio-smallidx", "miss-ratio-superidx", "factor"},
	}
	specs, err := s.specs(mmu.DesignMix, mmu.DesignMixSuperIndex)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, p := range ablationPatterns() {
		cells = append(cells, Cell{
			Name: p.name,
			Run: func(ctx context.Context, cs Scale) ([]Row, error) {
				env, err := newNative(cs, osmm.BasePages, 0)
				if err != nil {
					return nil, err
				}
				built := p.build(env, cs.Seed)
				var miss [2]float64
				for i, ds := range specs {
					m, _, err := env.build(ds)
					if err != nil {
						return nil, err
					}
					st, err := env.run(ctx, cs, m, p.name, built)
					if err != nil {
						return nil, err
					}
					miss[i] = st.MissRatio()
				}
				small, super := miss[0], miss[1]
				factor := 0.0
				if small > 0 {
					factor = super / small
				}
				return []Row{{p.name, small, super, factor}}, nil
			},
		})
	}
	results, err := RunGrid(ctx, s, "ablation-index", cells)
	AppendRows(t, results)
	return t, err
}

// ScalingStudy regenerates the Sec 7.2 scaling discussion: MIX TLBs with
// growing set counts (up to the hypothetical 512-set design) need more
// contiguity to offset mirrors; the paper reports 512-set TLBs stay
// within 13% of ideal. Reported per set count: overhead vs ideal.
// One cell per (workload, set count).
func ScalingStudy(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Sec 7.2 scaling: L2 MIX set count vs overhead against ideal",
		Columns: []string{"workload", "l2-sets", "overhead-vs-ideal-%"},
	}
	var cells []Cell
	for _, spec := range s.workloads() {
		for _, sets := range []int{64, 128, 512} {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s/%dsets", spec.Name, sets),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, osmm.THS, 0.2)
					if err != nil {
						return nil, err
					}
					// The L2's bundle capacity defaults to min(sets, 64):
					// the bitmap cap, beyond which windows would need ranges.
					name := fmt.Sprintf("mix-L2-%dsets", sets)
					_, est, _, err := env.measure(ctx, cs, spec, env.stream(cs, spec), mmu.DesignSpec{
						Name: name,
						Levels: []mmu.LevelSpec{
							{Kind: mmu.KindMix, Name: "mix-L1", Sets: 16, Ways: 6},
							{Kind: mmu.KindMix, Name: name, Sets: sets, Ways: 8},
						},
					})
					if err != nil {
						return nil, err
					}
					return []Row{{spec.Name, sets, est.OverheadVsIdealPercent()}}, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "scaling", cells)
	AppendRows(t, results)
	return t, err
}

// DuplicateStudy quantifies the Sec 4.3 duplicate dynamics under the
// paper's blind-mirroring policy versus the default write-time merge:
// duplicates created, duplicates lazily eliminated, and the resulting
// miss ratios, on a superpage-heavy run. One cell per (policy, workload).
func DuplicateStudy(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Sec 4.3 duplicates: blind mirroring vs merge-on-fill",
		Columns: []string{"policy", "workload", "miss-ratio", "dups-eliminated", "mirror-writes"},
	}
	var cells []Cell
	for _, blind := range []bool{false, true} {
		label := "merge-on-fill"
		if blind {
			label = "blind-mirrors"
		}
		for _, spec := range s.workloads() {
			blind, label, spec := blind, label, spec
			cells = append(cells, Cell{
				Name: label + "/" + spec.Name,
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, osmm.THS, 0)
					if err != nil {
						return nil, err
					}
					l1cfg := core.L1Config()
					l1cfg.BlindMirrors = blind
					l2cfg := core.L2Config()
					l2cfg.BlindMirrors = blind
					l1, err := core.New(l1cfg)
					if err != nil {
						return nil, err
					}
					l2, err := core.New(l2cfg)
					if err != nil {
						return nil, err
					}
					m, err := mmu.New(mmu.Config{Name: label, Levels: mmu.L(l1, l2)},
						env.src, cachesim.DefaultHierarchy(), env.fault)
					if err != nil {
						return nil, err
					}
					st, err := env.run(ctx, cs, m, spec.Name, env.stream(cs, spec))
					if err != nil {
						return nil, err
					}
					dups := l1.Stats().DupsEliminated + l2.Stats().DupsEliminated
					mirrors := l1.Stats().MirrorWrites + l2.Stats().MirrorWrites
					return []Row{{label, spec.Name, st.MissRatio(), dups, mirrors}}, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "duplicates", cells)
	AppendRows(t, results)
	return t, err
}

// CoalesceCapStudy sweeps the bundle capacity K on the L1 (DESIGN.md's
// BenchmarkCoalesceCap): K below the set count cannot offset mirroring;
// K at the set count achieves parity. One cell per (workload, K).
func CoalesceCapStudy(ctx context.Context, s Scale, caps []int) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: L1 coalescing cap K vs miss ratio (THS superpages)",
		Columns: []string{"workload", "K", "miss-ratio"},
	}
	if len(caps) == 0 {
		caps = []int{1, 2, 4, 8, 16}
	}
	var cells []Cell
	for _, spec := range s.workloads() {
		for _, k := range caps {
			cells = append(cells, Cell{
				Name: fmt.Sprintf("%s/K%d", spec.Name, k),
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, osmm.THS, 0)
					if err != nil {
						return nil, err
					}
					name := fmt.Sprintf("mix-L1-K%d", k)
					st, _, _, err := env.measure(ctx, cs, spec, env.stream(cs, spec), mmu.DesignSpec{
						Name:   name,
						Levels: []mmu.LevelSpec{{Kind: mmu.KindMix, Name: name, Sets: 16, Ways: 6, Coalesce: k}},
					})
					if err != nil {
						return nil, err
					}
					return []Row{{spec.Name, k, st.MissRatio()}}, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "coalesce-cap", cells)
	AppendRows(t, results)
	return t, err
}

// EncodingStudy compares bitmap and range bundle encodings at the L2
// (DESIGN.md's BenchmarkBundleEncoding) under two miss-arrival orders:
// address-ordered (sequential scan) and popularity-ordered (Zipf), the
// regime where ranges fragment. One cell per (arrival, encoding).
func EncodingStudy(ctx context.Context, s Scale) (*stats.Table, error) {
	t := &stats.Table{
		Title:   "Ablation: L2 bundle encoding under ordered vs popularity miss arrival",
		Columns: []string{"arrival", "encoding", "miss-ratio"},
	}
	arrivals := []string{"sequential", "popularity"}
	encodings := []string{"bitmap", "range"}
	// The builtin designs' L2s are exactly the two encodings' default
	// arrays, behind the same L1.
	specs, err := s.specs(mmu.DesignMix, mmu.DesignMixRange)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, a := range arrivals {
		for i, enc := range encodings {
			a, enc, ds := a, enc, specs[i]
			cells = append(cells, Cell{
				Name: a + "/" + enc,
				Run: func(ctx context.Context, cs Scale) ([]Row, error) {
					env, err := newNative(cs, osmm.THS, 0)
					if err != nil {
						return nil, err
					}
					var stream workload.Stream
					switch a {
					case "sequential":
						stream = workload.NewSequential(env.base, env.fp, 4096, false, 1)
					default:
						stream = workload.NewZipf(env.base, env.fp, simrand.New(cs.Seed), 0.99, 0, 2)
					}
					m, _, err := env.build(ds)
					if err != nil {
						return nil, err
					}
					st, err := env.run(ctx, cs, m, a, stream)
					if err != nil {
						return nil, err
					}
					return []Row{{a, enc, st.MissRatio()}}, nil
				},
			})
		}
	}
	results, err := RunGrid(ctx, s, "encoding", cells)
	AppendRows(t, results)
	return t, err
}
