package mmu

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/tlb"
)

// TestDeeperHierarchyPreservesTranslation is the metamorphic core of the
// hierarchy contract: TLB levels are pure caches of the page table, so
// adding levels to a design — an L2, a PWC, a cache-backed victim level —
// may change timing but never the translation function. Every multi-level
// registry design is truncated to its first level (the oracle) and both
// MMUs replay the same randomized stream; PA, page size, and fault
// outcome must match access for access, and both must match page-table
// ground truth.
func TestDeeperHierarchyPreservesTranslation(t *testing.T) {
	const pages4k = 1024
	for _, spec := range DefaultRegistry().Specs() {
		if len(spec.Levels) < 2 {
			continue // already its own oracle
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			e, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0x0eac1e+uint64(len(spec.Name)), mapped, 20000)

			full, err := spec.Build(e.pt, e.pt, e.caches, nil)
			if err != nil {
				t.Fatal(err)
			}
			oracleSpec := spec
			oracleSpec.Name = spec.Name + "-oracle"
			oracleSpec.Levels = spec.Levels[:1]
			oracle, err := oracleSpec.Build(e.pt, e.pt, e.caches, nil)
			if err != nil {
				t.Fatal(err)
			}

			for i, r := range reqs {
				fr, or := full.Translate(r), oracle.Translate(r)
				if fr.PA != or.PA || fr.Size != or.Size || fr.Faulted != or.Faulted {
					t.Fatalf("req %d (%+v): full {PA:%#x Size:%v Faulted:%v}, oracle {PA:%#x Size:%v Faulted:%v}",
						i, r, fr.PA, fr.Size, fr.Faulted, or.PA, or.Size, or.Faulted)
				}
				gt, ok := e.pt.Lookup(r.VA)
				if !ok {
					t.Fatalf("req %d: VA %#x not in page table", i, r.VA)
				}
				if want := gt.PA + addr.P(r.VA-gt.VA); fr.PA != want || fr.Size != gt.Size {
					t.Fatalf("req %d (VA %#x): got {PA:%#x Size:%v}, page table says {PA:%#x Size:%v}",
						i, r.VA, fr.PA, fr.Size, want, gt.Size)
				}
			}
		})
	}
}

// victimOf returns the hierarchy's cache-backed victim level and its
// index, or nil when the design has none.
func victimOf(m *MMU) (*tlb.Victim, int) {
	lvs := m.LevelTLBs()
	for i, lv := range lvs {
		if v, ok := lv.(*tlb.Victim); ok {
			return v, i
		}
	}
	return nil, -1
}

// TestVictimInvariants drives the victim designs through a randomized
// stream and checks the structural invariants of demotion:
//
//  1. the victim never holds two entries translating the same page at
//     the same size;
//  2. every victim entry agrees with page-table ground truth (demotion
//     moves translations, it never invents or corrupts them);
//  3. for split-feeder designs, the immediate feeder level and the
//     victim are exclusive — a demoted entry left the feeder, and a
//     promoted entry left the victim. Shallower levels than the feeder
//     may keep benign copies (they have no demotion sink), and MIX
//     feeders are exempt entirely: coalescing and mirror copies make
//     duplicates by design, which probe order keeps harmless;
//  4. promote-on-deep-hit removes the served page from the victim.
func TestVictimInvariants(t *testing.T) {
	const pages4k = 2048
	for _, d := range []string{DesignVictima, DesignVictimaLite, DesignMixVictima} {
		d := d
		t.Run(d, func(t *testing.T) {
			e, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0x71c71c+uint64(len(d)), mapped, 30000)
			m, err := DefaultRegistry().Build(d, e.pt, e.pt, e.caches, nil)
			if err != nil {
				t.Fatal(err)
			}
			vic, vi := victimOf(m)
			if vic == nil {
				t.Fatalf("design %s has no victim level", d)
			}

			deepChecked := 0
			for i, r := range reqs {
				res := m.Translate(r)
				if res.Faulted {
					t.Fatalf("req %d faulted: %+v", i, r)
				}
				// Invariant 4, on the first few deep hits: the served
				// page must have been promoted out of the victim.
				if int(res.HitLevel) == vi && deepChecked < 32 {
					deepChecked++
					base := r.VA & ^addr.V(res.Size.Bytes()-1)
					for _, tr := range vic.Dump() {
						if tr.Size == res.Size && tr.VA == base {
							t.Fatalf("req %d: VA %#x still in victim after deep hit promoted it", i, r.VA)
						}
					}
				}
			}
			if m.Stats().Demotions == 0 {
				t.Fatalf("stream produced no demotions; invariants unexercised")
			}

			members := vic.Dump()
			if len(members) == 0 {
				t.Fatalf("victim empty after %d accesses", len(reqs))
			}
			type pageKey struct {
				size addr.PageSize
				va   addr.V
			}
			seen := make(map[pageKey]bool, len(members))
			for _, tr := range members {
				k := pageKey{tr.Size, tr.VA}
				if seen[k] {
					t.Errorf("duplicate victim entry for %v page %#x", tr.Size, tr.VA)
				}
				seen[k] = true
				gt, ok := e.pt.Lookup(tr.VA)
				if !ok {
					t.Errorf("victim holds unmapped VA %#x", tr.VA)
					continue
				}
				if gt.Size != tr.Size || gt.PA != tr.PA {
					t.Errorf("victim entry %#x {PA:%#x Size:%v} disagrees with page table {PA:%#x Size:%v}",
						tr.VA, tr.PA, tr.Size, gt.PA, gt.Size)
				}
			}

			if d == DesignMixVictima {
				return // MIX feeders keep benign duplicates; exclusivity does not apply
			}
			// Invariant 3: no victim member is still resident in the
			// feeder level whose evictions fill the victim. Post-stream
			// lookups may disturb LRU stamps, which is fine — the
			// stream is over.
			feeder := m.LevelTLBs()[vi-1]
			for _, tr := range members {
				if lr := feeder.Lookup(tlb.Request{VA: tr.VA}); lr.Hit && lr.T.Size == tr.Size {
					t.Fatalf("%v page %v resident in both the feeder level and the victim", tr.Size, tr.VA)
				}
			}
		})
	}
}

// TestVictimShootdownConsistency checks that unmap-style invalidation
// reaches the victim level: after Invalidate(va) no victim entry for va
// survives, and after Flush the victim is empty.
func TestVictimShootdownConsistency(t *testing.T) {
	const pages4k = 2048
	e, mapped := buildRefEnv(t, pages4k)
	reqs := randomRequests(0x5078d0, mapped, 30000)
	m, err := DefaultRegistry().Build(DesignVictima, e.pt, e.pt, e.caches, nil)
	if err != nil {
		t.Fatal(err)
	}
	vic, _ := victimOf(m)
	for _, r := range reqs {
		m.Translate(r)
	}
	if len(vic.Dump()) == 0 {
		t.Fatal("victim empty; shootdown unexercised")
	}
	// Invalidate every tenth mapped page at its own size.
	for i := 0; i < len(mapped); i += 10 {
		m.Invalidate(mapped[i].va, mapped[i].size)
		for _, tr := range vic.Dump() {
			if tr.VA == mapped[i].va && tr.Size == mapped[i].size {
				t.Fatalf("victim entry for %#x survived Invalidate", mapped[i].va)
			}
		}
	}
	m.Flush()
	if got := vic.Dump(); len(got) != 0 {
		t.Fatalf("victim holds %d entries after Flush", len(got))
	}
}
