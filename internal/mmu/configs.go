package mmu

// The design points compared in the evaluation (Sec 7.2). Each constant
// is the registry name of a builtin DesignSpec, so the constants, CLI
// flags, and design files all draw from the same declarative catalog.
// All are area-equivalent to the split baseline at the L1 (about 100
// entries) and L2 (about 544 entries), except where a design's own
// overheads (skew timestamps) or savings (MIX absorbing the separate 1GB
// TLB) change the entry budget, as the paper describes.
const (
	// DesignSplit is the commercial Haswell-style baseline.
	DesignSplit = "split"
	// DesignMix is the paper's contribution.
	DesignMix = "mix"
	// DesignMixColt is MIX plus small-page coalescing (Fig 18's best).
	DesignMixColt = "mix+colt"
	// DesignRehash is hash-rehash for all sizes with the best predictor.
	DesignRehash = "rehash+pred"
	// DesignSkew is a skew-associative TLB with the best predictor.
	DesignSkew = "skew+pred"
	// DesignColt is split with a coalescing 4KB component (CoLT).
	DesignColt = "colt"
	// DesignColtPP is split with every component coalescing (COLT++).
	DesignColtPP = "colt++"
	// DesignIdeal never misses on mapped pages (Figures 1, 15).
	DesignIdeal = "ideal"
	// DesignMixSuperIndex is the Sec 3 ablation: MIX indexed by superpage
	// bits.
	DesignMixSuperIndex = "mix-superidx"
	// DesignMixRange is MIX with the paper's literal range-encoded L2
	// (the invalidation study's third point).
	DesignMixRange = "mix-range"
	// DesignMixAsL2 keeps the commercial split L1 and swaps only the L2
	// for a MIX array — the drop-in upgrade path a vendor would ship
	// first.
	DesignMixAsL2 = "mix-as-l2"
	// DesignSplitPWC is the Haswell baseline with paging-structure caches
	// on the walker, isolating how much of the TLB-design gap MMU caches
	// close.
	DesignSplitPWC = "split+pwc"
	// DesignVictima is the split baseline backed by a cache-resident
	// victim level fed by L2 evictions (after Victima, PAPERS.md).
	DesignVictima = "victima"
	// DesignMixVictima stacks the victim level behind MIX TLBs, combining
	// coalesced reach with spilled reach.
	DesignMixVictima = "mix+victima"
	// DesignVictimaLite is victima with an eighth of the victim bundles —
	// the capacity-sensitivity point of the reach study.
	DesignVictimaLite = "victima-lite"
)

// AllDesigns lists the comparable designs in report order.
func AllDesigns() []string {
	return []string{DesignSplit, DesignMix, DesignMixColt, DesignRehash,
		DesignSkew, DesignColt, DesignColtPP, DesignIdeal}
}
