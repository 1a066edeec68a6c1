package perfmodel

import "mixtlb/internal/ledger"

// AttributionShares converts a per-category cycle book (mmu.MMU.Attribution)
// into per-category percentage shares of total attributed cycles — the stacked columns of the
// breakdown experiment. All zeros when nothing was attributed.
func AttributionShares(entries [ledger.NumCategories]ledger.Entry) [ledger.NumCategories]float64 {
	var out [ledger.NumCategories]float64
	var total uint64
	for _, e := range entries {
		total += e.Cycles
	}
	if total == 0 {
		return out
	}
	for i, e := range entries {
		out[i] = 100 * float64(e.Cycles) / float64(total)
	}
	return out
}
