package perfmodel

import (
	"testing"

	"mixtlb/internal/ledger"
)

func TestAttributionShares(t *testing.T) {
	var e [ledger.NumCategories]ledger.Entry
	if got := AttributionShares(e); got != ([ledger.NumCategories]float64{}) {
		t.Fatalf("empty books produced shares %v", got)
	}
	e[ledger.L1Probe].Cycles = 25
	e[ledger.WalkFull].Cycles = 75
	got := AttributionShares(e)
	if got[ledger.L1Probe] != 25 || got[ledger.WalkFull] != 75 {
		t.Fatalf("shares = %v", got)
	}
	var sum float64
	for _, s := range got {
		sum += s
	}
	if sum != 100 {
		t.Fatalf("shares sum to %v, want 100", sum)
	}
}
