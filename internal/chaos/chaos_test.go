package chaos

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/physmem"
)

func sampleTranslation() pagetable.Translation {
	return pagetable.Translation{
		VA: 0x200000, PA: 0x40000000, Size: addr.Page2M,
		Perm: addr.PermRW, Accessed: true,
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	tr := sampleTranslation()
	if out := in.CorruptTLBHit(&tr); out != FaultNone {
		t.Errorf("nil injector corrupted a hit: %v", out)
	}
	w := pagetable.WalkResult{Found: true, Translation: tr}
	if in.CorruptWalk(&w) {
		t.Error("nil injector corrupted a walk")
	}
	if in.DropIPI() || in.DelayIPI() || in.FailAlloc(9) {
		t.Error("nil injector fired an IPI/alloc fault")
	}
	if in.Enabled() {
		t.Error("nil injector claims enabled")
	}
	if in.Stats() != (Stats{}) || in.Seed() != 0 || in.Rates() != (Rates{}) {
		t.Error("nil injector accessors not zero")
	}
}

func TestZeroRatesNeverFire(t *testing.T) {
	in := NewInjector(7, Rates{})
	if in.Enabled() {
		t.Error("zero-rate injector claims enabled")
	}
	for i := 0; i < 10_000; i++ {
		tr := sampleTranslation()
		if in.CorruptTLBHit(&tr) != FaultNone || tr != sampleTranslation() {
			t.Fatal("zero-rate injector corrupted a hit")
		}
		if in.DropIPI() || in.DelayIPI() || in.FailAlloc(9) {
			t.Fatal("zero-rate injector fired")
		}
	}
	if in.Stats() != (Stats{}) {
		t.Errorf("zero-rate stats = %+v", in.Stats())
	}
}

// TestDeterministic replays the same call sequence on two injectors with
// the same seed: every decision and every corrupted value must match.
func TestDeterministic(t *testing.T) {
	run := func() ([]Outcome, []addr.P, Stats) {
		in := NewInjector(99, DefaultRates())
		var outs []Outcome
		var pas []addr.P
		for i := 0; i < 50_000; i++ {
			tr := sampleTranslation()
			outs = append(outs, in.CorruptTLBHit(&tr))
			pas = append(pas, tr.PA)
			in.DropIPI()
			in.FailAlloc(9)
		}
		return outs, pas, in.Stats()
	}
	o1, p1, s1 := run()
	o2, p2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
	for i := range o1 {
		if o1[i] != o2[i] || p1[i] != p2[i] {
			t.Fatalf("decision %d diverged", i)
		}
	}
	if s1.TLBCorruptions == 0 || s1.TLBSilent == 0 || s1.TLBDetected == 0 {
		t.Errorf("default rates never fired: %+v", s1)
	}
}

// TestCorruptionFlipsFrameBitsOnly checks silent corruption yields a
// different PA while preserving the page offset (flips land at or above
// the page-size shift).
func TestCorruptionFlipsFrameBitsOnly(t *testing.T) {
	in := NewInjector(3, Rates{TLBCorrupt: 1, SilentFrac: 1})
	for i := 0; i < 1000; i++ {
		tr := sampleTranslation()
		if out := in.CorruptTLBHit(&tr); out != FaultSilent {
			t.Fatalf("outcome = %v, want silent", out)
		}
		if tr.PA == sampleTranslation().PA {
			t.Fatal("silent corruption left PA unchanged")
		}
		if diff := tr.PA ^ sampleTranslation().PA; uint64(diff)&(addr.Size2M-1) != 0 {
			t.Fatalf("corruption touched the page offset: diff=%x", diff)
		}
	}
}

func TestDetectedLeavesValueIntact(t *testing.T) {
	in := NewInjector(5, Rates{TLBCorrupt: 1, SilentFrac: 0})
	tr := sampleTranslation()
	if out := in.CorruptTLBHit(&tr); out != FaultDetected {
		t.Fatalf("outcome = %v, want detected", out)
	}
	if tr != sampleTranslation() {
		t.Error("detected corruption modified the translation")
	}
}

func TestFailAllocSparesOrderZero(t *testing.T) {
	in := NewInjector(11, Rates{AllocFail: 1})
	for i := 0; i < 100; i++ {
		if in.FailAlloc(0) {
			t.Fatal("order-0 allocation failed under injection")
		}
		if !in.FailAlloc(9) {
			t.Fatal("order-9 allocation survived rate-1 injection")
		}
	}
}

func TestCorruptWalkSkipsNotFound(t *testing.T) {
	in := NewInjector(13, Rates{PTECorrupt: 1})
	w := pagetable.WalkResult{Found: false}
	if in.CorruptWalk(&w) {
		t.Error("corrupted a failed walk")
	}
	w = pagetable.WalkResult{Found: true, Translation: sampleTranslation()}
	if !in.CorruptWalk(&w) {
		t.Error("rate-1 walk corruption did not fire")
	}
	if w.Translation.PA == sampleTranslation().PA {
		t.Error("walk corruption left PA unchanged")
	}
}

func TestScaledClamps(t *testing.T) {
	r := Rates{TLBCorrupt: 0.5, PTECorrupt: 0.1, IPILoss: 0.9}.Scaled(10)
	if r.TLBCorrupt != 1 || r.IPILoss != 1 {
		t.Errorf("scaled rates not clamped: %+v", r)
	}
	if r.PTECorrupt != 1 {
		t.Errorf("PTECorrupt = %v, want 1", r.PTECorrupt)
	}
	if !(Rates{}).Zero() || DefaultRates().Zero() {
		t.Error("Zero() misclassifies")
	}
}

func newTestPT(t *testing.T) *pagetable.PageTable {
	t.Helper()
	pt, err := pagetable.NewISA(physmem.NewBuddy(1<<30), isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestOracleCatchesMismatch(t *testing.T) {
	pt := newTestPT(t)
	if err := pt.Map(0x200000, 0x600000, addr.Page2M, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	o := NewOracle(pt)
	// Correct translation: no mismatch.
	if mm := o.Check("mix", "L1", 0x200123, addr.Page2M, 0x600123); mm != nil {
		t.Fatalf("false positive: %v", mm)
	}
	// Wrong PA: caught, with full provenance.
	mm := o.Check("mix", "L1", 0x200123, addr.Page2M, 0x700123)
	if mm == nil {
		t.Fatal("wrong PA not caught")
	}
	if mm.Design != "mix" || mm.Provenance != "L1" || mm.Want != 0x600123 || mm.Got != 0x700123 {
		t.Errorf("mismatch diagnostic = %+v", mm)
	}
	if mm.Error() == "" {
		t.Error("empty mismatch error text")
	}
	// Wrong size with right PA: also a mismatch (the entry lies about
	// its reach).
	if o.Check("mix", "L1", 0x200123, addr.Page4K, 0x600123) == nil {
		t.Error("wrong size not caught")
	}
	if o.Checks() != 3 || o.MismatchCount() != 2 {
		t.Errorf("checks=%d mismatches=%d", o.Checks(), o.MismatchCount())
	}
	if n := len(o.Mismatches()); n != 2 {
		t.Errorf("kept %d mismatches", n)
	}
}

func TestOracleUnmappedVA(t *testing.T) {
	o := NewOracle(newTestPT(t))
	mm := o.Check("mix", "walk", 0x1000, addr.Page4K, 0x2000)
	if mm == nil || !mm.Unmapped {
		t.Fatalf("translation for unmapped VA not flagged: %+v", mm)
	}
	if _, ok := o.GroundTruth(0x1000); ok {
		t.Error("ground truth exists for unmapped VA")
	}
}

func TestNilOracleSafe(t *testing.T) {
	var o *Oracle
	if o.Check("d", "L1", 0x1000, addr.Page4K, 0x2000) != nil {
		t.Error("nil oracle reported a mismatch")
	}
	if _, ok := o.GroundTruth(0x1000); ok {
		t.Error("nil oracle has ground truth")
	}
	if o.Checks() != 0 || o.MismatchCount() != 0 || o.Mismatches() != nil {
		t.Error("nil oracle counters not zero")
	}
}

func TestOracleKeepsBoundedMismatches(t *testing.T) {
	o := NewOracle(newTestPT(t))
	for i := 0; i < 100; i++ {
		o.Check("d", "L1", addr.V(i)<<12, addr.Page4K, 0x1000)
	}
	if n := len(o.Mismatches()); n > 32 {
		t.Errorf("kept %d mismatches, want <= 32", n)
	}
	if o.MismatchCount() != 100 {
		t.Errorf("MismatchCount = %d", o.MismatchCount())
	}
}
