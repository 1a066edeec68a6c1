package mmu

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/chaos"
	"mixtlb/internal/tlb"
)

// chaosEnv maps a small mixed-size working set and returns the MMU plus
// the expected PA for each VA.
func chaosEnv(t *testing.T, d string) (*env, *MMU, map[addr.V]addr.P) {
	t.Helper()
	e := newEnv(t)
	want := map[addr.V]addr.P{}
	for i := 0; i < 8; i++ {
		va := addr.V(0x400000 + i*addr.Size2M)
		want[va] = e.mapPage(t, va, addr.Page2M)
	}
	for i := 0; i < 16; i++ {
		va := addr.V(0x10000000 + i*addr.Size4K)
		want[va] = e.mapPage(t, va, addr.Page4K)
	}
	m := mustBuild(DefaultRegistry().Build(d, e.pt, e.pt, e.caches, nil))
	return e, m, want
}

// TestOracleCleanRun is the fault-rate-zero invariant: with the oracle
// attached and no injector, a full run over every design must record zero
// mismatches.
func TestOracleCleanRun(t *testing.T) {
	for _, d := range AllDesigns() {
		e, m, want := chaosEnv(t, d)
		or := chaos.NewOracle(e.pt)
		m.AttachOracle(or)
		for round := 0; round < 50; round++ {
			for va, pa := range want {
				r := m.Translate(tlb.Request{VA: va + 0x33, Write: round%2 == 0})
				if r.Faulted || r.PA != pa+0x33 {
					t.Fatalf("%s: VA %v -> %+v, want PA %v", d, va, r, pa+0x33)
				}
			}
		}
		st := m.Stats()
		if st.OracleMismatches != 0 || st.OracleUnrecovered != 0 || st.ECC != (tlb.ECCStats{}) {
			t.Errorf("%s: clean run recorded faults: %+v", d, st)
		}
		if or.Checks() == 0 {
			t.Errorf("%s: oracle never consulted", d)
		}
	}
}

// TestParityDetectedRecovers forces every TLB read to take a detectable
// corruption: the MMU must scrub, re-walk, and still return the right PA
// on every access.
func TestParityDetectedRecovers(t *testing.T) {
	e, m, want := chaosEnv(t, DesignMix)
	m.InjectFaults(chaos.NewInjector(1, chaos.Rates{TLBCorrupt: 1, SilentFrac: 0}))
	m.AttachOracle(chaos.NewOracle(e.pt))
	for round := 0; round < 20; round++ {
		for va, pa := range want {
			if r := m.Translate(tlb.Request{VA: va}); r.PA != pa {
				t.Fatalf("round %d VA %v: PA %v, want %v", round, va, r.PA, pa)
			}
		}
	}
	st := m.Stats()
	if st.ECC.ParityDetected == 0 || st.ECC.Rewalks == 0 || st.ECC.Scrubbed == 0 {
		t.Errorf("detectable corruption never exercised: %+v", st.ECC)
	}
	if st.ECC.SilentCorruptions != 0 {
		t.Errorf("silent corruptions under SilentFrac=0: %d", st.ECC.SilentCorruptions)
	}
	if st.OracleMismatches != 0 {
		t.Errorf("parity-detected faults leaked to the oracle: %d", st.OracleMismatches)
	}
}

// TestSilentCorruptionCaughtByOracle makes every corruption silent: only
// the oracle stands between the flipped PA and the workload, and no wrong
// translation may escape.
func TestSilentCorruptionCaughtByOracle(t *testing.T) {
	e, m, want := chaosEnv(t, DesignMix)
	m.InjectFaults(chaos.NewInjector(2, chaos.Rates{TLBCorrupt: 0.5, SilentFrac: 1}))
	m.AttachOracle(chaos.NewOracle(e.pt))
	for round := 0; round < 50; round++ {
		for va, pa := range want {
			if r := m.Translate(tlb.Request{VA: va + 0x7}); r.PA != pa+0x7 {
				t.Fatalf("silent corruption reached the workload: VA %v PA %v, want %v",
					va, r.PA, pa+0x7)
			}
		}
	}
	st := m.Stats()
	if st.ECC.SilentCorruptions == 0 {
		t.Fatal("silent corruption never injected")
	}
	if st.OracleMismatches == 0 || st.OracleRecoveries == 0 {
		t.Errorf("oracle never caught/recovered: %+v", st)
	}
	if st.OracleUnrecovered != 0 {
		t.Errorf("%d accesses stayed wrong", st.OracleUnrecovered)
	}
}

// TestSilentCorruptionWithoutOracleGoesWrong proves the injection is real:
// without the oracle, a silently corrupted hit returns a wrong PA.
func TestSilentCorruptionWithoutOracleGoesWrong(t *testing.T) {
	e, m, _ := chaosEnv(t, DesignMix)
	_ = e
	m.InjectFaults(chaos.NewInjector(3, chaos.Rates{TLBCorrupt: 1, SilentFrac: 1}))
	va := addr.V(0x400000)
	first := m.Translate(tlb.Request{VA: va}) // walk: uncorrupted
	wrong := false
	for i := 0; i < 10 && !wrong; i++ {
		r := m.Translate(tlb.Request{VA: va}) // hit: silently corrupted
		wrong = r.PA != first.PA
	}
	if !wrong {
		t.Fatal("rate-1 silent corruption never produced a wrong PA")
	}
}

// TestPTECorruptionRecovered corrupts every walked translation; the
// corrupted entry is even cached, yet the oracle must keep every returned
// PA correct (falling back to ground truth under persistent injection).
func TestPTECorruptionRecovered(t *testing.T) {
	e, m, want := chaosEnv(t, DesignSplit)
	m.InjectFaults(chaos.NewInjector(4, chaos.Rates{PTECorrupt: 1}))
	m.AttachOracle(chaos.NewOracle(e.pt))
	for round := 0; round < 10; round++ {
		for va, pa := range want {
			if r := m.Translate(tlb.Request{VA: va}); r.PA != pa {
				t.Fatalf("PTE corruption reached the workload: VA %v PA %v, want %v", va, r.PA, pa)
			}
		}
	}
	st := m.Stats()
	if st.PTECorruptions == 0 {
		t.Fatal("walk corruption never injected")
	}
	if st.OracleRecoveries == 0 {
		t.Error("oracle never recovered a corrupted walk")
	}
	if st.OracleUnrecovered != 0 {
		t.Errorf("%d accesses stayed wrong", st.OracleUnrecovered)
	}
}

// TestScrubCorrupt checks the MIX bundle scrubber evicts exactly the
// members covering the VA, via the MMU's scrub path.
func TestScrubCorrupt(t *testing.T) {
	e, m, want := chaosEnv(t, DesignMix)
	m.AttachOracle(chaos.NewOracle(e.pt))
	va := addr.V(0x400000)
	m.Translate(tlb.Request{VA: va}) // walk + fill
	r := m.Translate(tlb.Request{VA: va})
	if r.HitLevel != 0 {
		t.Fatalf("expected L1 hit, got %+v", r)
	}
	m.scrubCorrupt(va, addr.Page2M)
	if m.Stats().ECC.Scrubbed == 0 {
		t.Error("scrub removed nothing")
	}
	r = m.Translate(tlb.Request{VA: va})
	if r.HitLevel == 0 || r.HitLevel == 1 || !r.Walked {
		t.Errorf("post-scrub access should walk: %+v", r)
	}
	if r.PA != want[va] {
		t.Errorf("post-scrub PA = %v, want %v", r.PA, want[va])
	}
}
