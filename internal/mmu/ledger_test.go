package mmu

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/chaos"
	"mixtlb/internal/ledger"
	"mixtlb/internal/tlb"
)

// TestLedgerConservationAllDesigns is the core invariant of the
// attribution layer: for every registered design (split, MIX, rehash,
// skew, COLT, ideal, PWC, victim-level variants, ...), a mixed
// read/write stream with interleaved shootdowns closes every single
// cycle inside a translation — the ledger's closed totals equal
// Stats.Cycles exactly, before and after a mid-run ResetStats.
func TestLedgerConservationAllDesigns(t *testing.T) {
	const pages4k = 1024
	for _, d := range allTestDesigns() {
		t.Run(d, func(t *testing.T) {
			_, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0x1ed6e4+uint64(len(d)), mapped, 6000)
			m := buildDesign(t, d, pages4k)
			led := ledger.New(8)
			m.AttachLedger(led)
			for i, r := range reqs {
				m.Translate(r)
				switch i % 997 {
				case 250:
					m.Invalidate(r.VA, addr.Page4K)
				case 500:
					m.Flush()
				}
			}
			if err := m.AuditLedger(); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if e := m.Attribution()[ledger.ChaosRetry]; e != (ledger.Entry{}) {
				t.Errorf("chaos-retry books nonzero without an oracle: %+v", e)
			}
			if led.Accesses() != st.Accesses {
				t.Errorf("ledger closed %d accesses, Stats saw %d", led.Accesses(), st.Accesses)
			}
			// ResetStats must re-open clean books mid-run, exactly like
			// the warmup/measure boundary.
			m.ResetStats()
			for _, r := range reqs[:1500] {
				m.Translate(r)
			}
			if err := m.AuditLedger(); err != nil {
				t.Fatalf("post-reset: %v", err)
			}
			if m.Stats().Cycles == 0 {
				t.Fatal("post-reset interval charged no cycles")
			}
		})
	}
}

// TestCycleConservation checks the one-book guarantee for every registry
// design on an oracle-free stream with interleaved shootdowns: the sum of
// per-access Result.Cycles, Stats().Cycles and the sum of Attribution()
// are one number, and the derived walk and victim-probe fields equal
// their categories.
func TestCycleConservation(t *testing.T) {
	const pages4k = 1024
	reg := DefaultRegistry()
	for _, name := range reg.Names() {
		t.Run(name, func(t *testing.T) {
			e, mapped := buildRefEnv(t, pages4k)
			m, err := reg.Build(name, e.pt, e.pt, e.caches, nil)
			if err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for i, r := range randomRequests(0xc0c0+uint64(len(name)), mapped, 6000) {
				sum += m.Translate(r).Cycles
				if i%997 == 250 {
					m.Invalidate(r.VA, addr.Page4K)
				}
			}
			checkConservation(t, m, sum)
		})
	}
}

// checkConservation asserts that resultSum (the caller's sum of
// Result.Cycles), Stats().Cycles and the Attribution() total agree, and
// that the derived cycle fields match their categories.
func checkConservation(t *testing.T, m *MMU, resultSum uint64) {
	t.Helper()
	st := m.Stats()
	book := m.Attribution()
	var total uint64
	for _, e := range book {
		total += e.Cycles
	}
	if resultSum != st.Cycles || total != st.Cycles {
		t.Errorf("sum of Result.Cycles %d, Stats.Cycles %d, Attribution total %d: want one number",
			resultSum, st.Cycles, total)
	}
	if st.Cycles == 0 {
		t.Error("stream charged no cycles; test exercises nothing")
	}
	walk := book[ledger.WalkFull].Cycles + book[ledger.WalkPWC].Cycles + book[ledger.WalkContig].Cycles
	if walk != st.WalkCycles {
		t.Errorf("walk categories %d != Stats.WalkCycles %d", walk, st.WalkCycles)
	}
	if v := book[ledger.VictimProbe].Cycles; v != st.VictimProbeCycles {
		t.Errorf("victim-probe category %d != Stats.VictimProbeCycles %d", v, st.VictimProbeCycles)
	}
	if got := book[ledger.DirtyAssist].Events; got != st.DirtyMicroOps {
		t.Errorf("dirty-assist events %d != Stats.DirtyMicroOps %d", got, st.DirtyMicroOps)
	}
}

// TestLedgerConservationUnderChaos audits the retry path: with an
// injector corrupting hits and walks and the oracle scrubbing and
// re-translating, conservation still holds exactly and the retries'
// cycles land in the chaos-retry category instead of polluting the
// steady-state ones.
func TestLedgerConservationUnderChaos(t *testing.T) {
	for _, d := range []string{DesignSplit, DesignMix, DesignVictima, DesignSplitPWC} {
		t.Run(d, func(t *testing.T) {
			e, m, want := chaosEnv(t, d)
			m.InjectFaults(chaos.NewInjector(11, chaos.Rates{
				TLBCorrupt: 0.05, SilentFrac: 0.6, PTECorrupt: 0.05,
			}))
			m.AttachOracle(chaos.NewOracle(e.pt))
			led := ledger.New(0)
			m.AttachLedger(led)
			for round := 0; round < 40; round++ {
				for va := range want {
					m.Translate(tlb.Request{VA: va + 0x40, Write: round%3 == 0})
				}
			}
			if err := m.AuditLedger(); err != nil {
				t.Fatal(err)
			}
			st := m.Stats()
			if st.OracleMismatches == 0 {
				t.Fatal("chaos rates never tripped the oracle; test exercises nothing")
			}
			if m.Attribution()[ledger.ChaosRetry].Cycles == 0 {
				t.Error("oracle retries charged no cycles to chaos-retry")
			}
		})
	}
}

// TestAttributionFoldsRetries pins how retry passes are booked: Stats
// counts their walk cycles like any other (WalkCycles exceeds the walk
// categories by exactly the retries' walk time), Attribution folds every
// retry charge into chaos-retry so the book still sums to Stats.Cycles,
// and the ledger's trails and tail records show them as level-less
// chaos-retry steps.
func TestAttributionFoldsRetries(t *testing.T) {
	e, m, want := chaosEnv(t, DesignSplit)
	m.InjectFaults(chaos.NewInjector(3, chaos.Rates{PTECorrupt: 0.2}))
	m.AttachOracle(chaos.NewOracle(e.pt))
	led := ledger.New(ledger.MaxTailK)
	m.AttachLedger(led)
	for round := 0; round < 40; round++ {
		for va := range want {
			m.Translate(tlb.Request{VA: va + 0x40})
		}
	}
	st := m.Stats()
	book := m.Attribution()
	var total uint64
	for _, en := range book {
		total += en.Cycles
	}
	if total != st.Cycles {
		t.Fatalf("Attribution total %d != Stats.Cycles %d", total, st.Cycles)
	}
	walk := book[ledger.WalkFull].Cycles + book[ledger.WalkPWC].Cycles + book[ledger.WalkContig].Cycles
	if walk >= st.WalkCycles {
		t.Fatalf("walk categories %d should fall short of Stats.WalkCycles %d by the retry walks",
			walk, st.WalkCycles)
	}
	if book[ledger.ChaosRetry].Cycles < st.WalkCycles-walk {
		t.Fatalf("chaos-retry %d cycles cannot hold the %d retry walk cycles",
			book[ledger.ChaosRetry].Cycles, st.WalkCycles-walk)
	}
	retried := false
	for _, r := range led.Top() {
		if r.Retries == 0 {
			continue
		}
		retried = true
		found := false
		for _, s := range r.Trail() {
			if s.Cat == ledger.ChaosRetry {
				found = true
				if s.Level != -1 {
					t.Errorf("chaos-retry step carries level %d", s.Level)
				}
			}
		}
		if !found {
			t.Errorf("retried access has no chaos-retry step: %s", ledger.TrailString(r.Trail()))
		}
	}
	if !retried {
		t.Fatal("no tail record saw a retry; test exercises nothing")
	}
}

// TestLedgerObserverOnly pins the "passive observer" contract: two MMUs
// of the same design fed the same stream — one with a ledger and tail
// recorder attached, one bare — must produce identical results and
// identical Stats. This is the per-MMU form of the golden-table
// invariance the experiments layer asserts end to end.
func TestLedgerObserverOnly(t *testing.T) {
	const pages4k = 512
	for _, d := range allTestDesigns() {
		t.Run(d, func(t *testing.T) {
			reqs := randomRequests(0x0b5e4e4+uint64(len(d)), nil2mapped(t, pages4k), 4000)
			bare := buildDesign(t, d, pages4k)
			wired := buildDesign(t, d, pages4k)
			wired.AttachLedger(ledger.New(16))
			for i, r := range reqs {
				a := bare.Translate(r)
				b := wired.Translate(r)
				if a != b {
					t.Fatalf("access %d: bare %+v != instrumented %+v", i, a, b)
				}
			}
			if sa, sb := bare.Stats(), wired.Stats(); sa != sb {
				t.Fatalf("stats diverged:\nbare  %+v\nwired %+v", sa, sb)
			}
		})
	}
}

// nil2mapped rebuilds the reference environment's mapped-page list
// without retaining the env (each buildDesign call makes its own, with
// identical deterministic layout).
func nil2mapped(t *testing.T, pages4k int) []mappedPage {
	t.Helper()
	_, mapped := buildRefEnv(t, pages4k)
	return mapped
}

// TestLedgerTailRecordsSlowest checks the flight recorder end to end on
// a real MMU: records exist, are sorted slowest-first, never exceed K,
// and the slowest record's cycles match a walk-bearing access (the tail
// of any TLB'd design is its walks).
func TestLedgerTailRecordsSlowest(t *testing.T) {
	const pages4k = 1024
	_, mapped := buildRefEnv(t, pages4k)
	reqs := randomRequests(0x7a11, mapped, 8000)
	m := buildDesign(t, DesignSplit, pages4k)
	led := ledger.New(8)
	m.AttachLedger(led)
	var maxCycles uint64
	for _, r := range reqs {
		if res := m.Translate(r); res.Cycles > maxCycles {
			maxCycles = res.Cycles
		}
	}
	top := led.Top()
	if len(top) != 8 {
		t.Fatalf("recorded %d tail records, want 8", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Cycles > top[i-1].Cycles {
			t.Fatalf("tail not sorted: %d then %d", top[i-1].Cycles, top[i].Cycles)
		}
	}
	if top[0].Cycles != maxCycles {
		t.Errorf("slowest record %d cycles, observed max %d", top[0].Cycles, maxCycles)
	}
	if top[0].WalkRefs == 0 || top[0].HitLevel != -1 {
		t.Errorf("slowest access should be a walk: %+v", top[0])
	}
	if len(top[0].Trail()) == 0 {
		t.Error("slowest record carries no trail")
	}
}

// TestTranslateZeroAllocLedgerEnabled extends the telemetry pin to the
// attribution layer: a ledger with a full-size tail recorder attached
// must not add a single steady-state allocation, and neither may the
// disabled state (re-pinned here so the nil-check path stays honest even
// if the telemetry tests move).
func TestTranslateZeroAllocLedgerEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const pages4k = 1024
	for _, d := range allTestDesigns() {
		t.Run(d, func(t *testing.T) {
			_, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0xa110c+uint64(len(d)), mapped, 4096)
			for _, attach := range []bool{false, true} {
				m := buildDesign(t, d, pages4k)
				if attach {
					m.AttachLedger(ledger.New(ledger.MaxTailK))
				}
				for _, r := range reqs {
					m.Translate(r)
				}
				i := 0
				avg := testing.AllocsPerRun(20, func() {
					for j := 0; j < 256; j++ {
						m.Translate(reqs[i%len(reqs)])
						i++
					}
				})
				if avg != 0 {
					t.Errorf("attached=%v: Translate allocates %.2f times per 256 accesses", attach, avg)
				}
			}
		})
	}
}
