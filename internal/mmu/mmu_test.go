package mmu

import (
	"reflect"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/isa"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/physmem"
	"mixtlb/internal/tlb"
)

type env struct {
	buddy  *physmem.Buddy
	pt     *pagetable.PageTable
	caches *cachesim.Hierarchy
}

func newEnv(t *testing.T) *env {
	t.Helper()
	buddy := physmem.NewBuddy(4 << 30)
	pt, err := pagetable.NewISA(buddy, isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	return &env{buddy: buddy, pt: pt, caches: cachesim.DefaultHierarchy()}
}

func (e *env) mapPage(t *testing.T, va addr.V, size addr.PageSize) addr.P {
	t.Helper()
	pa, ok := e.buddy.AllocPage(size)
	if !ok {
		t.Fatal("allocation failed")
	}
	if err := e.pt.Map(va, pa, size, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	return pa
}

func splitMMU(e *env, fault FaultHandler) *MMU {
	return mustBuild(DefaultRegistry().Build(DesignSplit, e.pt, e.pt, e.caches, fault))
}

// mustBuild unwraps constructor errors in tests, where configs are static.
func mustBuild(m *MMU, err error) *MMU {
	if err != nil {
		panic(err)
	}
	return m
}

func TestTranslateHitMissWalk(t *testing.T) {
	e := newEnv(t)
	pa := e.mapPage(t, 0x200000, addr.Page2M)
	m := splitMMU(e, nil)

	// First access: L1 and L2 miss, walk.
	r := m.Translate(tlb.Request{VA: 0x200000 + 0x123})
	if !r.Walked || r.HitLevel == 0 || r.HitLevel == 1 {
		t.Fatalf("first access: %+v", r)
	}
	if r.PA != pa+0x123 {
		t.Errorf("PA = %v, want %v", r.PA, pa+0x123)
	}
	if r.Cycles <= DefaultLatencies().L1Hit {
		t.Error("walk cost not charged")
	}

	// Second access: L1 hit, cheap.
	r = m.Translate(tlb.Request{VA: 0x200000 + 0x5000})
	if r.HitLevel != 0 {
		t.Fatalf("second access: %+v", r)
	}
	if r.Cycles != DefaultLatencies().L1Hit {
		t.Errorf("L1 hit cost %d cycles", r.Cycles)
	}

	st := m.Stats()
	if st.Accesses != 2 || st.L1Hits != 1 || st.Walks != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.WalkRefs != 3 {
		t.Errorf("2MB walk made %d PTE refs, want 3", st.WalkRefs)
	}
}

func TestL2HitPromotesToL1(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	m := splitMMU(e, nil)
	m.Translate(tlb.Request{VA: 0x1000}) // walk, fills L1+L2
	// Evict the L1 entry by filling conflicting pages: the Haswell L1 4KB
	// component has 16 sets and 4 ways, so five pages 16 VPNs apart (set
	// 1, not set 0 where 0x1000 lives... use same set: stride 16 pages).
	for i := 1; i <= 5; i++ {
		va := addr.V(0x1000 + i*16*addr.Size4K)
		e.mapPage(t, va, addr.Page4K)
		m.Translate(tlb.Request{VA: va})
	}
	m.ResetStats()
	r := m.Translate(tlb.Request{VA: 0x1000})
	if r.HitLevel != 1 {
		t.Fatalf("expected L2 hit: %+v", r)
	}
	// Promotion: next access hits L1.
	r = m.Translate(tlb.Request{VA: 0x1000})
	if r.HitLevel != 0 {
		t.Fatalf("no promotion to L1: %+v", r)
	}
}

func TestDemandPagingFaultHandler(t *testing.T) {
	e := newEnv(t)
	faults := 0
	handler := func(va addr.V, write bool) bool {
		faults++
		pa, ok := e.buddy.AllocPage(addr.Page4K)
		if !ok {
			return false
		}
		return e.pt.Map(va.PageBase(addr.Page4K), pa, addr.Page4K, addr.PermRW) == nil
	}
	m := splitMMU(e, handler)
	r := m.Translate(tlb.Request{VA: 0x7f00_0000_1234})
	if r.Faulted || !r.Walked {
		t.Fatalf("demand-paged access failed: %+v", r)
	}
	if faults != 1 {
		t.Errorf("faults = %d", faults)
	}
	// Now mapped: no more faults.
	m.Translate(tlb.Request{VA: 0x7f00_0000_1234})
	if faults != 1 {
		t.Errorf("faults after re-access = %d", faults)
	}
}

func TestTrueFault(t *testing.T) {
	e := newEnv(t)
	m := splitMMU(e, func(addr.V, bool) bool { return false })
	r := m.Translate(tlb.Request{VA: 0xdead000})
	if !r.Faulted {
		t.Fatal("expected fault")
	}
	if m.Stats().Faults != 1 {
		t.Error("fault not counted")
	}
}

func TestDirtyMicroOpOnce(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	m := splitMMU(e, nil)
	m.Translate(tlb.Request{VA: 0x1000}) // read: clean fill
	m.Translate(tlb.Request{VA: 0x1000, Write: true})
	if m.Stats().DirtyMicroOps != 1 {
		t.Fatalf("micro-ops = %d, want 1", m.Stats().DirtyMicroOps)
	}
	// The entry is now dirty: further stores are free.
	m.Translate(tlb.Request{VA: 0x1000, Write: true})
	m.Translate(tlb.Request{VA: 0x1000, Write: true})
	if m.Stats().DirtyMicroOps != 1 {
		t.Errorf("micro-ops = %d after repeat stores", m.Stats().DirtyMicroOps)
	}
	// The page table saw the dirty bit.
	tr, _ := e.pt.Lookup(0x1000)
	if !tr.Dirty {
		t.Error("PTE dirty bit not set")
	}
}

// TestPromotedCopyKeepsDirty: a deep hit refills the level above with the
// entry as it stands, so a store through an L1 copy promoted from a dirty
// L2 entry injects no micro-op.
func TestPromotedCopyKeepsDirty(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	e.mapPage(t, 0x2000, addr.Page4K)
	l1 := tlb.Must(tlb.NewSetAssoc("l1", addr.Page4K, 1, 1))
	l2 := tlb.Must(tlb.NewSetAssoc("l2", addr.Page4K, 16, 4))
	m := mustBuild(New(Config{Name: "promote", Levels: L(l1, l2)}, e.pt, e.caches, nil))
	m.Translate(tlb.Request{VA: 0x1000, Write: true}) // walk, one micro-op
	m.Translate(tlb.Request{VA: 0x2000})              // evicts 0x1000 from L1 only
	if r := m.Translate(tlb.Request{VA: 0x1000, Write: true}); r.HitLevel != 1 {
		t.Fatalf("store after L1 eviction served at level %d, want L2", r.HitLevel)
	}
	if r := m.Translate(tlb.Request{VA: 0x1000, Write: true}); r.HitLevel != 0 {
		t.Fatalf("store through promoted copy served at level %d, want L1", r.HitLevel)
	}
	if n := m.Stats().DirtyMicroOps; n != 1 {
		t.Fatalf("micro-ops = %d, want 1: the promoted copy lost the dirty bit", n)
	}
}

func TestInvalidateShootdown(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x200000, addr.Page2M)
	m := splitMMU(e, nil)
	m.Translate(tlb.Request{VA: 0x200000})
	m.Invalidate(0x200000, addr.Page2M)
	m.ResetStats()
	r := m.Translate(tlb.Request{VA: 0x200000})
	if !r.Walked {
		t.Error("entry survived shootdown")
	}
	// Cross-check Flush too.
	m.Flush()
	m.ResetStats()
	if r := m.Translate(tlb.Request{VA: 0x200000}); !r.Walked {
		t.Error("entry survived flush")
	}
}

func TestIdealDesignNeverWalksTwice(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x200000, addr.Page2M)
	m := mustBuild(DefaultRegistry().Build(DesignIdeal, e.pt, e.pt, e.caches, nil))
	r := m.Translate(tlb.Request{VA: 0x234567})
	if r.HitLevel != 0 || r.Cycles != DefaultLatencies().L1Hit {
		t.Fatalf("ideal access: %+v", r)
	}
	if m.Stats().WalkRefs != 0 {
		t.Error("ideal charged walk refs")
	}
}

func TestIdealDemandPagingIsFree(t *testing.T) {
	e := newEnv(t)
	handler := func(va addr.V, write bool) bool {
		pa, ok := e.buddy.AllocPage(addr.Page4K)
		if !ok {
			return false
		}
		return e.pt.Map(va.PageBase(addr.Page4K), pa, addr.Page4K, addr.PermRW) == nil
	}
	m := mustBuild(DefaultRegistry().Build(DesignIdeal, e.pt, e.pt, e.caches, handler))
	r := m.Translate(tlb.Request{VA: 0x5000})
	if r.Faulted || r.PA == 0 {
		t.Fatalf("ideal demand paging: %+v", r)
	}
	if m.Stats().WalkCycles != 0 {
		t.Error("ideal paid walk cycles")
	}
}

func TestAllDesignsTranslateCorrectly(t *testing.T) {
	// Every design must return the same physical addresses; they differ
	// only in cost. This is the cross-design equivalence check.
	vas := []addr.V{0x1000, 0x200000, 0x40000000, 0x200000 + 0x7ffff, 0x1000 + 0xfff}
	for _, d := range append(AllDesigns(), DesignMixSuperIndex) {
		e := newEnv(t)
		want := map[addr.V]addr.P{}
		pa4 := e.mapPage(t, 0x1000, addr.Page4K)
		pa2 := e.mapPage(t, 0x200000, addr.Page2M)
		pa1 := e.mapPage(t, 0x40000000, addr.Page1G)
		want[0x1000] = pa4
		want[0x200000] = pa2
		want[0x40000000] = pa1
		want[0x200000+0x7ffff] = pa2 + 0x7ffff
		want[0x1000+0xfff] = pa4 + 0xfff
		m := mustBuild(DefaultRegistry().Build(d, e.pt, e.pt, e.caches, nil))
		for round := 0; round < 3; round++ { // cold, warm, warm
			for _, va := range vas {
				r := m.Translate(tlb.Request{VA: va, Write: round == 2})
				if r.Faulted || r.PA != want[va] {
					t.Errorf("%s round %d: Translate(%v) = %v, want %v",
						d, round, va, r.PA, want[va])
				}
			}
		}
		st := m.Stats()
		if d != DesignIdeal && st.Walks == 0 {
			t.Errorf("%s never walked", d)
		}
	}
}

func TestUnknownDesignErrors(t *testing.T) {
	e := newEnv(t)
	if _, err := DefaultRegistry().Build("bogus", e.pt, e.pt, e.caches, nil); err == nil {
		t.Fatal("no error for unknown design")
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 || s.CyclesPerAccess() != 0 {
		t.Error("zero stats not safe")
	}
	s.Accesses, s.Walks, s.Cycles = 10, 2, 50
	if s.MissRatio() != 0.2 {
		t.Errorf("MissRatio = %v", s.MissRatio())
	}
	if s.CyclesPerAccess() != 5 {
		t.Errorf("CyclesPerAccess = %v", s.CyclesPerAccess())
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// TestStatsAddSumsEveryField sets every numeric field of two Stats
// (nested cost and ECC structs included) to distinct values and checks
// that Add sums each one, so a field added to Stats without a line in
// Add fails here instead of vanishing from SMP and GPU aggregates.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	la := numericFields(t, reflect.ValueOf(&a).Elem(), "Stats")
	lb := numericFields(t, reflect.ValueOf(&b).Elem(), "Stats")
	for i := range la {
		setNumeric(la[i].v, uint64(i+1))
		setNumeric(lb[i].v, uint64(100*(i+1)))
	}
	a.Add(b)
	for i, f := range numericFields(t, reflect.ValueOf(&a).Elem(), "Stats") {
		if got, want := getNumeric(f.v), uint64(101*(i+1)); got != want {
			t.Errorf("%s = %d after Add, want %d", f.name, got, want)
		}
	}
}

type numericField struct {
	name string
	v    reflect.Value
}

// numericFields lists the integer leaves of struct v in declaration order.
func numericFields(t *testing.T, v reflect.Value, path string) []numericField {
	t.Helper()
	var out []numericField
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), path+"."+v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Struct:
			out = append(out, numericFields(t, f, name)...)
		case reflect.Int, reflect.Uint64:
			out = append(out, numericField{name, f})
		default:
			t.Fatalf("%s has kind %s; teach this test (and Stats.Add) about it", name, f.Kind())
		}
	}
	return out
}

func setNumeric(v reflect.Value, x uint64) {
	if v.Kind() == reflect.Int {
		v.SetInt(int64(x))
	} else {
		v.SetUint(x)
	}
}

func getNumeric(v reflect.Value) uint64 {
	if v.Kind() == reflect.Int {
		return uint64(v.Int())
	}
	return v.Uint()
}

func TestMissingL1Errors(t *testing.T) {
	e := newEnv(t)
	if _, err := New(Config{Name: "bad"}, e.pt, e.caches, nil); err == nil {
		t.Fatal("no error for missing L1")
	}
}

func TestHashRehashProbeLatency(t *testing.T) {
	// The latency-variability drawback of multi-indexing (Sec 5.1): a
	// 1GB-page hit through rehash costs more cycles than a 4KB hit.
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	e.mapPage(t, 0x40000000, addr.Page1G)
	m := mustBuild(DefaultRegistry().Build(DesignRehash, e.pt, e.pt, e.caches, nil))
	m.Translate(tlb.Request{VA: 0x1000, PC: 1})
	m.Translate(tlb.Request{VA: 0x40000000, PC: 2})
	// Warm hits; PC 2 is now trained to predict 1GB, so use a fresh PC to
	// expose the variable latency.
	small := m.Translate(tlb.Request{VA: 0x1000, PC: 1})
	large := m.Translate(tlb.Request{VA: 0x40000000, PC: 99})
	if small.Cycles >= large.Cycles {
		t.Errorf("rehash hit latencies: 4KB=%d, mispredicted 1GB=%d", small.Cycles, large.Cycles)
	}
}

func TestDirtyGroupRefreshThroughMMU(t *testing.T) {
	// Store path over a coalesced MIX bundle: the first stores pay the
	// PTE-update micro-op; once every member of the touched line group is
	// dirty, the assist's line refresh exempts the group and further
	// stores are free.
	e := newEnv(t)
	// Map 8 contiguous 2MB pages (one full line group).
	basePA, ok := e.buddy.AllocPage(addr.Page1G) // carve a contiguous GB
	if !ok {
		t.Fatal("alloc failed")
	}
	baseVA := addr.V(32) << 21 // window-aligned for K=16
	for i := 0; i < 8; i++ {
		va := baseVA + addr.V(i)<<21
		pa := basePA + addr.P(i)<<21
		if err := e.pt.Map(va, pa, addr.Page2M, addr.PermRW); err != nil {
			t.Fatal(err)
		}
		e.pt.SetAccessed(va)
	}
	m := mustBuild(DefaultRegistry().Build(DesignMix, e.pt, e.pt, e.caches, nil))
	// Write every member once: 8 micro-ops (one per member's first store).
	for i := 0; i < 8; i++ {
		m.Translate(tlb.Request{VA: baseVA + addr.V(i)<<21, Write: true})
	}
	ops := m.Stats().DirtyMicroOps
	if ops != 8 {
		t.Fatalf("first-store micro-ops = %d, want 8", ops)
	}
	// The last store's assist saw the whole line dirty: the group is now
	// exempt and further stores add no micro-ops.
	for i := 0; i < 8; i++ {
		m.Translate(tlb.Request{VA: baseVA + addr.V(i)<<21 + 0x123, Write: true})
	}
	if got := m.Stats().DirtyMicroOps; got != ops {
		t.Errorf("micro-ops grew from %d to %d after group refresh", ops, got)
	}
}

func TestLatencyOverride(t *testing.T) {
	e := newEnv(t)
	e.mapPage(t, 0x1000, addr.Page4K)
	m := mustBuild(New(Config{
		Name:   "slow",
		Levels: L(tlb.Must(tlb.NewSetAssoc("l1", addr.Page4K, 4, 2))),
		Lat:    Latencies{L1Hit: 3, L2Hit: 0, ExtraProbe: 0, DirtyMicroOp: 50},
	}, e.pt, e.caches, nil))
	m.Translate(tlb.Request{VA: 0x1000})
	r := m.Translate(tlb.Request{VA: 0x1000, Write: true})
	if r.Cycles != 3+50 {
		t.Errorf("cycles = %d, want 53 (L1Hit + DirtyMicroOp)", r.Cycles)
	}
}
