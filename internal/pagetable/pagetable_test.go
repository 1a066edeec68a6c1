package pagetable

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
)

func newPT(t *testing.T) *PageTable {
	t.Helper()
	pt, err := NewISA(physmem.NewBuddy(256<<20), isa.Default()) // 256MB for table pages
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

func TestMapLookupAllSizes(t *testing.T) {
	pt := newPT(t)
	cases := []struct {
		va   addr.V
		pa   addr.P
		size addr.PageSize
	}{
		{0x7f0000001000, 0x1000, addr.Page4K},
		{0x7f0000200000, 0x400000, addr.Page2M},
		{0x40000000, 0x80000000, addr.Page1G},
	}
	for _, c := range cases {
		if err := pt.Map(c.va, c.pa, c.size, addr.PermRW); err != nil {
			t.Fatalf("Map(%v): %v", c.va, err)
		}
	}
	for _, c := range cases {
		// Probe an offset inside the page, not just the base.
		probe := c.va + addr.V(c.size.Bytes()/2)
		tr, ok := pt.Lookup(probe)
		if !ok {
			t.Fatalf("Lookup(%v) missed", probe)
		}
		if tr.VA != c.va || tr.PA != c.pa || tr.Size != c.size {
			t.Errorf("Lookup(%v) = %v", probe, tr)
		}
		if got, want := tr.Translate(probe), c.pa+addr.P(c.size.Bytes()/2); got != want {
			t.Errorf("Translate = %v, want %v", got, want)
		}
	}
	if pt.Count(addr.Page4K) != 1 || pt.Count(addr.Page2M) != 1 || pt.Count(addr.Page1G) != 1 {
		t.Error("Count wrong")
	}
}

func TestMapMisaligned(t *testing.T) {
	pt := newPT(t)
	if err := pt.Map(0x1000, 0x2000, addr.Page2M, addr.PermRW); err != ErrMisaligned {
		t.Errorf("misaligned VA: %v", err)
	}
	if err := pt.Map(0x200000, 0x1000, addr.Page2M, addr.PermRW); err != ErrMisaligned {
		t.Errorf("misaligned PA: %v", err)
	}
}

func TestMapOverlap(t *testing.T) {
	pt := newPT(t)
	if err := pt.Map(0x200000, 0x200000, addr.Page2M, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	// Same 2MB page again.
	if err := pt.Map(0x200000, 0x600000, addr.Page2M, addr.PermRW); err != ErrOverlap {
		t.Errorf("duplicate 2MB map: %v", err)
	}
	// A 4KB page inside the existing 2MB page.
	if err := pt.Map(0x201000, 0x1000, addr.Page4K, addr.PermRW); err != ErrOverlap {
		t.Errorf("4KB inside 2MB: %v", err)
	}
	// A 2MB page over existing 4KB pages.
	if err := pt.Map(0x400000, 0x1000, addr.Page4K, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(0x400000, 0x800000, addr.Page2M, addr.PermRW); err != ErrOverlap {
		t.Errorf("2MB over 4KB: %v", err)
	}
	// A 1GB page over the whole lot.
	if err := pt.Map(0, 0x40000000, addr.Page1G, addr.PermRW); err != ErrOverlap {
		t.Errorf("1GB over smaller pages: %v", err)
	}
}

func TestUnmap(t *testing.T) {
	pt := newPT(t)
	if err := pt.Map(0x200000, 0xa00000, addr.Page2M, addr.PermRead); err != nil {
		t.Fatal(err)
	}
	tr, err := pt.Unmap(0x234567) // any address inside the page
	if err != nil {
		t.Fatal(err)
	}
	if tr.PA != 0xa00000 || tr.Size != addr.Page2M {
		t.Errorf("Unmap returned %v", tr)
	}
	if _, ok := pt.Lookup(0x200000); ok {
		t.Error("translation survives Unmap")
	}
	if pt.Count(addr.Page2M) != 0 {
		t.Error("count not decremented")
	}
	if _, err := pt.Unmap(0x200000); err != ErrNotMapped {
		t.Errorf("double unmap: %v", err)
	}
	// The slot is reusable.
	if err := pt.Map(0x200000, 0xc00000, addr.Page2M, addr.PermRW); err != nil {
		t.Errorf("remap after unmap: %v", err)
	}
}

func TestAccessedDirtyBits(t *testing.T) {
	pt := newPT(t)
	va := addr.V(0x5000)
	if err := pt.Map(va, 0x9000, addr.Page4K, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	tr, _ := pt.Lookup(va)
	if tr.Accessed || tr.Dirty {
		t.Error("fresh mapping has A/D set")
	}
	if !pt.SetAccessed(va) {
		t.Fatal("SetAccessed failed")
	}
	tr, _ = pt.Lookup(va)
	if !tr.Accessed || tr.Dirty {
		t.Errorf("after SetAccessed: %v", tr)
	}
	if !pt.SetDirty(va) {
		t.Fatal("SetDirty failed")
	}
	tr, _ = pt.Lookup(va)
	if !tr.Accessed || !tr.Dirty {
		t.Errorf("after SetDirty: %v", tr)
	}
	if !pt.ClearAccessedDirty(va) {
		t.Fatal("ClearAccessedDirty failed")
	}
	tr, _ = pt.Lookup(va)
	if tr.Accessed || tr.Dirty {
		t.Errorf("after clear: %v", tr)
	}
	if pt.SetAccessed(0xdead000000) || pt.SetDirty(0xdead000000) || pt.ClearAccessedDirty(0xdead000000) {
		t.Error("A/D ops succeeded on unmapped VA")
	}
}

// TestClearDirty: ClearDirty clears the D bit of every leaf, at every
// page size, and leaves everything else a walk or lookup sees alone.
func TestClearDirty(t *testing.T) {
	pt := newPT(t)
	maps := []Translation{
		{VA: 0x5000, PA: 0x9000, Size: addr.Page4K, Perm: addr.PermRW},
		{VA: 0x6000, PA: 0xa000, Size: addr.Page4K, Perm: addr.PermRead},
		{VA: 0x400000, PA: 0xa00000, Size: addr.Page2M, Perm: addr.PermRW},
		{VA: 0x80000000, PA: 0x40000000, Size: addr.Page1G, Perm: addr.PermRW},
	}
	for i, m := range maps {
		if err := pt.Map(m.VA, m.PA, m.Size, m.Perm); err != nil {
			t.Fatal(err)
		}
		pt.SetAccessed(m.VA)
		if i != 1 {
			pt.SetDirty(m.VA)
		}
	}
	pt.ClearDirty()
	for _, m := range maps {
		m.Accessed = true
		if tr, ok := pt.Lookup(m.VA); !ok || tr != m {
			t.Errorf("after ClearDirty: %v, want %v", tr, m)
		}
	}
}

func TestWalkNative(t *testing.T) {
	pt := newPT(t)
	va := addr.V(0x7f0000201000)
	if err := pt.Map(va, 0x3000, addr.Page4K, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	res := pt.Walk(va + 0x123)
	if !res.Found {
		t.Fatal("walk missed")
	}
	if len(res.Accesses) != Levels {
		t.Errorf("walk made %d accesses, want %d", len(res.Accesses), Levels)
	}
	if res.Accesses[0].PageBase(addr.Page4K) != pt.RootBase() {
		t.Errorf("first access %v not in root table %v", res.Accesses[0], pt.RootBase())
	}
	if res.Translation.PA != 0x3000 {
		t.Errorf("walk translation %v", res.Translation)
	}
	if !res.Translation.Accessed {
		t.Error("walk did not set the accessed bit")
	}
	// A 2MB walk stops at level 2: three accesses.
	if err := pt.Map(0x40000000, 0x200000, addr.Page2M, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	if res := pt.Walk(0x40000000); len(res.Accesses) != 3 {
		t.Errorf("2MB walk made %d accesses", len(res.Accesses))
	}
	// A 1GB walk stops at level 3: two accesses.
	if err := pt.Map(0x80000000, 0x40000000, addr.Page1G, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	if res := pt.Walk(0x80000000); len(res.Accesses) != 2 {
		t.Errorf("1GB walk made %d accesses", len(res.Accesses))
	}
}

func TestWalkUnmapped(t *testing.T) {
	pt := newPT(t)
	res := pt.Walk(0x123456789)
	if res.Found {
		t.Fatal("walk of empty table found something")
	}
	if len(res.Accesses) != 1 {
		t.Errorf("empty walk made %d accesses, want 1 (root miss)", len(res.Accesses))
	}
	if len(res.Line) != 0 {
		t.Error("miss returned line translations")
	}
}

func TestWalkLineNeighbors(t *testing.T) {
	pt := newPT(t)
	// Map 2MB pages B..B+7 contiguously (like Figure 2's B and C), plus
	// one with different placement further along the same line window.
	base := addr.V(16 << 21) // 2MB page number 16: line covers PTEs 16..23
	for i := 0; i < 6; i++ {
		va := base + addr.V(i)<<21
		pa := addr.P(0x40000000 + i<<21)
		if err := pt.Map(va, pa, addr.Page2M, addr.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	res := pt.Walk(base + 0x1234)
	if !res.Found {
		t.Fatal("walk missed")
	}
	if len(res.Line) != 6 {
		t.Fatalf("line has %d translations, want 6", len(res.Line))
	}
	for i, tr := range res.Line {
		if tr.VA != base+addr.V(i)<<21 {
			t.Errorf("line[%d].VA = %v", i, tr.VA)
		}
		if tr.Size != addr.Page2M {
			t.Errorf("line[%d].Size = %v", i, tr.Size)
		}
	}
	// A walk to page 23 shares the same line; a walk to 24 does not.
	if err := pt.Map(base+addr.V(7)<<21, 0x80000000, addr.Page2M, addr.PermRW); err != nil {
		t.Fatal(err)
	}
	res = pt.Walk(base + addr.V(7)<<21)
	if len(res.Line) != 7 {
		t.Errorf("line has %d translations, want 7", len(res.Line))
	}
}

func TestWalkLineCrossBoundary(t *testing.T) {
	pt := newPT(t)
	// Pages 7 and 8 are contiguous but sit in different cache lines
	// (lines cover 0-7 and 8-15): the walker must not see across.
	for i := 7; i <= 8; i++ {
		if err := pt.Map(addr.V(i)<<21, addr.P(i)<<21, addr.Page2M, addr.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	res := pt.Walk(addr.V(7) << 21)
	if len(res.Line) != 1 || res.Line[0].VA != addr.V(7)<<21 {
		t.Errorf("line for page 7 = %v", res.Line)
	}
}

func TestForEachOrder(t *testing.T) {
	pt := newPT(t)
	vas := []addr.V{0x40000000, 0x1000, 0x200000, 0x7f0000000000, 0x3000}
	sizes := []addr.PageSize{addr.Page1G, addr.Page4K, addr.Page2M, addr.Page4K, addr.Page4K}
	for i, va := range vas {
		pa := addr.P(uint64(i+1) << 30)
		if err := pt.Map(va, pa, sizes[i], addr.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	var got []addr.V
	pt.ForEach(func(tr Translation) bool {
		got = append(got, tr.VA)
		return true
	})
	want := []addr.V{0x1000, 0x3000, 0x200000, 0x40000000, 0x7f0000000000}
	if len(got) != len(want) {
		t.Fatalf("visited %d translations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("visit %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Early stop.
	n := 0
	pt.ForEach(func(Translation) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestMapLookupProperty(t *testing.T) {
	pt := newPT(t)
	mapped := make(map[addr.V]Translation)
	f := func(raw uint64, sizeSel, permSel uint8) bool {
		size := addr.Sizes()[int(sizeSel)%addr.NumPageSizes]
		va := addr.V(raw & (1<<addr.VABits - 1)).PageBase(size)
		pa := addr.P(raw >> 7 & (1<<addr.PABits - 1)).PageBase(size)
		perm := addr.Perm(permSel&7) | addr.PermRead
		err := pt.Map(va, pa, size, perm)
		if err != nil {
			return err == ErrOverlap // collisions with earlier picks are fine
		}
		mapped[va] = Translation{VA: va, PA: pa, Size: size, Perm: perm}
		for wantVA, want := range mapped {
			got, ok := pt.Lookup(wantVA)
			if !ok || got.PA != want.PA || got.Size != want.Size || got.Perm != want.Perm {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPTERoundTrip(t *testing.T) {
	f := func(raw uint64, sizeSel, permSel uint8, acc, dirty bool) bool {
		size := addr.Sizes()[int(sizeSel)%addr.NumPageSizes]
		level := map[addr.PageSize]int{addr.Page4K: 1, addr.Page2M: 2, addr.Page1G: 3}[size]
		want := Translation{
			VA:       addr.V(raw & (1<<addr.VABits - 1)).PageBase(size),
			PA:       addr.P(raw >> 3 & (1<<addr.PABits - 1)).PageBase(size),
			Size:     size,
			Perm:     addr.Perm(permSel%16) | addr.PermRead,
			Accessed: acc,
			Dirty:    dirty,
		}
		got, ok := DecodePTE(EncodePTE(want, level), want.VA, level)
		return ok && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodePTERejects(t *testing.T) {
	if _, ok := DecodePTE(0, 0, 1); ok {
		t.Error("decoded a non-present PTE")
	}
	// PS at level 1 is malformed.
	tr := Translation{Size: addr.Page2M, Perm: addr.PermRW}
	if _, ok := DecodePTE(EncodePTE(tr, 2), 0, 1); ok {
		t.Error("decoded PS bit at level 1")
	}
	// Table pointer (no PS) decoded as leaf at level 2 is rejected.
	tr4k := Translation{Size: addr.Page4K, Perm: addr.PermRW}
	if _, ok := DecodePTE(EncodePTE(tr4k, 1), 0, 2); ok {
		t.Error("decoded a table pointer as a 2MB leaf")
	}
}

func TestTranslationValidity(t *testing.T) {
	var zero Translation
	if zero.Valid() {
		// Zero-value has Size=Page4K but no read permission.
		t.Error("zero translation reported valid")
	}
	ok := Translation{Size: addr.Page2M, Perm: addr.PermRead}
	if !ok.Valid() {
		t.Error("real translation reported invalid")
	}
}

func TestNoMemory(t *testing.T) {
	// 2 frames: root consumes one; deep mapping needs 3 more.
	tiny := physmem.NewBuddy(2 * addr.Size4K)
	pt, err := NewISA(tiny, isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	err = pt.Map(0x1000, 0x1000, addr.Page4K, addr.PermRW)
	if err != ErrNoMemory {
		t.Errorf("Map on exhausted allocator: %v", err)
	}
}

func TestTablePagesHaveDistinctFrames(t *testing.T) {
	buddy := physmem.NewBuddy(64 << 20)
	pt, err := NewISA(buddy, isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(5)
	seen := map[addr.P]bool{pt.RootBase(): true}
	for i := 0; i < 50; i++ {
		va := addr.V(rng.Uint64n(1 << addr.VABits)).PageBase(addr.Page4K)
		if err := pt.Map(va, 0x1000, addr.Page4K, addr.PermRW); err != nil {
			continue
		}
		res := pt.Walk(va)
		for _, a := range res.Accesses {
			seen[a.PageBase(addr.Page4K)] = true
		}
	}
	// Sparse random VAs force many distinct table pages; all must have
	// unique physical frames (the allocator guarantees it, the walker
	// must expose it).
	if len(seen) < 20 {
		t.Errorf("only %d distinct table frames observed", len(seen))
	}
}

func TestCollapseEmptyChildTable(t *testing.T) {
	// khugepaged's collapse: unmap all 512 base pages of a region, then
	// install one 2MB leaf where the (empty) page table used to hang.
	buddy := physmem.NewBuddy(256 << 20)
	pt, err := NewISA(buddy, isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	base := addr.V(0x40000000)
	for i := 0; i < 512; i++ {
		if err := pt.Map(base+addr.V(i*addr.Size4K), addr.P(i*addr.Size4K), addr.Page4K, addr.PermRW); err != nil {
			t.Fatal(err)
		}
	}
	// With live base pages, the 2MB map must refuse.
	if err := pt.Map(base, 0x12400000, addr.Page2M, addr.PermRW); err != ErrOverlap {
		t.Fatalf("map over live 4KB pages: %v", err)
	}
	free := buddy.FreeFrames()
	for i := 0; i < 512; i++ {
		if _, err := pt.Unmap(base + addr.V(i*addr.Size4K)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Map(base, 0x12400000, addr.Page2M, addr.PermRW); err != nil {
		t.Fatalf("collapse failed: %v", err)
	}
	tr, ok := pt.Lookup(base + 0x1234)
	if !ok || tr.Size != addr.Page2M || tr.PA != 0x12400000 {
		t.Errorf("post-collapse lookup: %v %v", tr, ok)
	}
	// The empty table page was reclaimed.
	if buddy.FreeFrames() != free+1 {
		t.Errorf("table page not reclaimed: %d -> %d", free, buddy.FreeFrames())
	}
}

// TestMapRefusesUnencodable: a packed PTE holds a frame number in bits
// 12..51 and the permission set in four bits, so Map refuses a PA at or
// above 2^52 and a Perm beyond addr's four flags instead of storing an
// alias of another frame or permission set. The highest PA that fits
// still round-trips at every page size.
func TestMapRefusesUnencodable(t *testing.T) {
	pt := newPT(t)
	const limit = addr.P(1) << 52
	for k, s := range addr.Sizes() {
		va := addr.V(uint64(k+1) << 32)
		top := limit - addr.P(s.Bytes())
		if err := pt.Map(va, top, s, addr.PermRW); err != nil {
			t.Fatalf("%v: Map at PA %v: %v", s, top, err)
		}
		if tr, ok := pt.Lookup(va); !ok || tr.PA != top {
			t.Errorf("%v: Lookup = %v %v, want PA %v", s, tr, ok, top)
		}
		for _, pa := range []addr.P{limit, limit + top, 1 << 63} {
			if err := pt.Map(va+addr.V(s.Bytes()), pa, s, addr.PermRW); err != ErrUnencodable {
				t.Errorf("%v: Map at PA %v: %v, want ErrUnencodable", s, pa, err)
			}
		}
		if err := pt.Map(va+addr.V(s.Bytes()), 0, s, addr.PermUser<<1); err != ErrUnencodable {
			t.Errorf("%v: Map with perm %#x: %v, want ErrUnencodable", s, uint8(addr.PermUser<<1), err)
		}
		if _, ok := pt.Lookup(va + addr.V(s.Bytes())); ok {
			t.Errorf("%v: a refused Map left a translation", s)
		}
	}
}

// TestTableSize pins the packed layout: a level-1 table page, the bulk of
// any large table, is its 512 8-byte PTEs and at most a small header,
// with no child-pointer array (no pointer at all), so it takes about one
// 4KB host page.
func TestTableSize(t *testing.T) {
	if n := unsafe.Sizeof(table{}); n > 4096+16 {
		t.Errorf("a level-1 table is %d bytes, want at most 4096+16", n)
	}
	if typ := reflect.TypeOf(table{}); holdsPointer(typ) {
		t.Errorf("a level-1 table (%v) holds pointers", typ)
	}
}

// holdsPointer reports whether a value of typ contains any pointer,
// slice, map, channel, function, interface or string.
func holdsPointer(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return holdsPointer(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if holdsPointer(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}
