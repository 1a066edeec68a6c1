package core

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// dtr builds a 2MB translation with a chosen dirty bit.
func dtr(vpn, ppn uint64, dirty bool) pagetable.Translation {
	t := tr(vpn, ppn, addr.Page2M)
	t.Dirty = dirty
	return t
}

func TestDirtyGroupsSeededAtFill(t *testing.T) {
	m := mustNew(L1Config()) // K=16: two groups of 8
	// Group 0 (slots 0-7) all dirty; group 1 (slots 8-15) has one clean.
	line := []pagetable.Translation{
		dtr(32, 100, true), dtr(33, 101, true), dtr(34, 102, true), dtr(35, 103, true),
		dtr(36, 104, true), dtr(37, 105, true), dtr(38, 106, true), dtr(39, 107, true),
	}
	m.Fill(tlb.Request{VA: line[0].VA}, walkOf(line...))
	line2 := []pagetable.Translation{
		dtr(40, 108, true), dtr(41, 109, false),
	}
	m.Fill(tlb.Request{VA: line2[0].VA}, walkOf(line2...))
	// Stores to group 0 members see dirty (no micro-op needed).
	if r := look(m, addr.V(35)<<21); !r.T.Dirty {
		t.Error("all-dirty group not exempt")
	}
	// Group 1 members see clean.
	if r := look(m, addr.V(40)<<21); r.T.Dirty {
		t.Error("mixed group reported dirty")
	}
}

func TestRefreshDirtySetsGroup(t *testing.T) {
	m := mustNew(L1Config())
	a, b := dtr(32, 100, false), dtr(33, 101, false)
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a, b))
	if r := look(m, a.VA); r.T.Dirty {
		t.Fatal("clean bundle dirty")
	}
	// A store dirties a's PTE; the assist reads the line where b is still
	// clean: group must stay unexempt.
	a.Dirty = true
	if m.RefreshDirty(a.VA, []pagetable.Translation{a, b}) {
		t.Error("group refreshed with a clean member")
	}
	// After b's PTE is dirty too, the next assist flips the group.
	b.Dirty = true
	if !m.RefreshDirty(a.VA, []pagetable.Translation{a, b}) {
		t.Error("group not refreshed with all members dirty")
	}
	if r := look(m, a.VA); !r.T.Dirty {
		t.Error("member not dirty after group refresh")
	}
	if r := look(m, b.VA); !r.T.Dirty {
		t.Error("sibling not dirty after group refresh")
	}
}

func TestRefreshDirtyPlain4K(t *testing.T) {
	m := mustNew(L1Config())
	p := tr(0x77, 0x88, addr.Page4K)
	m.Fill(tlb.Request{VA: p.VA}, walkOf(p))
	if !m.RefreshDirty(p.VA, []pagetable.Translation{p}) {
		t.Error("4KB refresh failed")
	}
	if !look(m, p.VA).T.Dirty {
		t.Error("4KB entry not dirty")
	}
	// Absent VA: no refresh.
	if m.RefreshDirty(0xdead<<21, nil) {
		t.Error("refresh succeeded on absent entry")
	}
}

func TestNoDirtyGroupsAblation(t *testing.T) {
	cfg := L1Config()
	cfg.NoDirtyGroups = true
	m := mustNew(cfg)
	a, b := dtr(32, 100, true), dtr(33, 101, true)
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a, b))
	// All-dirty fill still sets the whole-bundle bit (AND semantics).
	if r := look(m, a.VA); !r.T.Dirty {
		t.Error("all-dirty bundle not dirty under ablation")
	}
	// But a clean member forces the paper's forever-micro-op behaviour:
	// refresh can never exempt a multi-member bundle.
	c, d := dtr(40, 108, false), dtr(41, 109, false)
	m.Fill(tlb.Request{VA: c.VA}, walkOf(c, d))
	c.Dirty, d.Dirty = true, true
	if m.RefreshDirty(c.VA, []pagetable.Translation{c, d}) {
		t.Error("multi-member bundle exempted under NoDirtyGroups")
	}
}

func TestDirtyGroupsSurviveMergeConservatively(t *testing.T) {
	m := mustNew(L1Config())
	// Bundle with group 0 all-dirty.
	a, b := dtr(32, 100, true), dtr(33, 101, true)
	m.Fill(tlb.Request{VA: a.VA}, walkOf(a, b))
	if r := look(m, a.VA); !r.T.Dirty {
		t.Fatal("setup: group not dirty")
	}
	// A clean member in the same group merges in: the group's exemption
	// must be revoked (it is no longer all-dirty).
	c := dtr(34, 102, false)
	m.Fill(tlb.Request{VA: c.VA}, walkOf(c))
	if r := look(m, a.VA); r.T.Dirty {
		t.Error("group exemption survived merging a clean member")
	}
	// A clean member in the *other* group leaves group 0 exempt.
	m2 := mustNew(L1Config())
	m2.Fill(tlb.Request{VA: a.VA}, walkOf(a, b))
	e := dtr(41, 109, false) // slot 9: group 1
	m2.Fill(tlb.Request{VA: e.VA}, walkOf(e))
	if r := look(m2, a.VA); !r.T.Dirty {
		t.Error("unrelated group's clean member revoked group 0")
	}
}

func TestMembersExpansion(t *testing.T) {
	m := mustNew(L1Config())
	line := []pagetable.Translation{
		tr(32, 100, addr.Page2M), tr(33, 101, addr.Page2M), tr(34, 102, addr.Page2M),
	}
	m.Fill(tlb.Request{VA: line[0].VA}, walkOf(line...))
	got := m.Members(line[1].VA + 0x1234)
	if len(got) != 3 {
		t.Fatalf("Members returned %d translations", len(got))
	}
	for i, tr := range got {
		if tr.VA != line[i].VA || tr.PA != line[i].PA {
			t.Errorf("member %d = %v", i, tr)
		}
	}
	if m.Members(0xdead0000000) != nil {
		t.Error("Members on a miss returned data")
	}
	// 4KB plain entry: singleton.
	p := tr(0x99, 0x11, addr.Page4K)
	m.Fill(tlb.Request{VA: p.VA}, walkOf(p))
	if got := m.Members(p.VA); len(got) != 1 || got[0].PA != p.PA {
		t.Errorf("4KB Members = %v", got)
	}
}

func TestPromoteCoalescesBundle(t *testing.T) {
	m := mustNew(L1Config())
	line := []pagetable.Translation{
		tr(32, 100, addr.Page2M), tr(33, 101, addr.Page2M),
		tr(34, 102, addr.Page2M), tr(35, 103, addr.Page2M),
	}
	// Promote fills only the probed set, with the whole bundle.
	cost := m.Promote(tlb.Request{VA: line[0].VA}, line[0], line)
	if cost.SetsFilled != 1 {
		t.Errorf("promotion filled %d sets", cost.SetsFilled)
	}
	// All members hit in the probed set's index positions...
	probedSet := int(uint64(line[0].VA)>>12) & 15
	for _, tr := range line {
		// ...i.e. a lookup whose index maps to the probed set.
		va := tr.VA + addr.V(probedSet<<12)
		if !look(m, va).Hit {
			t.Errorf("member %v missing from promoted bundle", tr.VA)
		}
	}
	// A region mapping to a different set misses (no mirroring on promote).
	other := line[0].VA + addr.V(((probedSet+1)&15)<<12)
	if look(m, other).Hit {
		t.Error("promotion mirrored beyond the probed set")
	}
	// Promote with empty line falls back to a singleton.
	m2 := mustNew(L1Config())
	if c := m2.Promote(tlb.Request{VA: line[0].VA}, line[0], nil); c.SetsFilled != 1 {
		t.Errorf("singleton promote cost: %+v", c)
	}
	// Invalid translation: no-op.
	if c := m2.Promote(tlb.Request{}, pagetable.Translation{}, nil); c != (tlb.Cost{}) {
		t.Errorf("invalid promote cost: %+v", c)
	}
	// 4KB promote fills one plain entry.
	p := tr(0x123, 0x456, addr.Page4K)
	if c := m2.Promote(tlb.Request{VA: p.VA}, p, nil); c.EntriesWritten != 1 {
		t.Errorf("4KB promote cost: %+v", c)
	}
	if !look(m2, p.VA).Hit {
		t.Error("4KB promote missed")
	}
}

// refGroupHasMembers and refMergedDirtyGroups are the per-group loop form
// of the dirty-group merge, kept as the reference the word-mask form in
// mergeMembers must match bit for bit.
func refGroupHasMembers(enc Encoding, w *payload, g int) bool {
	if enc == Bitmap {
		return w.bitmap&(uint64(0xff)<<(8*g)) != 0
	}
	lo, hi := int(w.start), int(w.start)+int(w.length)
	return w.length > 0 && lo < 8*g+8 && hi > 8*g
}

func refMergedDirtyGroups(enc Encoding, k int, a, b, merged *payload) uint32 {
	var out uint32
	for g := 0; g < (k+7)/8; g++ {
		okA := a.dgroups&(1<<g) != 0 || !refGroupHasMembers(enc, a, g) || a.dirty
		okB := b.dgroups&(1<<g) != 0 || !refGroupHasMembers(enc, b, g) || b.dirty
		if okA && okB && refGroupHasMembers(enc, merged, g) {
			out |= 1 << g
		}
	}
	return out
}

// TestDirtyGroupMaskMatchesLoop checks the O(1) word-mask dirty-group
// merge against the per-group loop over randomized bitmap and range
// operands, for every bundle capacity the encodings allow and every
// combination of whole-entry dirty bits.
func TestDirtyGroupMaskMatchesLoop(t *testing.T) {
	rng := simrand.New(0xd17)
	for _, k := range []int{16, 64, 128, 256} {
		for _, enc := range []Encoding{Bitmap, Range} {
			if enc == Bitmap && k > 64 {
				continue // bitmap entries carry at most 64 presence bits
			}
			m := mustNew(Config{Name: "eq", Sets: 1, Ways: 1, Coalesce: k, Encoding: enc})
			groups := uint32(1)<<((k+7)/8) - 1
			operand := func(dirty bool) payload {
				w := payload{dirty: dirty, dgroups: uint32(rng.Uint64()) & groups}
				if enc == Bitmap {
					w.bitmap = rng.Uint64() & rng.Uint64() // sparse, with holes
					if k < 64 {
						w.bitmap &= 1<<k - 1
					}
					if w.bitmap == 0 {
						w.bitmap = 1 << rng.Uint64n(uint64(k))
					}
				} else {
					start := int(rng.Uint64n(uint64(k)))
					w.start = uint16(start)
					w.length = uint16(1 + rng.Uint64n(uint64(k-start)))
				}
				return w
			}
			for trial := 0; trial < 2000; trial++ {
				for flags := 0; flags < 4; flags++ {
					a, b := operand(flags&1 != 0), operand(flags&2 != 0)
					got := a
					ok := m.mergeMembers(&got, &b, m.exemptGroups(&b))
					aEnd, bEnd := int(a.start)+int(a.length), int(b.start)+int(b.length)
					if enc == Range && ok != (int(b.start) <= aEnd && int(a.start) <= bEnd) {
						t.Fatalf("K=%d %v: merge of %+v and %+v reported %v", k, enc, a, b, ok)
					}
					if !ok {
						if got != a {
							t.Fatalf("K=%d %v: failed merge modified %+v to %+v", k, enc, a, got)
						}
						continue
					}
					union := a.bitmap | b.bitmap
					start, end := min(int(a.start), int(b.start)), max(aEnd, bEnd)
					if got.bitmap != union || got.start != uint16(start) || got.length != uint16(end-start) {
						t.Fatalf("K=%d %v: merge of %+v and %+v gave members %+v", k, enc, a, b, got)
					}
					if want := refMergedDirtyGroups(enc, k, &a, &b, &got); got.dgroups != want {
						t.Fatalf("K=%d %v: merge of %+v and %+v gave dgroups %#x, loop gives %#x",
							k, enc, a, b, got.dgroups, want)
					}
				}
			}
		}
	}
}

// TestByteGroupsMatchesLoop checks the byte-fold-and-gather against a
// per-byte loop on every pattern of nonzero bytes, with random bits set
// inside each nonzero byte.
func TestByteGroupsMatchesLoop(t *testing.T) {
	rng := simrand.New(0xb17e)
	for pattern := 0; pattern < 256; pattern++ {
		for trial := 0; trial < 64; trial++ {
			var x uint64
			for g := 0; g < 8; g++ {
				if pattern&(1<<g) != 0 {
					x |= (1 + rng.Uint64n(255)) << (8 * g)
				}
			}
			if got := byteGroups(x); got != uint32(pattern) {
				t.Fatalf("byteGroups(%#x) = %#x, want %#x", x, got, pattern)
			}
		}
	}
}
