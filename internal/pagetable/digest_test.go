package pagetable

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/simrand"
)

// TestWalkDigest pins every value WalkInto returns, per ISA descriptor,
// bit for bit: Found, the translation, the PTE accesses, the decoded line
// and ContigPages, plus the accessed bits of the walked VA's 16-page block
// afterwards (a contiguity block's walk sets every member's A bit, and the
// decoded line must see the bits as they were before that). The table
// mixes qualifying contiguity blocks with holed, scattered, misaligned,
// mixed-permission and sparse ones, 2MB and 1GB pages, and unmapped VAs;
// a seeded stream of walks interleaves with A/D clears and dirty stores.
// A walker performance change must leave every digest unchanged.
func TestWalkDigest(t *testing.T) {
	want := map[string]string{
		"arm64-contig": "c08fdc4bff313000f8f564ae17b6d1ce84d64d7190007e396461d0ddbf6fafbd",
		"sv39":         "8b4521bcd164918ce8aaa86279f08b3aec5d1b8e9737425305791a4e7051effd",
		"sv48":         "4ea52d878cd5613cd5a151bc996f68bf9cf3875666b6c64ce9a0ac4a83f751fa",
		"sv48-napot":   "c08fdc4bff313000f8f564ae17b6d1ce84d64d7190007e396461d0ddbf6fafbd",
		"x86-64":       "4ea52d878cd5613cd5a151bc996f68bf9cf3875666b6c64ce9a0ac4a83f751fa",
		"x86-64-la57":  "f4cc6094a12f6ff97b9882eca687f956e5838f65f1e1e65a899103feee4cd993",
	}
	for _, name := range isa.Names() {
		got := walkDigest(t, mustISA(t, name), 0x3a1c, 6000)
		if got != want[name] {
			t.Errorf("%s: walk digest %s, want %s", name, got, want[name])
		}
	}
}

// The digest's universe: 64 blocks of 16 4KB pages, 16 2MB pages and one
// 1GB page, in disjoint VA regions below every descriptor's VA width.
const (
	digestBlocks   = 64
	digestBlock    = 16 * addr.Size4K
	digestBase4K   = addr.V(0x40000000)
	digestBase2M   = addr.V(0x80000000)
	digestN2M      = 16
	digestBase1G   = addr.V(0x100000000)
	digestPABase   = addr.P(0x200000000)
	digestPABase2M = addr.P(0x400000000)
	digestPA1G     = addr.P(0x800000000)
)

// walkDigest maps the universe into a fresh table for d, runs n seeded
// operations and returns the hex SHA-256 of everything the walks observed.
func walkDigest(t *testing.T, d *isa.Descriptor, seed uint64, n int) string {
	t.Helper()
	pt, err := NewISA(&stubAlloc{}, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(seed)
	mapPage := func(va addr.V, pa addr.P, s addr.PageSize, perm addr.Perm) {
		if err := pt.Map(va, pa, s, perm); err != nil {
			t.Fatalf("%s: Map %v: %v", d.Name, va, err)
		}
	}
	for b := 0; b < digestBlocks; b++ {
		va := digestBase4K + addr.V(b*digestBlock)
		pa := digestPABase + addr.P(b*digestBlock)
		kind := rng.Uint64n(6) // 0-1 qualifying, then hole, scatter, misaligned, perm
		odd := int(rng.Uint64n(16))
		for i := 0; i < 16; i++ {
			mpa, perm := pa+addr.P(i*addr.Size4K), addr.PermRW
			switch {
			case kind == 2 && i == odd:
				continue
			case kind == 3 && i == odd:
				mpa += addr.Size2M
			case kind == 4:
				mpa += addr.Size4K
			case kind == 5 && i == odd:
				perm = addr.PermRead
			}
			mapPage(va+addr.V(i*addr.Size4K), mpa, addr.Page4K, perm)
		}
	}
	for i := 0; i < digestN2M; i++ {
		mapPage(digestBase2M+addr.V(i*addr.Size2M), digestPABase2M+addr.P(i*addr.Size2M), addr.Page2M, addr.PermRW)
	}
	mapPage(digestBase1G, digestPA1G, addr.Page1G, addr.PermRW)

	dg := &walkDigester{h: sha256.New()}
	var res WalkResult
	for i := 0; i < n; i++ {
		var va addr.V
		switch u := rng.Float64(); {
		case u < 0.75:
			va = digestBase4K + addr.V(rng.Uint64n(digestBlocks*digestBlock))
		case u < 0.88:
			va = digestBase2M + addr.V(rng.Uint64n(digestN2M*addr.Size2M))
		case u < 0.95:
			va = digestBase1G + addr.V(rng.Uint64n(addr.Size1G))
		default:
			va = digestBase4K - addr.V(1+rng.Uint64n(addr.Size2M)) // unmapped
		}
		dg.u64(uint64(i))
		switch u := rng.Float64(); {
		case u < 0.8:
			pt.WalkInto(va, &res)
			dg.flag(res.Found)
			dg.tr(res.Translation)
			dg.u64(uint64(len(res.Accesses)))
			for _, a := range res.Accesses {
				dg.u64(uint64(a))
			}
			dg.u64(uint64(len(res.Line)))
			for _, tr := range res.Line {
				dg.tr(tr)
			}
			dg.u64(uint64(res.ContigPages))
			block := va &^ addr.V(digestBlock-1)
			for j := 0; j < 16; j++ {
				tr, ok := pt.Lookup(block + addr.V(j*addr.Size4K))
				dg.flag(ok)
				dg.flag(tr.Accessed)
			}
		case u < 0.95:
			dg.flag(pt.ClearAccessedDirty(va))
		default:
			dg.flag(pt.SetDirty(va))
		}
	}
	return hex.EncodeToString(dg.h.Sum(nil))
}

// walkDigester feeds fixed-width encodings of walk values to a hash.
type walkDigester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *walkDigester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *walkDigester) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *walkDigester) tr(t Translation) {
	d.u64(uint64(t.VA))
	d.u64(uint64(t.PA))
	d.u64(uint64(t.Size))
	d.u64(uint64(t.Perm))
	d.flag(t.Accessed)
	d.flag(t.Dirty)
}

// TestMutationDigest pins, per ISA descriptor, what the table's mutating
// operations return and leave behind beyond what TestWalkDigest covers:
// Map at every page size with all 16 permission sets and physical
// addresses up to just below 2^52, its ErrMisaligned and ErrOverlap
// refusals, Unmap and the reclaim of an emptied child table under a
// superpage (with the frame it frees), SetDirtyLine's line,
// LeafRef.SetDirty after a walk, the A/D setters, and Lookup, Count and
// the ForEach order. A change to the table's storage must leave every
// digest unchanged.
func TestMutationDigest(t *testing.T) {
	want := map[string]string{
		"arm64-contig": "624f2d5219f57c665eb259f075e8fe227db0763d280c48b68972c64cb11b5de4",
		"sv39":         "f7b5c86d08400264819bb80f9d311b768c1bc558f046a909f00f99d74f3550fc",
		"sv48":         "624f2d5219f57c665eb259f075e8fe227db0763d280c48b68972c64cb11b5de4",
		"sv48-napot":   "624f2d5219f57c665eb259f075e8fe227db0763d280c48b68972c64cb11b5de4",
		"x86-64":       "624f2d5219f57c665eb259f075e8fe227db0763d280c48b68972c64cb11b5de4",
		"x86-64-la57":  "213ca262dd63c48b0c1398e45cb80b601e65c171d6c2f72288346e024fc44cae",
	}
	for _, name := range isa.Names() {
		got := mutationDigest(t, mustISA(t, name), 0x5eed, 6000)
		if got != want[name] {
			t.Errorf("%s: mutation digest %s, want %s", name, got, want[name])
		}
	}
}

// freeLog is a stubAlloc that feeds every freed table frame to a digest.
type freeLog struct {
	stubAlloc
	dg *walkDigester
}

func (a *freeLog) FreePage(pa addr.P, s addr.PageSize) {
	a.dg.u64(uint64(pa))
	a.dg.u64(uint64(s))
}

// errCode numbers the package's sentinel errors for a digest.
func errCode(err error) uint64 {
	for i, e := range []error{nil, ErrMisaligned, ErrOverlap, ErrNoMemory, ErrNotMapped} {
		if err == e {
			return uint64(i)
		}
	}
	return 99
}

// The mutation digest's VA universe: two 1GB slots, each cut into eight
// 2MB windows of which the first four 4KB pages are used, so random maps
// and unmaps keep filling and emptying whole child tables.
const (
	mutBase  = addr.V(0x40000000)
	mutPATop = addr.P(1) << 52
)

func mutationDigest(t *testing.T, d *isa.Descriptor, seed uint64, n int) string {
	t.Helper()
	dg := &walkDigester{h: sha256.New()}
	pt, err := NewISA(&freeLog{dg: dg}, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(seed)
	mapOp := func(va addr.V, pa addr.P, s addr.PageSize, perm addr.Perm) {
		dg.u64(uint64(va))
		dg.u64(uint64(pa))
		dg.u64(uint64(s))
		dg.u64(uint64(perm))
		dg.u64(errCode(pt.Map(va, pa, s, perm)))
	}
	unmapOp := func(va addr.V) {
		tr, err := pt.Unmap(va)
		dg.tr(tr)
		dg.u64(errCode(err))
	}
	lookup := func(va addr.V) {
		tr, ok := pt.Lookup(va)
		dg.flag(ok)
		dg.tr(tr)
	}
	counts := func() {
		for _, s := range addr.Sizes() {
			dg.u64(pt.Count(s))
		}
	}

	// Every size with every permission set: one page just below 2^52 and
	// one at a seeded frame, each in its own size's VA region (4KB from
	// 4 GiB, 2MB from 8 GiB, 1GB from 64 GiB).
	regions := [addr.NumPageSizes]addr.V{0x100000000, 0x200000000, 0x1000000000}
	for _, s := range addr.Sizes() {
		sz := s.Bytes()
		for p := 0; p < 16; p++ {
			va := regions[s] + addr.V(uint64(p)*sz)
			mapOp(va, mutPATop-addr.P(uint64(p+1)*sz), s, addr.Perm(p))
			mapOp(va+addr.V(16*sz), addr.P(rng.Uint64n(uint64(mutPATop))).PageBase(s), s, addr.Perm(p))
		}
		for p := 0; p < 32; p++ {
			lookup(regions[s] + addr.V(uint64(p)*sz+sz/2))
		}
	}
	counts()

	// Refusals: misaligned VA or PA at each size, then overlaps of a
	// smaller page under a larger one, a larger over live smaller ones and
	// an exact duplicate.
	for _, s := range addr.Sizes() {
		mapOp(regions[s]+addr.V(64*s.Bytes())+0x1000, 0, s, addr.PermRW)
		mapOp(regions[s]+addr.V(64*s.Bytes()), 0x1000, s, addr.PermRW)
	}
	mapOp(regions[addr.Page2M]+0x1000, 0x1000, addr.Page4K, addr.PermRW)
	mapOp(regions[addr.Page1G]+addr.Size2M, 0, addr.Page2M, addr.PermRW)
	mapOp(regions[addr.Page4K], 0, addr.Page2M, addr.PermRW)
	mapOp(regions[addr.Page2M], 0, addr.Page1G, addr.PermRW)
	mapOp(regions[addr.Page4K], 0x5000, addr.Page4K, addr.PermRW)

	// Reclaim: a full 2MB window of 4KB pages refuses a 2MB map until its
	// last page goes, then the emptied leaf table is freed under it.
	win := regions[addr.Page4K] + addr.Size2M
	for i := 0; i < 512; i++ {
		mapOp(win+addr.V(i*addr.Size4K), addr.P(rng.Uint64n(uint64(mutPATop))).PageBase(addr.Page4K), addr.Page4K, addr.Perm(rng.Uint64n(16)))
	}
	for i := 0; i < 511; i++ {
		unmapOp(win + addr.V(i*addr.Size4K))
	}
	mapOp(win, 0x40000000, addr.Page2M, addr.PermRW)
	unmapOp(win + 511*addr.Size4K)
	unmapOp(win + 511*addr.Size4K)
	mapOp(win, 0x40000000, addr.Page2M, addr.PermRW)
	lookup(win + 0x1234)
	// A directory of 2MB leaves empties and is freed under a 1GB map; one
	// that still points at a (now empty) leaf table refuses.
	for p := 0; p < 32; p++ {
		unmapOp(regions[addr.Page2M] + addr.V(p*addr.Size2M))
	}
	mapOp(regions[addr.Page2M], 0x40000000, addr.Page1G, addr.Perm(5))
	unmapOp(win)
	for p := 0; p < 32; p++ {
		unmapOp(regions[addr.Page4K] + addr.V(p*addr.Size4K))
	}
	mapOp(regions[addr.Page4K], 0x80000000, addr.Page1G, addr.PermRW)
	counts()

	// A seeded stream of maps, unmaps, dirty-line stores, walk-handle
	// stores, A/D updates and lookups over the small universe.
	var res WalkResult
	var buf []Translation
	for i := 0; i < n; i++ {
		dg.u64(uint64(i))
		s := addr.Page4K
		switch u := rng.Float64(); {
		case u < 0.15:
			s = addr.Page2M
		case u < 0.2:
			s = addr.Page1G
		}
		va := mutBase + addr.V(rng.Uint64n(2)*addr.Size1G)
		if s != addr.Page1G {
			va += addr.V(rng.Uint64n(8) * addr.Size2M)
		}
		if s == addr.Page4K {
			va += addr.V(rng.Uint64n(4) * addr.Size4K)
		}
		switch op := rng.Uint64n(10); {
		case op < 3:
			pa := addr.P(rng.Uint64n(uint64(mutPATop))).PageBase(s)
			if rng.Uint64n(20) == 0 {
				pa += addr.Size4K // misaligned for superpages
			}
			mapOp(va, pa, s, addr.Perm(rng.Uint64n(16)))
		case op < 7:
			unmapOp(va)
		case op == 7:
			buf = pt.SetDirtyLine(va, buf)
			dg.flag(buf == nil)
			dg.u64(uint64(len(buf)))
			for _, tr := range buf {
				dg.tr(tr)
			}
		case op == 8:
			pt.WalkInto(va, &res)
			dg.flag(res.Found)
			dg.flag(res.Leaf.Valid())
			if res.Found && rng.Uint64n(2) == 0 {
				res.Leaf.SetDirty()
			}
			lookup(va)
		default:
			switch rng.Uint64n(3) {
			case 0:
				dg.flag(pt.SetAccessed(va))
			case 1:
				dg.flag(pt.SetDirty(va))
			default:
				dg.flag(pt.ClearAccessedDirty(va))
			}
			lookup(va)
		}
		counts()
	}

	pt.ForEach(func(tr Translation) bool {
		dg.tr(tr)
		return true
	})
	stop := 0
	pt.ForEach(func(tr Translation) bool {
		dg.tr(tr)
		stop++
		return stop < 7
	})
	counts()
	return hex.EncodeToString(dg.h.Sum(nil))
}
