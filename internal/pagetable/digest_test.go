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
