package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// TestMixOpStreamDigest pins the MIX TLB's observable behaviour bit for
// bit. Each config runs one seeded stream of every operation the TLB
// exposes, with an eviction sink attached, and SHA-256s every returned
// value plus the final counters, occupancy and reach. A storage-layout or
// performance change must leave every digest unchanged; a deliberate
// behaviour change must explain in words why a digest moved.
func TestMixOpStreamDigest(t *testing.T) {
	with := func(cfg Config, name string, f func(*Config)) Config {
		cfg.Name = name
		f(&cfg)
		return cfg
	}
	cases := []struct {
		cfg  Config
		want string
	}{
		{L1Config(), "4ca26f5679cf8ecb120d904a335d805f70f0592697caaad1f81db04b5d5ffc79"},
		{L2Config(), "53aadbea2cf3351eade6625ca50cdc0e49028fc77ff6938437a535d2708daa19"},
		{L2RangeConfig(), "980b7d668ae7756a931d31b4c8f931c77551970d072571f74d93a16593ce0ca3"},
		{with(L1Config(), "blind", func(c *Config) { c.BlindMirrors = true }), "95993fe03e773a58a024e87cfa6a7b2626fd282bd47679fdd944959576c1dd83"},
		{with(L1Config(), "probed-only", func(c *Config) { c.MirrorProbedSetOnly = true }), "2926c64375e82959ec9a1c7b6b42dd8aba561a805d5aa9504e64fab4ea053e6e"},
		{with(L1Config(), "index21", func(c *Config) { c.IndexShift = 21 }), "37b6fc390584c22aff8a2b8c45dc334587ca606d97d9c848fe32d5a457437170"},
		{with(L1Config(), "no-dirty-groups", func(c *Config) { c.NoDirtyGroups = true }), "7cc71abfaf9921950f6623bd0480c6293e4322387bc881cffd15fbe0e6044b05"},
		{with(L1Config(), "small-coalesce", func(c *Config) { c.SmallCoalesce = 4 }), "971847a5b9bba632666db78f95548ebbfc30a06ea82c99f4c0c4454914967a02"},
		{with(L1Config(), "unaligned", func(c *Config) { c.NoAlignmentRestriction = true }), "049f6b6b4a7e4ca43e25f0cdd152c56fb10b74e5e80d51cff4c029eb832be22a"},
		{with(L2RangeConfig(), "range-unaligned", func(c *Config) { c.NoAlignmentRestriction = true }), "45bf2e1c1e089b269c18041f6735c649320e302c53fbf62187c1ddec0b0a237a"},
		{with(L2RangeConfig(), "range-small-coalesce", func(c *Config) { c.SmallCoalesce = 4 }), "a38e2681bf7347133bd365f90ce72ecbec08046b10448b2452e7b4c4d3592ad5"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.cfg.Name, func(t *testing.T) {
			t.Parallel()
			if got := opStreamDigest(mustNew(c.cfg), 0x5eed^uint64(c.cfg.Sets), 20000); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// digester feeds fixed-width encodings of simulator values to a hash, so
// the digest does not depend on any String method.
type digester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *digester) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *digester) tr(t pagetable.Translation) {
	d.u64(uint64(t.VA))
	d.u64(uint64(t.PA))
	d.u64(uint64(t.Size))
	d.u64(uint64(t.Perm))
	d.flag(t.Accessed)
	d.flag(t.Dirty)
}

func (d *digester) cost(c tlb.Cost) {
	for _, v := range []int{c.Probes, c.WaysRead, c.SetsFilled, c.EntriesWritten, c.PredictorReads, c.PredictorWrites} {
		d.u64(uint64(v))
	}
}

// lookupCost hashes a lookup's cost as the tlb.Cost it adds to, the
// encoding the digests were recorded with.
func (d *digester) lookupCost(l tlb.LookupCost) {
	var c tlb.Cost
	c.AddLookup(l)
	d.cost(c)
}

func (d *digester) result(r tlb.Result) {
	d.flag(r.Hit)
	d.tr(r.T)
	d.flag(r.T.Dirty)
	d.lookupCost(r.Cost)
}

// opStreamUniverse is the page population the stream draws from: page
// number ranges per size, in disjoint VA regions, small enough that the
// TLB sees hits, merges, duplicates and evictions.
var opStreamUniverse = [addr.NumPageSizes]struct{ base, n uint64 }{
	addr.Page4K: {1 << 28, 1024},
	addr.Page2M: {0x100, 512},
	addr.Page1G: {0x40, 64},
}

// opStreamPTE is the stream's page table: mostly VA- and PA-contiguous
// runs, broken every few pages by a physical jump or a read-only page so
// windows also hold incompatible neighbours. gen remaps a page (stale
// copies then disagree with fresh fills).
func opStreamPTE(size addr.PageSize, svn, gen uint64, rng *simrand.Source) pagetable.Translation {
	h := svn * 0x9e3779b97f4a7c15
	ppn := svn + 1<<20 + gen<<16
	if h>>59 == 0 {
		ppn += 3
	}
	perm := addr.PermRW
	if (h>>40)%11 == 0 {
		perm = addr.PermRead
	}
	return pagetable.Translation{
		VA: addr.V(svn << size.Shift()), PA: addr.P(ppn << size.Shift()),
		Size: size, Perm: perm, Accessed: rng.Bool(0.85), Dirty: rng.Bool(0.5),
	}
}

// opStreamDigest runs n seeded operations against m and returns the hex
// SHA-256 of everything the TLB returned or evicted.
func opStreamDigest(m *MixTLB, seed uint64, n int) string {
	rng := simrand.New(seed)
	d := &digester{h: sha256.New()}
	m.SetEvictionSink(func(t pagetable.Translation) {
		d.u64(0xe1)
		d.tr(t)
		d.flag(t.Dirty)
	})
	gen := map[uint64]uint64{}
	pick := func() (addr.PageSize, uint64, addr.V) {
		size := addr.Page2M
		switch u := rng.Float64(); {
		case u < 0.35:
			size = addr.Page4K
		case u > 0.85:
			size = addr.Page1G
		}
		u := opStreamUniverse[size]
		svn := u.base + rng.Uint64n(u.n)
		return size, svn, addr.V(svn<<size.Shift() + rng.Uint64n(size.Bytes()))
	}
	pte := func(size addr.PageSize, svn uint64) pagetable.Translation {
		return opStreamPTE(size, svn, gen[svn<<2|uint64(size)], rng)
	}
	// line is the demanded PTE followed by its 64-byte cache line.
	line := func(size addr.PageSize, svn uint64) []pagetable.Translation {
		t := pte(size, svn)
		t.Accessed = true
		out := []pagetable.Translation{t}
		u := opStreamUniverse[size]
		for s := svn &^ 7; s < svn&^7+8; s++ {
			if s != svn && s >= u.base && s < u.base+u.n {
				out = append(out, pte(size, s))
			}
		}
		return out
	}
	for op := 0; op < n; op++ {
		size, svn, va := pick()
		d.u64(uint64(op))
		switch u := rng.Float64(); {
		case u < 0.30:
			l := line(size, svn)
			walk := pagetable.WalkResult{Found: rng.Bool(0.97), Translation: l[0], Line: l}
			d.cost(m.Fill(tlb.Request{VA: va}, walk))
		case u < 0.38:
			l := line(size, svn)
			keep := l[:rng.Intn(len(l)+1)]
			d.cost(m.Promote(tlb.Request{VA: va}, l[0], keep))
		case u < 0.72:
			d.result(m.Lookup(tlb.Request{VA: va}))
		case u < 0.78:
			ms := m.Members(va)
			d.u64(uint64(len(ms)))
			for _, t := range ms {
				d.tr(t)
			}
		case u < 0.84:
			d.flag(m.MarkDirty(va))
		case u < 0.90:
			d.flag(m.RefreshDirty(va, line(size, svn)))
		case u < 0.95:
			d.u64(uint64(m.Invalidate(va, size)))
			if rng.Bool(0.3) {
				gen[svn<<2|uint64(size)]++
			}
		case u < 0.998:
			d.u64(uint64(m.ScrubCorrupt(va, size)))
		default:
			m.Flush()
		}
	}
	s := m.Stats()
	for _, v := range []uint64{s.MirrorWrites, s.CoalesceMerges, s.DupsEliminated, s.BundlesFilled,
		s.SmallFills, s.MembersPerFill, s.HolesRepresent, s.RangeTruncation, s.CorruptionScrubs} {
		d.u64(v)
	}
	for _, o := range m.OccupancyBySet() {
		d.u64(uint64(o))
	}
	d.u64(m.ReachBytes())
	return hex.EncodeToString(d.h.Sum(nil))
}
