package tlb

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
)

// streamKinds builds one TLB per non-MIX level kind of the design
// registry, at the registry's geometries.
var streamKinds = []struct {
	name  string
	build func(pt *pagetable.PageTable) (TLB, error)
}{
	{"haswell-l1", func(*pagetable.PageTable) (TLB, error) { return NewHaswellL1() }},
	{"haswell-l2", func(*pagetable.PageTable) (TLB, error) { return NewHaswellL2() }},
	{"colt-split-l1", func(*pagetable.PageTable) (TLB, error) { return NewColtSplitL1() }},
	{"colt++-split-l1", func(*pagetable.PageTable) (TLB, error) { return NewColtPlusPlusL1() }},
	{"rehash+pred", func(*pagetable.PageTable) (TLB, error) {
		inner, err := NewHashRehash("rehash", 16, 6, addr.Page4K, addr.Page2M, addr.Page1G)
		if err != nil {
			return nil, err
		}
		pred, err := NewSizePredictor(512)
		return NewPredicted(inner, pred), err
	}},
	{"skew+pred", func(*pagetable.PageTable) (TLB, error) {
		inner, err := NewSkewAllSizes("skew", 16, 2)
		if err != nil {
			return nil, err
		}
		pred, err := NewSizePredictor(512)
		return NewPredicted(inner, pred), err
	}},
	{"ideal", func(pt *pagetable.PageTable) (TLB, error) { return NewIdeal(pt), nil }},
	{"victim", func(*pagetable.PageTable) (TLB, error) { return NewVictim("victim", 16, 4) }},
}

// TestOpStreamDigest pins every non-MIX TLB's observable behaviour bit
// for bit. Each kind runs one seeded stream of every operation it
// exposes, with an eviction sink attached where it takes one, and
// SHA-256s every returned value, evicted translation and probed line,
// plus the final reach and occupancy. A storage-layout or performance
// change must leave every digest unchanged. Dirty state is hashed as one
// bit per entry, the entry's current one: a lookup's or an eviction's
// translation carries it in Dirty (hashed twice, so designs whose result
// already did keep their digests), and a demotion folds the stream's
// dirty draw into the demoted translation.
func TestOpStreamDigest(t *testing.T) {
	want := map[string]string{
		"haswell-l1":      "34ae0631325bd4ce141eda1e7de9fd33bf45738cf867354b9a00ea1aed484bb3",
		"haswell-l2":      "cabbb8452142747bc6378a0ff4672adbf394e001a8d7bc09e12d37acb47b0a55",
		"colt-split-l1":   "72dc387b040b3b22f2009d6e804217962c14157a3edc917e049e3eb669ed2f76",
		"colt++-split-l1": "77f07cdabeeb941d6432d765b7631c57a7c98d6ad0b7f104ad3165ca4dcec039",
		"rehash+pred":     "b30cc01db1b53c4feaf781d50d0481614312739db0def8e77366adda73ab7016",
		"skew+pred":       "32d2b6482c9ae286af7402f7c6c771dc40d55bf79500e8addf683bd67c684226",
		"ideal":           "e8aee37d75dcc8bb64b3380086c36391390355a102f431e95a95bcc348594f5d",
		"victim":          "ede8d869a647338ebe9b34e099791dfba8224d98d214d792071459211de01472",
	}
	pt := streamPageTable(t)
	for i, k := range streamKinds {
		tl, err := k.build(pt)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		if got := opStreamDigest(tl, 0x71b^uint64(i), 20000); got != want[k.name] {
			t.Errorf("%s: digest %s, want %s", k.name, got, want[k.name])
		}
	}
}

// streamUniverse is the page population the streams draw from: page
// number ranges per size, in disjoint VA regions, small enough that every
// kind sees hits, merges and evictions.
var streamUniverse = [addr.NumPageSizes]struct{ base, n uint64 }{
	addr.Page4K: {1 << 28, 1024},
	addr.Page2M: {0x100, 512},
	addr.Page1G: {0x40, 64},
}

// streamPTE is the streams' page table: mostly VA- and PA-contiguous
// runs, broken every few pages by a physical jump or a read-only page so
// coalescing windows also hold incompatible neighbours. gen remaps a page
// (stale entries then disagree with fresh fills).
func streamPTE(size addr.PageSize, svn, gen uint64) pagetable.Translation {
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
		Size: size, Perm: perm, Accessed: (h>>20)%7 != 0, Dirty: (h>>30)%3 == 0,
	}
}

// streamPageTable maps every page of streamUniverse at generation 0, the
// backing store of the ideal TLB.
func streamPageTable(t testing.TB) *pagetable.PageTable {
	pt, err := pagetable.NewISA(newTestAllocator(), isa.Default())
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range addr.Sizes() {
		u := streamUniverse[size]
		for svn := u.base; svn < u.base+u.n; svn++ {
			tr := streamPTE(size, svn, 0)
			if err := pt.Map(tr.VA, tr.PA, size, tr.Perm); err != nil {
				t.Fatal(err)
			}
		}
	}
	return pt
}

// streamOp is one drawn page: its size, page number and a VA inside it.
type streamOp struct {
	size addr.PageSize
	svn  uint64
	va   addr.V
}

func pickStreamOp(rng *simrand.Source) streamOp {
	size := addr.Page2M
	switch u := rng.Float64(); {
	case u < 0.45:
		size = addr.Page4K
	case u > 0.85:
		size = addr.Page1G
	}
	u := streamUniverse[size]
	svn := u.base + rng.Uint64n(u.n)
	return streamOp{size, svn, addr.V(svn<<size.Shift() + rng.Uint64n(size.Bytes()))}
}

// streamWalk is the walk for op at generation gen: the demanded PTE
// (accessed, as the walker guarantees) followed by its 64-byte line.
func streamWalk(op streamOp, gen func(addr.PageSize, uint64) uint64, found bool) pagetable.WalkResult {
	tr := streamPTE(op.size, op.svn, gen(op.size, op.svn))
	tr.Accessed = true
	line := []pagetable.Translation{tr}
	u := streamUniverse[op.size]
	for s := op.svn &^ 7; s < op.svn&^7+8; s++ {
		if s != op.svn && s >= u.base && s < u.base+u.n {
			line = append(line, streamPTE(op.size, s, gen(op.size, s)))
		}
	}
	return pagetable.WalkResult{Found: found, Translation: tr, Line: line}
}

// streamDigester feeds fixed-width encodings of TLB values to a hash, so
// the digest does not depend on any String method.
type streamDigester struct {
	h   hash.Hash
	buf [8]byte
}

func (d *streamDigester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

func (d *streamDigester) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *streamDigester) tr(t pagetable.Translation) {
	d.u64(uint64(t.VA))
	d.u64(uint64(t.PA))
	d.u64(uint64(t.Size))
	d.u64(uint64(t.Perm))
	d.flag(t.Accessed)
	d.flag(t.Dirty)
}

func (d *streamDigester) cost(c Cost) {
	for _, v := range []int{c.Probes, c.WaysRead, c.SetsFilled, c.EntriesWritten, c.PredictorReads, c.PredictorWrites} {
		d.u64(uint64(v))
	}
}

// lookupCost hashes a lookup's cost as the Cost it adds to, the encoding
// the digests were recorded with.
func (d *streamDigester) lookupCost(l LookupCost) {
	var c Cost
	c.AddLookup(l)
	d.cost(c)
}

// opStreamDigest runs n seeded operations against tl and returns the hex
// SHA-256 of everything it returned, evicted or probed.
func opStreamDigest(tl TLB, seed uint64, n int) string {
	rng := simrand.New(seed)
	d := &streamDigester{h: sha256.New()}
	if en, ok := tl.(EvictionNotifier); ok {
		en.SetEvictionSink(func(t pagetable.Translation) {
			d.u64(0xe1)
			d.tr(t)
			d.flag(t.Dirty)
		})
	}
	gens := map[uint64]uint64{}
	gen := func(size addr.PageSize, svn uint64) uint64 { return gens[svn<<2|uint64(size)] }
	for i := 0; i < n; i++ {
		op := pickStreamOp(rng)
		// PCs correlate with page size, as the size predictors assume,
		// with a minority of mispredicting sites.
		req := Request{VA: op.va, PC: uint64(op.size)<<12 | rng.Uint64n(4)<<2}
		if rng.Bool(0.1) {
			req.PC = rng.Uint64n(64) << 2
		}
		d.u64(uint64(i))
		switch u := rng.Float64(); {
		case u < 0.30:
			walk := streamWalk(op, gen, rng.Bool(0.97))
			d.cost(tl.Fill(req, walk))
			if dm, ok := tl.(Demoter); ok {
				// The demoted entry's dirty bit: the walked PTE's,
				// or set while the entry was resident.
				tr, dirty := walk.Translation, rng.Bool(0.3)
				tr.Dirty = tr.Dirty || dirty
				absorbed, evicted := dm.Demote(tr)
				d.flag(absorbed)
				d.u64(uint64(evicted))
			}
		case u < 0.72:
			req.Write = rng.Bool(0.3)
			r := tl.Lookup(req)
			d.flag(r.Hit)
			d.tr(r.T)
			d.flag(r.T.Dirty)
			d.lookupCost(r.Cost)
			if cr, ok := tl.(CacheResident); ok {
				for _, l := range cr.ProbedLines() {
					d.u64(uint64(l))
				}
			}
		case u < 0.80:
			if bp, ok := tl.(BundleProvider); ok {
				ms := bp.Members(op.va)
				d.u64(uint64(len(ms)))
				for _, t := range ms {
					d.tr(t)
				}
			}
		case u < 0.88:
			d.flag(tl.MarkDirty(op.va))
		case u < 0.998:
			d.u64(uint64(tl.Invalidate(op.va, op.size)))
			if rng.Bool(0.3) {
				gens[op.svn<<2|uint64(op.size)]++
			}
		default:
			tl.Flush()
		}
	}
	if rr, ok := tl.(ReachReporter); ok {
		d.u64(rr.ReachBytes())
	}
	if or, ok := tl.(OccupancyReporter); ok {
		for _, o := range or.OccupancyBySet() {
			d.u64(uint64(o))
		}
	}
	return hex.EncodeToString(d.h.Sum(nil))
}
