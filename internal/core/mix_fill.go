package core

import (
	"math/bits"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/tlb"
)

// Fill implements tlb.TLB. 4KB translations fill one set conventionally.
// Superpage translations are coalesced with their cache-line neighbours
// into a bundle, then mirrored into every set any member region can index
// (Sec 4.2's "fill as many sets as necessary" prefetch strategy). See
// fillBundle for the mirror-write policy (non-destructive by default;
// the paper's literal blind fill behind Config.BlindMirrors).
func (m *MixTLB) Fill(req tlb.Request, walk pagetable.WalkResult) tlb.Cost {
	if !walk.Found {
		return tlb.Cost{}
	}
	m.clock++
	tr := walk.Translation
	if tr.Size == addr.Page4K && m.cfg.SmallCoalesce == 0 {
		m.fillPlain(req.VA, tr)
		m.stats.SmallFills++
		return tlb.Cost{SetsFilled: 1, EntriesWritten: 1}
	}

	tag, bundle := m.buildBundle(tr, walk.Line)
	if tr.Size == addr.Page4K {
		m.stats.SmallFills++
	}
	targets := m.mirrorTargets(req.VA, tag, &bundle)
	cost := m.fillBundle(req.VA, tag, bundle, targets)
	members := uint64(bundle.memberCount(m.cfg.Encoding))
	m.stats.BundlesFilled++
	m.stats.MembersPerFill += members
	if m.tel != nil {
		m.tel.bundleMembers.Observe(members)
	}
	return cost
}

// fillPlain writes t as an uncoalesced 4KB entry into va's set, replacing
// the first free way, else the LRU way.
func (m *MixTLB) fillPlain(va addr.V, t pagetable.Translation) {
	lo := m.setIndex(va) * m.cfg.Ways
	i := lo + m.victim(lo)
	if m.tags[i]&tagValid != 0 && m.sink != nil {
		m.reportEviction(i)
	}
	m.tags[i] = plainTag(t.VA.VPN4K())
	m.ways[i] = payload{base: t.PA.PageBase(addr.Page4K), perm: t.Perm, dirty: t.Dirty}
	m.stamps[i] = m.clock
}

// fillBundle writes the bundle into the target sets. The probed set fills
// normally (merge with a compatible copy, else LRU replacement). Mirror
// sets are prefetch targets: they merge into an existing copy or allocate
// an *invalid* way, but never evict a live entry — one miss must not
// destroy up to sets-1 resident translations (mirror churn would otherwise
// cap the whole TLB at `ways` distinct bundles under capacity pressure).
// Under the BlindMirrors ablation (the paper's literal Sec 4.2/4.3 fill),
// mirrors are written unconditionally with LRU victims.
//
// Each target set costs one pass over its tag words, which finds a
// compatible copy (an equal tag) and the first free way together; the
// payload is read only on a tag match. Merging into a copy implements the
// incremental extension of Sec 4.2: later misses on superpages adjacent
// to a cached bundle coalesce into it.
func (m *MixTLB) fillBundle(probeVA addr.V, tag uint64, b payload, targets []int) tlb.Cost {
	probed := m.setIndex(probeVA)
	bExempt := m.exemptGroups(&b)
	var cost tlb.Cost
sets:
	for _, si := range targets {
		mirror := si != probed
		lo := si * m.cfg.Ways
		set := m.tags[lo : lo+m.cfg.Ways]
		merge := !mirror || !m.cfg.BlindMirrors
		free := -1
		for i, t := range set {
			if t == tag && merge {
				e := &m.ways[lo+i]
				if e.base == b.base && e.perm == b.perm && m.mergeMembers(e, &b, bExempt) {
					e.dirty = e.dirty && b.dirty
					// Only the probed set's copy is recency-refreshed: a
					// merge into a mirror set is maintenance, not a use,
					// and counting it as one inverts LRU (persistently
					// missing bundles would look hotter everywhere than
					// resident bundles that hit).
					if !mirror {
						m.stamps[lo+i] = m.clock
					}
					cost.SetsFilled++
					cost.EntriesWritten++
					m.stats.CoalesceMerges++
					continue sets
				}
			} else if t&tagValid == 0 && free < 0 {
				free = i
			}
		}
		v := free
		if v < 0 {
			if mirror && !m.cfg.BlindMirrors {
				continue // no spare way: skip the prefetch, keep live entries
			}
			v = m.lru(lo)
			if m.sink != nil {
				m.reportEviction(lo + v)
			}
		}
		set[v] = tag
		m.ways[lo+v] = b
		m.stamps[lo+v] = m.clock
		cost.SetsFilled++
		cost.EntriesWritten++
		if mirror {
			m.stats.MirrorWrites++
		}
	}
	return cost
}

// victim picks the replacement way of the set starting at way lo: the
// first free way, else LRU.
func (m *MixTLB) victim(lo int) int {
	for i, t := range m.tags[lo : lo+m.cfg.Ways] {
		if t&tagValid == 0 {
			return i
		}
	}
	return m.lru(lo)
}

// lru returns the least recently used way of the full set starting at
// way lo (the first on a tie).
func (m *MixTLB) lru(lo int) int {
	stamps := m.stamps[lo : lo+m.cfg.Ways]
	v := 0
	for i, s := range stamps {
		if s < stamps[v] {
			v = i
		}
	}
	return v
}

// Promote implements tlb.Promoter: an L1 refill served by an L2 hit fills
// only the probed set — no mirroring, since re-mirroring on every
// promotion would churn the other sets — but coalesces the L2 entry's
// member translations (line) so bundle reach survives the promotion path.
func (m *MixTLB) Promote(req tlb.Request, t pagetable.Translation, line []pagetable.Translation) tlb.Cost {
	if !t.Valid() {
		return tlb.Cost{}
	}
	m.clock++
	if t.Size == addr.Page4K && m.cfg.SmallCoalesce == 0 {
		m.fillPlain(req.VA, t)
		return tlb.Cost{SetsFilled: 1, EntriesWritten: 1}
	}
	if len(line) == 0 {
		line = []pagetable.Translation{t}
	}
	tag, bundle := m.buildBundle(t, line)
	m.targets = append(m.targets[:0], m.setIndex(req.VA))
	return m.fillBundle(req.VA, tag, bundle, m.targets)
}

// Members implements tlb.BundleProvider: expand the entry covering va
// into its member translations, the payload an L1 promotion copies.
func (m *MixTLB) Members(va addr.V) []pagetable.Translation {
	i, _ := m.find(va)
	if i < 0 {
		return nil
	}
	// Reuse the scratch slice: the promotion path consumes the members
	// before the next Lookup/Fill on this TLB.
	out := m.members[:0]
	lo, hi := memberBounds(m.tags[i], &m.ways[i], m.cfg.Encoding)
	for s := lo; s <= hi; s++ {
		if m.holds(i, s) {
			out = append(out, m.memberTranslation(i, s))
		}
	}
	m.members = out[:0]
	return out
}

// buildBundle assembles a bundle for tr by scanning the walked PTE cache
// line for coalescable neighbours: same page size and permissions,
// accessed bit set (x86 fill rule, Sec 4.4), and both virtually and
// physically contiguous with tr's implied window placement. It returns
// the bundle's tag word and payload.
func (m *MixTLB) buildBundle(tr pagetable.Translation, line []pagetable.Translation) (uint64, payload) {
	size := tr.Size
	shift := size.Shift()
	svn := tr.VA.PageNum(size)
	k := uint64(m.coalesceLimit(size))

	var window uint64
	var slot int
	if m.cfg.NoAlignmentRestriction {
		// Anchor the window at the start of the maximal contiguous run
		// containing tr (bounded to K members), instead of an aligned
		// boundary.
		window, slot = m.runAnchor(tr, line, int(k))
	} else {
		window, slot = windowOf(svn, k)
	}
	tag := bundleTag(size, k, window)
	baseSVN := m.baseSVN(tag)
	basePA := tr.PA - addr.P(uint64(slot)<<shift)

	// Collect qualifying window slots as word masks: slot s is bit s%64
	// of word s/64. Candidates all come from one PTE cache line, but
	// their absolute positions range over the whole window (K reaches
	// 256 under the range encoding).
	var present, dirty [4]uint64
	present[slot/64] = 1 << (slot % 64)
	if tr.Dirty {
		dirty[slot/64] = 1 << (slot % 64)
	}
	count := 1
	dirtyAll := tr.Dirty
	for _, n := range line {
		if n.Size != size || n.VA == tr.VA || !n.Accessed || n.Perm != tr.Perm {
			continue
		}
		nsvn := n.VA.PageNum(size)
		if nsvn < baseSVN || nsvn >= baseSVN+k {
			continue
		}
		i := int(nsvn - baseSVN)
		if n.PA != basePA+addr.P(uint64(i)<<shift) {
			continue // not physically contiguous with the bundle base
		}
		if bit := uint64(1) << (i % 64); present[i/64]&bit == 0 {
			present[i/64] |= bit
			if n.Dirty {
				dirty[i/64] |= bit
			}
			count++
			dirtyAll = dirtyAll && n.Dirty
		}
	}

	w := payload{base: basePA, perm: tr.Perm, dirty: dirtyAll}
	// Seed line-granular dirty knowledge: a slot group whose present
	// members are all dirty in the fetched line starts exempt from dirty
	// micro-ops. (Unaligned bundles skip this: their groups would not
	// correspond to PTE cache lines.)
	if !m.cfg.NoDirtyGroups && !m.cfg.NoAlignmentRestriction {
		for i, p := range present {
			w.dgroups |= (byteGroups(p) &^ byteGroups(p&^dirty[i])) << (8 * i)
		}
	}
	// The maximal contiguous run through the demanded slot.
	has := func(s int) bool { return present[s/64]&(1<<(s%64)) != 0 }
	runStart, runEnd := slot, slot
	for runStart > 0 && has(runStart-1) {
		runStart--
	}
	for runEnd+1 < int(k) && has(runEnd+1) {
		runEnd++
	}
	switch m.cfg.Encoding {
	case Bitmap:
		w.bitmap = present[0] // K <= 64
		if count > runEnd-runStart+1 {
			m.stats.HolesRepresent++
		}
	case Range:
		// The range encoding cannot hold holes: keep only the run.
		w.start, w.length = uint16(runStart), uint16(runEnd-runStart+1)
		if count > runEnd-runStart+1 {
			m.stats.RangeTruncation++
		}
	}
	return tag, w
}

// runAnchor finds the base superpage number and tr's slot for the
// unaligned-bundle ablation: extend downward and upward from tr through
// the line while VA and PA stay contiguous, capping the run at K.
func (m *MixTLB) runAnchor(tr pagetable.Translation, line []pagetable.Translation, k int) (uint64, int) {
	size := tr.Size
	shift := size.Shift()
	present := make(map[uint64]pagetable.Translation, len(line))
	for _, n := range line {
		if n.Size == size && n.Accessed && n.Perm == tr.Perm {
			present[n.VA.PageNum(size)] = n
		}
	}
	svn := tr.VA.PageNum(size)
	base := svn
	for base > 0 {
		prev, ok := present[base-1]
		if !ok || svn-base+1 >= uint64(k) {
			break
		}
		cur := present[base]
		if prev.PA+addr.P(uint64(1)<<shift) != cur.PA {
			break
		}
		base--
	}
	return base, int(svn - base)
}

// mirrorTargets lists the set indices the bundle must be written to: the
// sets indexed by the 4KB regions the bundle's present members span. For
// 2MB/1GB pages under small-page indexing that is every set (N >= M,
// Sec 3); the list degenerates under the superpage-index ablation or
// MirrorProbedSetOnly.
func (m *MixTLB) mirrorTargets(probeVA addr.V, tag uint64, b *payload) []int {
	if m.cfg.MirrorProbedSetOnly {
		return append(m.targets[:0], m.setIndex(probeVA))
	}
	shift := tagSize(tag).Shift()
	lo, hi := memberBounds(tag, b, m.cfg.Encoding)
	baseVA := (m.baseSVN(tag) + uint64(lo)) << shift
	spanBytes := uint64(hi-lo+1) << shift
	granules := spanBytes >> m.cfg.IndexShift
	if granules == 0 {
		granules = 1
	}
	if granules >= uint64(m.cfg.Sets) {
		return m.allSets
	}
	// granules < Sets, so the consecutive indices below are distinct
	// modulo Sets — no dedup needed.
	first := int((baseVA >> m.cfg.IndexShift) & m.setMask)
	out := m.targets[:0]
	for g := uint64(0); g < granules; g++ {
		out = append(out, (first+int(g))&int(m.setMask))
	}
	m.targets = out
	return out
}

// memberBounds returns the lowest and highest present slot of the entry
// with tag t and payload w: slot 0 alone for a plain entry.
func memberBounds(t uint64, w *payload, enc Encoding) (lo, hi int) {
	if t&tagBundle == 0 {
		return 0, 0
	}
	if enc == Bitmap {
		return bits.TrailingZeros64(w.bitmap), 63 - bits.LeadingZeros64(w.bitmap)
	}
	return int(w.start), int(w.start) + int(w.length) - 1
}

// RefreshDirty implements tlb.DirtyRefresher: the dirty micro-op's assist
// just wrote one member's PTE D bit and read the surrounding cache line,
// so the design can re-derive the dirty state of the member's whole slot
// group (exactly that line) for free. When every present member of the
// group is dirty, the group's bit is set and future stores to it skip the
// micro-op. Under NoDirtyGroups (the paper's literal single-bit policy),
// only singleton bundles can be marked, as in MarkDirty.
func (m *MixTLB) RefreshDirty(va addr.V, line []pagetable.Translation) bool {
	i, slot := m.find(va)
	if i < 0 {
		return false
	}
	t, w := m.tags[i], &m.ways[i]
	if t&tagBundle == 0 || m.cfg.NoDirtyGroups || m.cfg.NoAlignmentRestriction {
		return m.markSingleton(i)
	}
	size, k := tagSize(t), 1<<tagLogK(t)
	base := m.baseSVN(t)
	g := slot / 8
	for s := 8 * g; s < 8*g+8 && s < k; s++ {
		if !w.memberPresent(m.cfg.Encoding, s) {
			continue
		}
		// Scan the (≤8-entry) line for this member's PTE directly; a
		// per-call map would allocate on the store hot path.
		want := base + uint64(s)
		dirty := false
		for _, n := range line {
			if n.Size == size && n.VA.PageNum(size) == want {
				dirty = n.Dirty
				break
			}
		}
		if !dirty {
			return false
		}
	}
	w.dgroups |= 1 << g
	return true
}

// MarkDirty implements tlb.TLB with the conservative policy of Sec 4.4: a
// bundle's dirty bit may only be set when every member is known dirty,
// which the hardware can only be sure of for single-member bundles. Stores
// through multi-member bundles therefore always inject the PTE update
// micro-op.
func (m *MixTLB) MarkDirty(va addr.V) bool {
	i, _ := m.find(va)
	return i >= 0 && m.markSingleton(i)
}

// markSingleton sets way i's whole-entry dirty bit when the entry holds a
// single page (a plain entry or a one-member bundle), reporting whether
// it could.
func (m *MixTLB) markSingleton(i int) bool {
	w := &m.ways[i]
	if m.tags[i]&tagBundle != 0 && w.memberCount(m.cfg.Encoding) != 1 {
		return false
	}
	w.dirty = true
	return true
}

// Invalidate implements tlb.TLB. 4KB entries live in exactly one set and
// are dropped there. Superpage members may be mirrored anywhere, so every
// set is visited (invalidations are software-initiated and rare, Sec 4.4):
// bitmap bundles clear the member's bit, keeping neighbours cached; range
// bundles drop the whole coalesced entry — the paper's simple option.
func (m *MixTLB) Invalidate(va addr.V, size addr.PageSize) int {
	n := 0
	if size == addr.Page4K && m.cfg.SmallCoalesce == 0 {
		lo := m.setIndex(va) * m.cfg.Ways
		want := plainTag(va.VPN4K())
		for i := lo; i < lo+m.cfg.Ways; i++ {
			if m.tags[i] == want {
				m.tags[i] = 0
				n++
			}
		}
		return n
	}
	for i, t := range m.tags {
		if t&tagBundle == 0 || tagSize(t) != size {
			continue
		}
		slot, ok := m.covers(t, va)
		if !ok || !m.holds(i, slot) {
			continue
		}
		n++
		if m.cfg.Encoding == Bitmap {
			m.ways[i].bitmap &^= 1 << slot
			if m.ways[i].bitmap != 0 {
				continue
			}
		}
		m.tags[i] = 0
	}
	return n
}

// ScrubCorrupt implements tlb.Scrubber: drop the entry (and any mirrors)
// covering va after a detected parity error. Unlike a software
// invalidation, a scrub cannot trust the corrupted entry's contents, so
// the full member bundle is discarded rather than a single member bit.
func (m *MixTLB) ScrubCorrupt(va addr.V, size addr.PageSize) int {
	n := 0
	for i, t := range m.tags {
		if t&tagValid == 0 || tagSize(t) != size {
			continue
		}
		if slot, ok := m.covers(t, va); ok && m.holds(i, slot) {
			m.tags[i] = 0
			n++
		}
	}
	m.stats.CorruptionScrubs += uint64(n)
	return n
}

// Flush implements tlb.TLB.
func (m *MixTLB) Flush() { clear(m.tags) }
