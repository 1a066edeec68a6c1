// Package core implements MIX TLBs, the contribution of Cox &
// Bhattacharjee (ASPLOS'17): a single set-associative TLB that caches all
// page sizes concurrently.
//
// The design, following Sections 3-4 of the paper:
//
//   - One indexing scheme for every page size: the small-page (4KB) index
//     bits. Superpage lookups therefore pick their index bits from within
//     the superpage's page offset, so a superpage maps to (up to) every
//     set. Fills replicate the superpage entry into those sets — mirrors.
//   - Mirroring alone would waste capacity, so the fill path coalesces:
//     the page-table walker reads PTEs in 64-byte cache lines (8 PTEs),
//     and contiguous, same-permission, accessed superpages in that line
//     merge into a single bundle entry. With as many coalesced superpages
//     as mirror copies, net capacity matches a dedicated superpage TLB.
//   - Bundles are encoded two ways: L1 entries carry a bitmap (simple,
//     supports holes); L2 entries carry a (start,length) range checked by
//     comparators (denser, no holes) — Sec 4.1.
//   - Coalescing is restricted to runs inside K-aligned windows of the
//     virtual superpage number space (the alignment restriction), which
//     turns membership checks into a tag compare plus bitmap/range index.
//   - Mirrored fills never scan other sets for duplicates. By default each
//     mirror write tag-matches its own set, merging into a copy or taking
//     a free way (Config.BlindMirrors restores the paper's blind write);
//     duplicates within a set are merged on later probes (Sec 4.3).
//   - A bundle's dirty bit is the AND of its members' dirty bits; stores
//     through a not-all-dirty bundle always inject the PTE dirty-bit
//     micro-op (Sec 4.4's conservative policy).
//
// Lookup stays single-probe: only the set named by the request's index
// bits is read, and the physical address is rebuilt by concatenation
// (bitmap mode) or base-plus-offset (range mode).
package core

import (
	"fmt"
	"math/bits"

	"mixtlb/internal/addr"
	"mixtlb/internal/lru"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/tlb"
)

// Encoding selects how a bundle records its coalesced members (Sec 4.1).
type Encoding int

const (
	// Bitmap is the L1 encoding: one presence bit per window slot. It can
	// represent holes, and invalidation clears a single bit.
	Bitmap Encoding = iota
	// Range is the L2 encoding: a (start, length) run checked by
	// comparators. Denser for long runs; invalidation drops the entry.
	Range
)

func (e Encoding) String() string {
	if e == Bitmap {
		return "bitmap"
	}
	return "range"
}

// Config describes a MIX TLB instance, including the ablation knobs
// DESIGN.md calls out.
type Config struct {
	Name string
	Sets int
	Ways int
	// Coalesce is K, the maximum superpages per bundle (a power of two).
	// Fully offsetting mirrors needs K >= Sets. Bitmap entries carry one
	// presence bit per slot, capping K at 64; range entries only store
	// (start, length), allowing K up to 256 — which is why the paper's
	// L2 design switches to the length encoding (Sec 4.1).
	Coalesce int
	// Encoding selects bitmap (L1) or range (L2) bundles.
	Encoding Encoding
	// IndexShift is the VA bit where index extraction starts. The MIX
	// design point is 12 (small-page bits); 21 reproduces the Sec 3
	// ablation that indexes everything by superpage bits.
	IndexShift uint
	// MirrorProbedSetOnly disables the mirror-all-sets prefetch strategy
	// of Sec 4.2, filling only the set the missing request probed.
	MirrorProbedSetOnly bool
	// BlindMirrors makes mirror writes pick a victim without tag-matching
	// the destination set, exactly as the paper's Figure 8 describes —
	// duplicates then arise and are eliminated lazily on probes. The
	// default (false) tag-matches the set being written and merges into
	// an existing compatible bundle instead of inserting a duplicate.
	// This is a deliberate deviation: the paper rejects scanning *all*
	// sets for duplicates, but a within-set tag compare during the fill
	// write costs one set read and prevents fill-storms from evicting
	// live mirrors. BenchmarkDedupPolicy quantifies the difference.
	BlindMirrors bool
	// NoAlignmentRestriction lifts the K-aligned window restriction,
	// anchoring bundles at arbitrary run starts (ablation; costs wider
	// comparators in hardware).
	NoAlignmentRestriction bool
	// NoDirtyGroups disables line-granular dirty tracking, reverting to
	// the paper's literal policy: one dirty bit per bundle, set only when
	// every member is dirty, so stores through not-all-dirty bundles pay
	// the PTE-update micro-op on every store. The default tracks dirty
	// state per group of 8 members — exactly one PTE cache line, whose D
	// bits the micro-op's assist reads anyway — bounding the added
	// traffic (the ablation quantifies the difference).
	NoDirtyGroups bool
	// ContigPages, when nonzero, is the ISA's hardware contiguity block
	// size in base pages (SVNAPOT's 16-page granule, the ARM64
	// contiguous hint's 16-entry span). It is a validation constraint,
	// not a runtime knob: the walker already hands the fill logic every
	// member of an encoded block through walk.Line, so the only
	// requirement is that a bundle can hold one whole block — New
	// rejects Coalesce below it. Zero (the x86-64 default) imposes
	// nothing.
	ContigPages int
	// SmallCoalesce, when nonzero, additionally coalesces runs of
	// contiguous 4KB pages into bundles of up to this many members — the
	// MIX+COLT combination of Sec 7.2 (the paper, like COLT, uses 4). A
	// 4KB bundle spans several index granules and is mirrored into that
	// many sets, reusing the superpage machinery. Zero disables it.
	SmallCoalesce int
}

// L1Config is the paper-equivalent L1 MIX TLB: area-equivalent to the
// split L1's 100 entries (16 sets x 6 ways = 96 entries, the headroom
// paying for coalescing logic), bitmap encoding, K equal to the set count
// so coalescing can fully offset mirroring.
func L1Config() Config {
	return Config{Name: "mix-L1", Sets: 16, Ways: 6, Coalesce: 16, Encoding: Bitmap, IndexShift: addr.Shift4K}
}

// L2Config is the default L2 MIX TLB: 512 entries (the split L2's shared
// array; the separate 1GB TLB's 32 entries are the claimed area saving),
// organized as 64 sets x 8 ways with K = 64 so that coalescing exactly
// offsets mirroring (ways x K = 512 superpages of net reach, matching the
// split L2's dedicated capacity, but usable by any page-size mix).
//
// Deviation from the paper: Sec 4.1 gives the L2 a (start,length) range
// encoding. Ranges only merge with adjacent fragments, so under
// popularity-ordered miss streams (hot pages touched in popularity, not
// address, order) window bundles fragment into runs that evict each other
// — an instability this reproduction surfaced. The default therefore uses
// the bitmap encoding (64 extra bits per entry); L2RangeConfig preserves
// the paper's encoding and BenchmarkBundleEncoding quantifies the gap.
func L2Config() Config {
	return Config{Name: "mix-L2", Sets: 64, Ways: 8, Coalesce: 64, Encoding: Bitmap, IndexShift: addr.Shift4K}
}

// L2RangeConfig is the paper's literal L2 design point: range-encoded
// bundles with K equal to the set count.
func L2RangeConfig() Config {
	return Config{Name: "mix-L2-range", Sets: 128, Ways: 4, Coalesce: 128, Encoding: Range, IndexShift: addr.Shift4K}
}

// Stats exposes MIX-specific event counters for experiments and tests.
type Stats struct {
	MirrorWrites     uint64 // entry writes beyond the first set on a fill
	CoalesceMerges   uint64 // fills absorbed into an existing bundle
	DupsEliminated   uint64 // duplicate copies merged away during probes
	BundlesFilled    uint64 // new bundle entries created
	SmallFills       uint64 // 4KB fills
	MembersPerFill   uint64 // total members across bundle fills (avg = /BundlesFilled)
	HolesRepresent   uint64 // bitmap fills whose member set had holes
	RangeTruncation  uint64 // range fills that dropped non-prefix members
	CorruptionScrubs uint64 // entries dropped by ScrubCorrupt (ECC scrubbing)
}

// MixTLB implements tlb.TLB.
//
// Storage is structure-of-arrays. Way w of set s lives at index s*Ways+w
// of three parallel slices: tags holds the packed tag word every probe
// and fill compares, stamps the LRU stamp, and ways the cold payload,
// read only after a tag match. A set's tag words are contiguous (64
// bytes for 8 ways), so a mirrored fill that finds nothing to merge in a
// set reads only those words.
type MixTLB struct {
	cfg     Config
	setMask uint64 // Sets-1
	tags    []uint64
	stamps  []uint64
	ways    []payload
	clock   uint64
	stats   Stats

	allSets []int                   // 0..Sets-1, the full-mirror target list
	targets []int                   // scratch reused by mirrorTargets
	members []pagetable.Translation // scratch reused by Members

	// sink receives translations displaced by capacity replacement (the
	// victim-level demotion feed), nil unless attached. Mirrored bundles
	// mean an evicted copy's members may still be resident in other sets;
	// the sink sees them anyway — demotion must be conservative, and the
	// probe order (SRAM levels first) keeps such duplicates harmless.
	sink tlb.EvictionSink

	// tel is the telemetry hook block, nil unless AttachTelemetry enabled
	// it; every use is a single nil-check branch.
	tel *mixTel
}

// A tag word packs everything a probe compares (Fig 5/6's tag plus the
// 2-bit size field): bit 63 is the valid bit, bits 61-62 the page size,
// bit 60 marks a bundle (a flag of its own because a K=1 bundle has
// log2 K = 0 too), bits 56-59 hold log2 K (0 for a plain 4KB entry), and
// bits 0-55 the bundle's window (without the alignment
// restriction, its base page number) or the plain entry's VPN. Invalid
// ways hold tag 0. Two entries with equal tags cover the same window, so
// duplicate and merge checks are one word compare.
const (
	tagValid     = lru.Valid
	tagSizeShift = 61
	tagBundle    = uint64(1) << 60
	tagLogKShift = 56
	tagKeyMask   = uint64(1)<<tagLogKShift - 1
)

// plainTag is the tag of an uncoalesced 4KB entry.
func plainTag(vpn uint64) uint64 {
	return tagValid | uint64(addr.Page4K)<<tagSizeShift | vpn
}

// bundleTag is the tag of a bundle of capacity k (a power of two).
func bundleTag(size addr.PageSize, k, window uint64) uint64 {
	return tagValid | uint64(size)<<tagSizeShift | tagBundle |
		uint64(bits.TrailingZeros64(k))<<tagLogKShift | window
}

func tagSize(t uint64) addr.PageSize { return addr.PageSize(t >> tagSizeShift & 3) }

// tagLogK returns log2 of the entry's slot count: K for a bundle, one
// slot for a plain entry.
func tagLogK(t uint64) uint { return uint(t >> tagLogKShift & 15) }

func tagKey(t uint64) uint64 { return t & tagKeyMask }

// payload is the cold part of a MIX TLB way: what a hit returns and a
// merge updates, read only once the way's tag has matched.
type payload struct {
	// base is the physical address of a plain entry's page, or of a
	// bundle's window slot 0: member i's PA is base + i<<sizeShift.
	base   addr.P
	bitmap uint64 // Bitmap encoding
	start  uint16 // Range encoding: first present slot
	length uint16 // Range encoding: run length

	perm  addr.Perm
	dirty bool
	// dgroups has bit g set when every present member in slot group
	// [8g, 8g+8) is known dirty; a set bit exempts stores to that group
	// from the PTE-update micro-op. Groups are exactly PTE cache lines.
	dgroups uint32
}

var _ tlb.TLB = (*MixTLB)(nil)

// New builds a MIX TLB from cfg.
func New(cfg Config) (*MixTLB, error) {
	if cfg.Sets <= 0 || !addr.IsPow2(uint64(cfg.Sets)) || cfg.Ways <= 0 {
		return nil, fmt.Errorf("core: invalid %s config: bad geometry %dx%d", cfg.Name, cfg.Sets, cfg.Ways)
	}
	maxK := 64
	if cfg.Encoding == Range {
		maxK = 256
	}
	if cfg.Coalesce <= 0 || cfg.Coalesce > maxK || !addr.IsPow2(uint64(cfg.Coalesce)) {
		return nil, fmt.Errorf("core: invalid %s config: bad coalesce limit %d for %v encoding", cfg.Name, cfg.Coalesce, cfg.Encoding)
	}
	if cfg.SmallCoalesce != 0 && (cfg.SmallCoalesce < 0 || cfg.SmallCoalesce > maxK || !addr.IsPow2(uint64(cfg.SmallCoalesce))) {
		return nil, fmt.Errorf("core: invalid %s config: bad small-page coalesce limit %d", cfg.Name, cfg.SmallCoalesce)
	}
	if cfg.ContigPages > 0 && cfg.Coalesce < cfg.ContigPages {
		return nil, fmt.Errorf("core: invalid %s config: coalesce limit %d cannot cover the ISA's %d-page contiguity blocks", cfg.Name, cfg.Coalesce, cfg.ContigPages)
	}
	if cfg.IndexShift == 0 {
		cfg.IndexShift = addr.Shift4K
	}
	n := cfg.Sets * cfg.Ways
	m := &MixTLB{
		cfg: cfg, setMask: uint64(cfg.Sets - 1),
		tags: make([]uint64, n), stamps: make([]uint64, n), ways: make([]payload, n),
	}
	m.allSets = make([]int, cfg.Sets)
	for i := range m.allSets {
		m.allSets[i] = i
	}
	m.targets = make([]int, 0, cfg.Sets)
	maxMembers := cfg.Coalesce
	if cfg.SmallCoalesce > maxMembers {
		maxMembers = cfg.SmallCoalesce
	}
	m.members = make([]pagetable.Translation, 0, maxMembers)
	return m, nil
}

// Name implements tlb.TLB.
func (m *MixTLB) Name() string { return m.cfg.Name }

// Entries implements tlb.TLB.
func (m *MixTLB) Entries() int { return m.cfg.Sets * m.cfg.Ways }

// Config returns the configuration (ablation reporting).
func (m *MixTLB) Config() Config { return m.cfg }

// Stats returns a snapshot of MIX-specific counters.
func (m *MixTLB) Stats() Stats { return m.stats }

// SetEvictionSink implements tlb.EvictionNotifier.
func (m *MixTLB) SetEvictionSink(sink tlb.EvictionSink) { m.sink = sink }

// reportEviction feeds every member of way i, a valid entry about to be
// overwritten, to the sink. Call sites guarantee m.sink != nil.
func (m *MixTLB) reportEviction(i int) {
	lo, hi := memberBounds(m.tags[i], &m.ways[i], m.cfg.Encoding)
	for s := lo; s <= hi; s++ {
		if m.holds(i, s) {
			m.sink(m.memberTranslation(i, s), m.ways[i].memberDirty(s))
		}
	}
}

// ReachBytes implements tlb.ReachReporter: bytes of virtual address
// space the resident entries translate, counting each distinct member
// page once no matter how many sets mirror it. Snapshot-only (allocates).
func (m *MixTLB) ReachBytes() uint64 {
	type pageKey struct {
		size addr.PageSize
		svn  uint64
	}
	seen := make(map[pageKey]struct{})
	for i, t := range m.tags {
		if t&tagValid == 0 {
			continue
		}
		base := m.baseSVN(t)
		lo, hi := memberBounds(t, &m.ways[i], m.cfg.Encoding)
		for s := lo; s <= hi; s++ {
			if m.holds(i, s) {
				seen[pageKey{tagSize(t), base + uint64(s)}] = struct{}{}
			}
		}
	}
	var b uint64
	for k := range seen {
		b += k.size.Bytes()
	}
	return b
}

// setIndex computes the single set a request probes: VA bits
// [IndexShift, IndexShift+log2(Sets)).
func (m *MixTLB) setIndex(va addr.V) int {
	return int((uint64(va) >> m.cfg.IndexShift) & m.setMask)
}

// windowOf returns the bundle tag and member slot for a page number in a
// window of capacity k. k is always a power of two (enforced by New), so
// the divide/modulo reduce to shift/mask on this hot path.
func windowOf(svn, k uint64) (window uint64, slot int) {
	shift := uint(bits.TrailingZeros64(k))
	return svn >> shift, int(svn & (k - 1))
}

// coalesceLimit returns the bundle capacity for a page size.
func (m *MixTLB) coalesceLimit(s addr.PageSize) int {
	if s == addr.Page4K {
		return m.cfg.SmallCoalesce
	}
	return m.cfg.Coalesce
}

// covers reports whether tag t's entry spans va's page and, if so, va's
// slot in it. One set holds entries of every size and capacity, so the
// expected tag is derived from t's own size and K bits (Fig 7's size
// field steering the compare): va's page number lies within K slots of
// the entry's slot 0.
func (m *MixTLB) covers(t uint64, va addr.V) (int, bool) {
	off := va.PageNum(tagSize(t)) - m.baseSVN(t)
	return int(off), t&tagValid != 0 && off>>tagLogK(t) == 0
}

// holds reports whether way i has slot present: always for a plain
// entry's single slot, per the encoding for a bundle.
func (m *MixTLB) holds(i, slot int) bool {
	return m.tags[i]&tagBundle == 0 || m.ways[i].memberPresent(m.cfg.Encoding, slot)
}

// find returns the first way of va's set holding va's page, and va's
// slot in it, or -1 when the set misses. A plain 4KB entry matches on
// one compare with va's plain tag; only bundles need covers.
func (m *MixTLB) find(va addr.V) (int, int) {
	lo := m.setIndex(va) * m.cfg.Ways
	plain := plainTag(va.VPN4K())
	for i, t := range m.tags[lo : lo+m.cfg.Ways] {
		if t == plain {
			return lo + i, 0
		}
		if t&tagBundle == 0 {
			continue
		}
		if slot, ok := m.covers(t, va); ok && m.ways[lo+i].memberPresent(m.cfg.Encoding, slot) {
			return lo + i, slot
		}
	}
	return -1, 0
}

// memberPresent checks the encoding for slot presence.
func (w *payload) memberPresent(enc Encoding, slot int) bool {
	if enc == Bitmap {
		return w.bitmap&(1<<slot) != 0
	}
	return slot >= int(w.start) && slot < int(w.start)+int(w.length)
}

// memberTranslation reconstructs the translation of way i's member in
// slot: physical addresses come from concatenation/addition against the
// bundle base (Fig 7 step 5).
func (m *MixTLB) memberTranslation(i, slot int) pagetable.Translation {
	t, w := m.tags[i], &m.ways[i]
	shift := tagSize(t).Shift()
	return pagetable.Translation{
		VA:       addr.V((m.baseSVN(t) + uint64(slot)) << shift),
		PA:       w.base + addr.P(uint64(slot)<<shift),
		Size:     tagSize(t),
		Perm:     w.perm,
		Accessed: true,
		Dirty:    w.memberDirty(slot),
	}
}

// memberCount returns how many pages the bundle holds.
func (w *payload) memberCount(enc Encoding) int {
	if enc == Bitmap {
		return bits.OnesCount64(w.bitmap)
	}
	return int(w.length)
}

// memberDirty reports the effective dirty state seen by a store to slot:
// the whole-entry bit or the slot's group bit.
func (w *payload) memberDirty(slot int) bool {
	return w.dirty || w.dgroups&(1<<(slot/8)) != 0
}

// memberGroups has bit g set when slot group g holds a present member.
func (w *payload) memberGroups(enc Encoding) uint32 {
	if enc == Bitmap {
		return byteGroups(w.bitmap)
	}
	return rangeGroups(int(w.start), int(w.length))
}

// byteGroups has bit g set when byte g of x is nonzero: fold each byte
// onto its low bit, then gather the eight low bits into one byte (the
// multiply's partial products land on distinct bits, so nothing carries).
func byteGroups(x uint64) uint32 {
	x |= x >> 4
	x |= x >> 2
	x |= x >> 1
	return uint32((x & 0x0101010101010101) * 0x0102040810204080 >> 56)
}

// rangeGroups has bit g set for every slot group the run [start,
// start+length) touches.
func rangeGroups(start, length int) uint32 {
	lo, hi := uint(start/8), uint((start+length-1)/8)
	return uint32(uint64(2)<<hi - uint64(1)<<lo)
}

// baseSVN returns the page number of the entry's slot 0.
func (m *MixTLB) baseSVN(t uint64) uint64 {
	if m.cfg.NoAlignmentRestriction {
		return tagKey(t)
	}
	return tagKey(t) << tagLogK(t)
}

// Lookup implements tlb.TLB: probe exactly one set; all ways are read in
// parallel; entries of every size are match candidates (the size field
// steers the tag compare, Fig 7). Duplicate bundle copies discovered in
// the probed set are merged opportunistically (Sec 4.3, Fig 8 step 5).
func (m *MixTLB) Lookup(req tlb.Request) tlb.Result {
	m.clock++
	res := tlb.Result{Cost: tlb.Cost{Probes: 1, WaysRead: m.cfg.Ways}}
	m.dedupSet(m.setIndex(req.VA))
	i, slot := m.find(req.VA)
	if i < 0 {
		return res
	}
	m.stamps[i] = m.clock
	res.Hit = true
	res.T = m.memberTranslation(i, slot)
	res.Dirty = res.T.Dirty
	return res
}

// LookupReplayConsistent implements tlb.ReplayConsistent: re-probing the
// same VA with no intervening fill only re-stamps the entry it already
// stamped, and dedupSet is idempotent once a set's duplicates are merged.
func (m *MixTLB) LookupReplayConsistent() bool { return true }

// dedupSet merges duplicate bundle copies within set si. Compatible
// duplicates (equal tags, base and permissions) union their members; an
// incompatible duplicate (stale mapping) loses to the newer copy.
func (m *MixTLB) dedupSet(si int) {
	lo := si * m.cfg.Ways
	tags := m.tags[lo : lo+m.cfg.Ways]
	// Duplicates need at least two valid bundles; the common probe (sets
	// full of 4KB entries, or a single mirrored bundle) skips the O(ways²)
	// pair scan entirely.
	bundles := 0
	for _, t := range tags {
		if t&tagBundle != 0 {
			bundles++
		}
	}
	if bundles < 2 {
		return
	}
	for i, t := range tags {
		if t&tagBundle == 0 {
			continue
		}
		a := &m.ways[lo+i]
		for j := i + 1; j < len(tags); j++ {
			if tags[j] != t {
				continue
			}
			// Same window with a different physical base or permissions
			// is a distinct translation (e.g. two non-contiguous
			// superpages sharing a window), not a duplicate: keep both.
			b := &m.ways[lo+j]
			if a.base != b.base || a.perm != b.perm {
				continue
			}
			// Disjoint range fragments of one window cannot be unioned
			// by the (start,length) encoding; they also coexist until a
			// bridging fragment arrives.
			if !m.mergeMembers(a, b, m.exemptGroups(b)) {
				continue
			}
			a.dirty = a.dirty && b.dirty
			if m.stamps[lo+j] > m.stamps[lo+i] {
				m.stamps[lo+i] = m.stamps[lo+j]
			}
			tags[j] = 0
			m.stats.DupsEliminated++
		}
	}
}

// mergeMembers folds b's members into a (same window/base/perm assumed),
// reporting whether the union was representable. Bitmaps always union;
// ranges union only when overlapping or adjacent. bExempt is
// m.exemptGroups(b), which a mirrored fill computes once for all sets.
func (m *MixTLB) mergeMembers(a, b *payload, bExempt uint32) bool {
	if m.cfg.Encoding == Bitmap {
		merged := a.bitmap | b.bitmap
		a.dgroups = m.exemptGroups(a) & bExempt & byteGroups(merged)
		a.bitmap = merged
		return true
	}
	aStart, aEnd := int(a.start), int(a.start)+int(a.length)
	bStart, bEnd := int(b.start), int(b.start)+int(b.length)
	if bStart > aEnd || aStart > bEnd {
		return false
	}
	start, end := min(aStart, bStart), max(aEnd, bEnd)
	a.dgroups = m.exemptGroups(a) & bExempt & rangeGroups(start, end-start)
	a.start, a.length = uint16(start), uint16(end-start)
	return true
}

// exemptGroups is the set of slot groups whose members w knows all dirty:
// groups it marked, groups where it has no members, or every group when
// w is dirty as a whole. Dirty-group knowledge survives a merge only
// where both sources agree, so a merged entry's dgroups is the AND of its
// sources' exempt groups, restricted to groups the union has members in.
func (m *MixTLB) exemptGroups(w *payload) uint32 {
	if w.dirty {
		return ^uint32(0)
	}
	return w.dgroups | ^w.memberGroups(m.cfg.Encoding)
}
