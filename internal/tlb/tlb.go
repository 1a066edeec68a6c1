// Package tlb defines the translation-lookaside-buffer abstraction shared
// by every design in this repository and implements the baselines the
// paper compares MIX TLBs against (Sec 5): conventional single-size
// set-associative TLBs, commercial-style split TLBs, hash-rehash TLBs,
// skew-associative TLBs, page-size predictors, COLT coalescing TLBs, and
// an unrealizable ideal TLB.
//
// The paper's own design, the MIX TLB, lives in internal/core and
// implements the same interface.
package tlb

import (
	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
)

// Request is one translation request presented to a TLB.
type Request struct {
	VA    addr.V
	Write bool
	// PC identifies the requesting instruction; page-size predictors
	// (Sec 5.1) index on it.
	PC uint64
}

// Cost tallies the micro-architectural events of a lookup or fill. The
// energy model prices these; the latency model uses Probes.
type Cost struct {
	// Probes counts sequential probe rounds. A conventional lookup is 1;
	// hash-rehash lookups take one round per page size tried.
	Probes int
	// WaysRead counts tag+data entry reads (energy).
	WaysRead int
	// SetsFilled counts sets written during fill; MIX mirroring writes
	// many (Sec 4.5).
	SetsFilled int
	// EntriesWritten counts entry writes during fill.
	EntriesWritten int
	// PredictorReads and PredictorWrites count page-size predictor
	// accesses.
	PredictorReads  int
	PredictorWrites int
}

// Add accumulates d into c.
func (c *Cost) Add(d Cost) {
	c.Probes += d.Probes
	c.WaysRead += d.WaysRead
	c.SetsFilled += d.SetsFilled
	c.EntriesWritten += d.EntriesWritten
	c.PredictorReads += d.PredictorReads
	c.PredictorWrites += d.PredictorWrites
}

// Result is the outcome of a lookup.
type Result struct {
	Hit bool
	// T is the matching translation (page-aligned), valid when Hit. For
	// coalesced entries it describes the specific member page covering
	// the request.
	T pagetable.Translation
	// Dirty is the TLB entry's dirty bit. When false, a store through
	// this translation must inject a PTE dirty-bit update micro-op
	// (Sec 4.4).
	Dirty bool
	Cost  Cost
}

// TLB is the interface every design implements.
type TLB interface {
	// Name identifies the design for reports.
	Name() string
	// Lookup probes for req.VA.
	Lookup(req Request) Result
	// Fill inserts the walk's translation after a miss. Implementations
	// that coalesce may consume walk.Line, the PTE cache line fetched by
	// the walker. Translations whose accessed bit is unset must not be
	// coalesced opportunistically (x86 rule, Sec 4.4) — the walker sets
	// the bit on the demanded translation itself.
	Fill(req Request, walk pagetable.WalkResult) Cost
	// MarkDirty records that a store succeeded through va's entry, where
	// the design can do so precisely. It reports whether future stores
	// to va may skip the PTE update micro-op.
	MarkDirty(va addr.V) bool
	// Invalidate removes (or trims, for coalesced designs) entries
	// translating va at the given page size, returning how many entries
	// were touched.
	Invalidate(va addr.V, size addr.PageSize) int
	// Flush empties the TLB (context switch without PCIDs).
	Flush()
	// Entries reports total entry capacity, used for area-equivalent
	// comparisons.
	Entries() int
}

// DirtyRefresher is implemented by coalescing TLBs that can refresh an
// entry's dirty state from the PTE cache line the dirty-bit micro-op just
// accessed: the assist that writes one member's D bit reads the whole
// 64-byte line, so the D bits of up to 8 neighbouring members come for
// free. TLBs without the method get MarkDirty instead.
type DirtyRefresher interface {
	RefreshDirty(va addr.V, line []pagetable.Translation) bool
}

// BundleProvider is implemented by coalescing TLBs that can expand the
// entry covering va into its member translations — the information an L1
// refill copies out of a hit L2 entry. Returns nil when va misses.
type BundleProvider interface {
	Members(va addr.V) []pagetable.Translation
}

// Promoter is implemented by TLBs that distinguish a hierarchy promotion
// (an L1 refill served by an L2 hit) from a page-walk fill. A promotion
// fills only the set the missing request probed — designs that mirror on
// walk fills (MIX) must not re-mirror on every promotion — but may
// coalesce from line, the member translations the L2 entry vouches for.
// TLBs without the method get a plain Fill.
type Promoter interface {
	Promote(req Request, t pagetable.Translation, line []pagetable.Translation) Cost
}

// ReplayConsistent is implemented by TLBs whose Lookup is idempotent for
// an immediately-repeated request: probing the same VA again with no
// intervening fill, invalidation, or dirty transition returns the same
// Result at the same Cost and perturbs no state that other operations
// observe (re-stamping the globally-youngest LRU entry is allowed — it
// preserves relative stamp order). The MMU's last-VPN memo only engages
// when the L1 reports true here; page-size predictors must not implement
// it (their confidence counters advance on every lookup).
type ReplayConsistent interface {
	LookupReplayConsistent() bool
}

// EvictionSink receives a translation displaced from a TLB by a capacity
// replacement (never by Invalidate or Flush — those are removals the
// software asked for, not pressure). dirty is the evicted entry's TLB
// dirty bit, which can be sharper than the translation's own Dirty flag.
type EvictionSink func(t pagetable.Translation, dirty bool)

// EvictionNotifier is implemented by TLBs that can report capacity
// evictions to a sink — the feed of an eviction-driven victim level. The
// sink is called synchronously from Fill/Promote, before the replacement
// lands; passing nil detaches it.
type EvictionNotifier interface {
	SetEvictionSink(EvictionSink)
}

// Demoter is implemented by victim levels fed by demotion rather than
// walk fills. absorbed is false when the level refuses the translation
// (the MMU's demotion-drop counter); evicted counts resident entries the
// absorption displaced in turn.
type Demoter interface {
	Demote(t pagetable.Translation, dirty bool) (absorbed bool, evicted int)
}

// CacheResident marks a level whose storage lives in the data-cache
// hierarchy (Victima-style). The MMU charges its probes as cache
// accesses to the storage lines the last Lookup reports here, instead of
// a fixed SRAM hit latency. The slice is scratch, valid until the next
// Lookup.
type CacheResident interface {
	ProbedLines() []addr.P
}

// ReachReporter is implemented by TLBs that can report how many bytes of
// virtual address space their resident entries translate — the "reach"
// the paper's Fig 1 argument is about. Snapshot-only: experiments read
// it after a run; the simulation itself never does.
type ReachReporter interface {
	ReachBytes() uint64
}

// OccupancyReporter is implemented by TLBs that can report how many valid
// entries each set currently holds — the balance lens telemetry uses to
// see whether mirrored superpage fills crowd out 4KB entries (Sec 4.5).
// The slice is a fresh snapshot; callers may retain it. Telemetry-only:
// simulation statistics never read it.
type OccupancyReporter interface {
	OccupancyBySet() []int
}

// slotData is the payload of the single-translation designs' ways: the
// translation and the entry's TLB dirty bit.
type slotData struct {
	t     pagetable.Translation
	dirty bool
}

// sizeKeyShift places a page size above a page or bundle number in the
// tag key of designs that hold several sizes in one array.
const sizeKeyShift = 61

// sizedKey is the tag key of page (or bundle) number n of size s.
func sizedKey(s addr.PageSize, n uint64) uint64 { return uint64(s)<<sizeKeyShift | n }
