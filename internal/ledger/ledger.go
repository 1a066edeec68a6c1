// Package ledger follows a single MMU's translation cycles one access at a
// time. For each translation it keeps a bounded trail of merged charge
// steps: probe cycles per hierarchy level, victim-level cache probes, walk
// cycles (split by whether paging-structure caches shortened the walk),
// dirty-bit assists, memo replays and chaos-retry re-translations. An
// optional top-K tail flight recorder keeps the slowest translations with
// their trails.
//
// The per-category cycle book is not kept here: it lives in the MMU,
// which charges every cycle exactly once (mmu.MMU.Attribution). The ledger
// observes the same charges per access. Audit closes the loop: the closed
// accesses' totals must sum to the MMU's Stats.Cycles, so a cycle charged
// outside a translation is a test failure, not silent drift. The ledger is
// schedule-deterministic (state is per-MMU, mutated only on that MMU's own
// translation path) and allocation-free on the hot path: all per-access
// state lives in fixed arrays sized at construction.
package ledger

import (
	"fmt"
	"strings"

	"mixtlb/internal/addr"
)

// Category is one destination for attributed cycles. Every cycle the MMU
// charges lands in exactly one category.
type Category uint8

const (
	// L1Probe is the first hierarchy level's probe latency, charged on
	// every non-memoized access.
	L1Probe Category = iota
	// L2Probe is the second level's probe latency.
	L2Probe
	// DeepProbe folds probe latency of SRAM levels beyond the second.
	DeepProbe
	// ExtraProbe is the added cost of probe rounds beyond the first
	// within one level (hash-rehash re-probes, predictor second rounds).
	ExtraProbe
	// VictimProbe is data-cache access time spent probing a
	// cache-resident victim level (Victima-style designs).
	VictimProbe
	// WalkFull is page-table-walk PTE reference time on walks the
	// paging-structure caches did not shorten (or designs without PWC).
	WalkFull
	// WalkPWC is walk PTE reference time on walks a PWC prefix hit
	// shortened — only the issued (unskipped) references cost cycles.
	WalkPWC
	// WalkContig is walk PTE reference time on walks whose leaf carried
	// the ISA's hardware contiguity encoding (an SVNAPOT range or an
	// ARM64 contiguous-hint block). The encoding changes what the fill
	// learns, not how many PTEs the walk reads, so these cycles are
	// walk cost like WalkFull/WalkPWC — attributed separately so
	// breakdowns on non-x86 descriptors show how much walk time the
	// architectural contiguity covers. Never charged on descriptors
	// without an encoding, including the default x86-64.
	WalkContig
	// DirtyAssist is the exposed latency of injected PTE dirty-bit
	// micro-ops (zero cycles under the default latency model, but the
	// events are still counted).
	DirtyAssist
	// MemoReplay is the replayed charge of consecutive same-page hits
	// served from the MMU's first-level memo without re-probing.
	MemoReplay
	// ChaosRetry absorbs every cycle of oracle-triggered re-translations:
	// when fault injection corrupts a result and the oracle rejects it,
	// the retry's probe and walk cycles are the cost of the fault, not of
	// the design's steady state.
	ChaosRetry

	// NumCategories sizes per-category arrays.
	NumCategories
)

var categoryNames = [NumCategories]string{
	"l1-probe", "l2-probe", "deep-probe", "extra-probe", "victim-probe",
	"walk-full", "walk-pwc", "walk-contig", "dirty-assist", "memo-replay",
	"chaos-retry",
}

// String names the category as used in tables and narrations.
func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// Categories lists every category in declaration order.
func Categories() [NumCategories]Category {
	var out [NumCategories]Category
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Entry is one category's accumulated books.
type Entry struct {
	Cycles uint64 // attributed cycles
	Events uint64 // charge sites hit (walks, probes, replays, ...)
}

// MaxTrail bounds the per-translation step trail. A worst-case access is
// maxOracleRetries+1 rounds through a deep hierarchy (probe per level,
// extra probes, a victim probe, a walk, a dirty assist); 40 covers that
// with slack, and overflow merges into the last step rather than growing.
const MaxTrail = 40

// Step is one merged charge along a single translation's trail: which
// category, at which hierarchy level (-1 when not a probe), how many
// cycles, over how many charge events.
type Step struct {
	Cat    Category
	Level  int8
	Cycles uint64
	Events uint32
}

// Access describes one translation as the ledger closes it.
type Access struct {
	VA       uint64
	Size     addr.PageSize
	HitLevel int8 // -1 = walked or faulted
	Faulted  bool
	WalkRefs uint16 // PTE references the translation's walks issued
	Retries  uint8  // oracle-triggered re-translations
}

// Ledger follows one MMU's translations. Not safe for concurrent use —
// like the MMU it observes, it belongs to a single simulation goroutine.
type Ledger struct {
	// closed sums the cycles of every access closed since Reset; Audit
	// compares it with the MMU's total.
	closed uint64
	seq    uint64 // completed accesses (deterministic tie-break id)

	// Per-access scratch, reset by Begin and harvested by End.
	inAccess bool
	cycles   uint64 // cycles charged to the in-flight access
	trail    [MaxTrail]Step
	trailLen int

	tail *Tail // optional top-K slowest-translation recorder
}

// New returns a ledger; tailK > 0 additionally arms a top-K tail flight
// recorder (clamped to MaxTailK).
func New(tailK int) *Ledger {
	l := &Ledger{}
	if tailK > 0 {
		l.tail = newTail(tailK)
	}
	return l
}

// Reset clears the totals (and the tail recorder), separating warm-up
// from measurement exactly as MMU.ResetStats does.
func (l *Ledger) Reset() {
	tail := l.tail
	*l = Ledger{tail: tail}
	if tail != nil {
		tail.reset()
	}
}

// Begin opens one translation's trail. The MMU calls it once per access
// (memoized replays included) before any charge.
func (l *Ledger) Begin() {
	l.inAccess = true
	l.cycles = 0
	l.trailLen = 0
}

// Step records one charge of the in-flight translation at hierarchy level
// level (-1 when not a probe). Consecutive charges of the same category
// and level merge (per-PTE walk charges, probe rounds) so trails stay
// short and bounded. A charge outside Begin/End is not recorded, which
// Audit then reports as a leak.
func (l *Ledger) Step(c Category, level int8, cycles uint64) {
	if !l.inAccess {
		return
	}
	l.cycles += cycles
	n := l.trailLen
	if n > 0 && (n == MaxTrail || l.trail[n-1].Cat == c && l.trail[n-1].Level == level) {
		l.trail[n-1].Cycles += cycles
		l.trail[n-1].Events++
		return
	}
	l.trail[n] = Step{Cat: c, Level: level, Cycles: cycles, Events: 1}
	l.trailLen++
}

// End closes the in-flight translation, adding its cycles to the audited
// total and feeding the tail recorder when one is armed.
func (l *Ledger) End(a Access) {
	if !l.inAccess {
		return
	}
	l.inAccess = false
	l.closed += l.cycles
	seq := l.seq
	l.seq++
	if l.tail != nil {
		l.tail.offer(l, a, seq)
	}
}

// Total returns the cycles of every translation closed since Reset.
func (l *Ledger) Total() uint64 { return l.closed }

// Accesses returns how many translations have closed their books.
func (l *Ledger) Accesses() uint64 { return l.seq }

// Trail returns the last completed translation's step trail. The slice
// aliases the ledger's scratch and is valid until the next translation.
func (l *Ledger) Trail() []Step { return l.trail[:l.trailLen] }

// ConservationError reports the closed translations' cycles diverging
// from the MMU's total — a cycle charged outside a translation (leak > 0)
// or a translation whose trail saw cycles the MMU never counted
// (leak < 0).
type ConservationError struct {
	Attributed uint64
	Total      uint64
}

func (e *ConservationError) Error() string {
	return fmt.Sprintf("ledger: closed translations carry %d cycles but the MMU charged %d (leak %d)",
		e.Attributed, e.Total, int64(e.Total)-int64(e.Attributed))
}

// Audit asserts exact conservation: the closed translations' cycles equal
// total (the MMU's Stats.Cycles over the same interval). Nil-safe: an
// absent ledger audits clean.
func (l *Ledger) Audit(total uint64) error {
	if l == nil {
		return nil
	}
	if l.closed != total {
		return &ConservationError{Attributed: l.closed, Total: total}
	}
	return nil
}

// TrailString renders a step trail compactly: "L1:1 L2:7 walk-full:40x4"
// (cycles, and xN when a step merged N charges).
func TrailString(steps []Step) string {
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteByte(' ')
		}
		if s.Level >= 0 {
			fmt.Fprintf(&b, "L%d:%d", s.Level+1, s.Cycles)
		} else {
			fmt.Fprintf(&b, "%s:%d", s.Cat, s.Cycles)
		}
		if s.Events > 1 {
			fmt.Fprintf(&b, "x%d", s.Events)
		}
	}
	return b.String()
}
