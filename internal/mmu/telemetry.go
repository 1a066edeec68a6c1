package mmu

import (
	"fmt"

	"mixtlb/internal/ledger"
	"mixtlb/internal/telemetry"
	"mixtlb/internal/tlb"
)

// mmuTel holds the MMU's pre-resolved telemetry handles. Resolving them
// once at attach time keeps the hot path down to a single nil check per
// site; a nil *mmuTel is the (default) disabled state.
type mmuTel struct {
	col        *telemetry.Collector
	walkDepth  *telemetry.Histogram
	walkCycles *telemetry.Histogram
}

// walkDepthBounds covers native 4-level walks through nested (2D)
// virtualized walks (up to 24 PTE references).
var walkDepthBounds = []uint64{1, 2, 3, 4, 6, 8, 12, 16, 24}

// walkCycleBounds spans an all-L1D walk through a DRAM-bound one.
var walkCycleBounds = []uint64{4, 8, 16, 32, 64, 128, 256, 512, 1024}

// occupancyBounds buckets per-set valid-entry counts.
var occupancyBounds = []uint64{0, 1, 2, 4, 8, 16, 32}

// levelLabel names hierarchy level i in metric labels: "L1", "L2", ...
// Matching the historical two-level label values keeps existing dashboards
// and the telemetry goldens stable.
func levelLabel(i int) string { return fmt.Sprintf("L%d", i+1) }

// AttachTelemetry enables (or, with nil, disables) telemetry for this MMU
// and forwards the collector to any TLB level that is itself
// instrumentable. Metrics carry an mmu label so multi-core systems keep
// per-MMU series.
func (m *MMU) AttachTelemetry(c *telemetry.Collector) {
	for i := range m.levels {
		if ins, ok := m.levels[i].tlb.(telemetry.Instrumentable); ok {
			ins.AttachTelemetry(c)
		}
	}
	if c == nil {
		m.tel = nil
		return
	}
	mc := c.With("mmu", m.cfg.Name)
	m.tel = &mmuTel{
		col:        mc,
		walkDepth:  mc.Histogram("mmu_walk_depth", walkDepthBounds),
		walkCycles: mc.Histogram("mmu_walk_cycles", walkCycleBounds),
	}
}

// FlushTelemetry exports the MMU's accumulated Stats counters, the
// book's memo-replay count, and a per-set occupancy snapshot of every
// hierarchy level into the registry. Call it once, after measurement; it
// reads Stats and the book but never writes simulator state, so results
// are identical with telemetry on or off. Only the walk-depth and
// walk-cycle histograms are recorded in line: a distribution cannot be
// rebuilt from a sum.
func (m *MMU) FlushTelemetry() {
	if m.tel == nil {
		return
	}
	mc := m.tel.col
	s := m.Stats()
	mc.Counter("mmu_accesses_total").Add(s.Accesses)
	mc.Counter("mmu_memo_hits_total").Add(m.book[0][ledger.MemoReplay].Events)
	mc.Counter("mmu_walks_total").Add(s.Walks)
	mc.Counter("mmu_faults_total").Add(s.Faults)
	mc.Counter("mmu_cycles_total").Add(s.Cycles)
	mc.Counter("mmu_walk_cycles_total").Add(s.WalkCycles)
	mc.Counter("mmu_walk_refs_total").Add(s.WalkRefs)
	mc.Counter("mmu_dirty_micro_ops_total").Add(s.DirtyMicroOps)
	mc.Counter("mmu_invalidations_total").Add(s.Invalidations)
	mc.Counter("mmu_flushes_total").Add(s.Flushes)
	// Always emit at least the L1/L2 series (zero-valued when a design has
	// fewer levels) so exported metric shapes stay stable across designs.
	nlv := len(m.levels)
	if nlv < 2 {
		nlv = 2
	}
	for i := 0; i < nlv; i++ {
		var lv hierLevel
		if i < len(m.levels) {
			lv = m.levels[i]
		}
		label := levelLabel(i)
		mc.Counter("mmu_hits_total", "level", label).Add(lv.hits)
		mc.Counter("mmu_probe_rounds_total", "level", label).Add(uint64(lv.lookup.Probes))
		mc.Counter("mmu_fill_entries_total", "level", label).Add(uint64(lv.fill.EntriesWritten))
	}
	if m.pwc != nil {
		mc.Counter("mmu_pwc_events_total", "kind", "hit").Add(s.PWCHits)
		mc.Counter("mmu_pwc_events_total", "kind", "miss").Add(s.PWCMisses)
		mc.Counter("mmu_pwc_skipped_refs_total").Add(s.PWCSkippedRefs)
	}
	if m.levels[len(m.levels)-1].demoter != nil {
		// Victim-level series exist only for designs that have one, like
		// the PWC series — victimless dumps stay byte-identical.
		mc.Counter("mmu_victim_events_total", "kind", "demotion").Add(s.Demotions)
		mc.Counter("mmu_victim_events_total", "kind", "drop").Add(s.DemotionDrops)
		mc.Counter("mmu_victim_events_total", "kind", "eviction").Add(s.VictimEvictions)
		mc.Counter("mmu_victim_probes_total").Add(s.VictimProbes)
		mc.Counter("mmu_victim_probe_cycles_total").Add(s.VictimProbeCycles)
	}
	if s.ECC.ParityDetected+s.ECC.SilentCorruptions+s.ECC.Scrubbed > 0 {
		mc.Counter("mmu_ecc_events_total", "kind", "parity_detected").Add(s.ECC.ParityDetected)
		mc.Counter("mmu_ecc_events_total", "kind", "silent").Add(s.ECC.SilentCorruptions)
		mc.Counter("mmu_ecc_events_total", "kind", "scrubbed").Add(s.ECC.Scrubbed)
	}
	for i := range m.levels {
		snapshotOccupancy(mc, levelLabel(i), m.levels[i].tlb)
	}
	for i := range m.levels {
		if f, ok := m.levels[i].tlb.(interface{ FlushTelemetry() }); ok {
			f.FlushTelemetry()
		}
	}
}

// snapshotOccupancy records each set's valid-entry count for TLBs that
// can report it.
func snapshotOccupancy(mc *telemetry.Collector, level string, t tlb.TLB) {
	or, ok := t.(tlb.OccupancyReporter)
	if !ok {
		return
	}
	h := mc.Histogram("tlb_set_occupancy", occupancyBounds, "level", level)
	for _, n := range or.OccupancyBySet() {
		h.Observe(uint64(n))
	}
}
