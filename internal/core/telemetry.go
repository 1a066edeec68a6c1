package core

import "mixtlb/internal/telemetry"

// mixTel holds the MIX TLB's pre-resolved telemetry handles (nil when
// disabled, the default).
type mixTel struct {
	col           *telemetry.Collector
	bundleMembers *telemetry.Histogram
}

// bundleMemberBounds buckets coalescing run lengths up to the range
// encoding's 256-member ceiling.
var bundleMemberBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// AttachTelemetry implements telemetry.Instrumentable. Metrics carry a
// tlb label so L1 and L2 MIX instances keep separate series.
func (m *MixTLB) AttachTelemetry(c *telemetry.Collector) {
	if c == nil {
		m.tel = nil
		return
	}
	tc := c.With("tlb", m.cfg.Name)
	m.tel = &mixTel{
		col:           tc,
		bundleMembers: tc.Histogram("tlb_coalesce_members", bundleMemberBounds),
	}
}

// FlushTelemetry exports the accumulated MIX counters into the registry;
// call once after measurement (the MMU forwards its own flush here).
func (m *MixTLB) FlushTelemetry() {
	if m.tel == nil {
		return
	}
	tc := m.tel.col
	s := m.stats
	tc.Counter("tlb_mirror_writes_total").Add(s.MirrorWrites)
	tc.Counter("tlb_coalesce_merges_total").Add(s.CoalesceMerges)
	tc.Counter("tlb_dups_eliminated_total").Add(s.DupsEliminated)
	tc.Counter("tlb_bundles_filled_total").Add(s.BundlesFilled)
	tc.Counter("tlb_small_fills_total").Add(s.SmallFills)
	tc.Counter("tlb_holes_represented_total").Add(s.HolesRepresent)
	tc.Counter("tlb_range_truncations_total").Add(s.RangeTruncation)
	tc.Counter("tlb_corruption_scrubs_total").Add(s.CorruptionScrubs)
}

// OccupancyBySet implements tlb.OccupancyReporter.
func (m *MixTLB) OccupancyBySet() []int {
	occ := make([]int, m.cfg.Sets)
	for i, t := range m.tags {
		if t&tagValid != 0 {
			occ[i/m.cfg.Ways]++
		}
	}
	return occ
}
