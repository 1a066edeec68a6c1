package smp

import "mixtlb/internal/telemetry"

// smpTel holds the system's pre-resolved telemetry handles (nil when
// disabled, the default).
type smpTel struct {
	col    *telemetry.Collector
	fanout *telemetry.Histogram
}

// fanoutBounds buckets IPIs sent per shootdown broadcast (cores plus any
// chaos-driven retries).
var fanoutBounds = []uint64{1, 2, 4, 8, 16, 32, 64}

// AttachTelemetry implements telemetry.Instrumentable, forwarding the
// collector to every core's MMU. Each core's MMU has its own name
// ("<design>.core<i>"), so every core exports its own series.
func (s *System) AttachTelemetry(c *telemetry.Collector) {
	for _, m := range s.cores {
		m.AttachTelemetry(c)
	}
	if c == nil {
		s.tel = nil
		return
	}
	s.tel = &smpTel{
		col:    c,
		fanout: c.Histogram("smp_shootdown_fanout_ipis", fanoutBounds),
	}
}

// FlushTelemetry exports the shootdown counters and forwards the flush to
// every core. Call once after measurement.
func (s *System) FlushTelemetry() {
	for _, m := range s.cores {
		m.FlushTelemetry()
	}
	if s.tel == nil {
		return
	}
	c := s.tel.col
	st := s.stats
	c.Counter("smp_shootdowns_total").Add(st.Shootdowns)
	c.Counter("smp_ipis_total").Add(st.IPIs)
	c.Counter("smp_ipis_lost_total").Add(st.IPIsLost)
	c.Counter("smp_ipi_retries_total").Add(st.IPIRetries)
	c.Counter("smp_ipis_delayed_total").Add(st.IPIsDelayed)
	c.Counter("smp_forced_deliveries_total").Add(st.ForcedDeliveries)
}
