package mmu

import "mixtlb/internal/ledger"

// AttachLedger enables (or, with nil, disables) per-access attribution
// for this MMU. The ledger records each translation's charge trail —
// probes per level, extra probe rounds, victim-level cache probes, walks
// (full, PWC-shortened and contiguity-encoded), dirty-bit assists, memo
// replays, oracle-retry re-translations — and feeds its tail recorder. It
// never influences simulation results: tables are byte-identical with a
// ledger attached or not. Like telemetry, the disabled state costs a
// single nil-check branch per charge.
//
// The ledger belongs to this MMU's simulation goroutine; never share one
// ledger across MMUs (closed totals would interleave and Audit against
// any single MMU's Stats would fail).
func (m *MMU) AttachLedger(l *ledger.Ledger) {
	m.led = l
}

// Ledger returns the attached ledger, nil when attribution is disabled.
func (m *MMU) Ledger() *ledger.Ledger { return m.led }

// AuditLedger checks the conservation invariant — the attached ledger's
// closed translations sum exactly to Stats.Cycles — returning a
// *ledger.ConservationError on any leak. With no ledger attached it
// reports clean.
func (m *MMU) AuditLedger() error {
	return m.led.Audit(m.Stats().Cycles)
}

// Attribution returns the per-category cycle book since the last
// ResetStats. Charges made during oracle retries are folded into
// chaos-retry: their cycles are the cost of the injected fault, not of
// the design. The entries sum to Stats.Cycles by construction.
func (m *MMU) Attribution() [ledger.NumCategories]ledger.Entry {
	out := m.book[0]
	for _, e := range m.book[1] {
		out[ledger.ChaosRetry].Cycles += e.Cycles
		out[ledger.ChaosRetry].Events += e.Events
	}
	return out
}
