package mmu

import (
	"fmt"
	"strings"
	"testing"

	"mixtlb/internal/ledger"
	"mixtlb/internal/telemetry"
)

// TestTranslateZeroAllocTelemetryDisabled pins the disabled-telemetry
// translate loop at zero allocations: the nil-sink fast path must cost one
// predictable branch per site and nothing else. check.sh runs this test by
// name as the observability regression guard.
func TestTranslateZeroAllocTelemetryDisabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const pages4k = 1024
	for _, d := range allTestDesigns() {
		t.Run(d, func(t *testing.T) {
			_, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0x7e1+uint64(len(d)), mapped, 4096)
			m := buildDesign(t, d, pages4k)
			// Attach then detach: the detached state must be as cheap as
			// never having attached.
			m.AttachTelemetry(telemetry.NewCollector(telemetry.NewRegistry(), nil))
			m.AttachTelemetry(nil)
			for _, r := range reqs {
				m.Translate(r)
			}
			i := 0
			avg := testing.AllocsPerRun(20, func() {
				for j := 0; j < 256; j++ {
					m.Translate(reqs[i%len(reqs)])
					i++
				}
			})
			if avg != 0 {
				t.Errorf("detached Translate allocates %.2f times per 256 accesses", avg)
			}
		})
	}
}

// TestTranslateZeroAllocTelemetryEnabled pins the enabled path too: the
// in-line instrumentation is atomic counters and fixed-bucket histograms,
// so attaching a collector must not add a single steady-state allocation.
func TestTranslateZeroAllocTelemetryEnabled(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const pages4k = 1024
	for _, d := range allTestDesigns() {
		t.Run(d, func(t *testing.T) {
			_, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0x7e2+uint64(len(d)), mapped, 4096)
			m := buildDesign(t, d, pages4k)
			m.AttachTelemetry(telemetry.NewCollector(telemetry.NewRegistry(), nil))
			for _, r := range reqs {
				m.Translate(r)
			}
			i := 0
			avg := testing.AllocsPerRun(20, func() {
				for j := 0; j < 256; j++ {
					m.Translate(reqs[i%len(reqs)])
					i++
				}
			})
			if avg != 0 {
				t.Errorf("instrumented Translate allocates %.2f times per 256 accesses", avg)
			}
		})
	}
}

// TestTelemetryCountersAccumulate checks that an instrumented MMU records
// its walk histograms in line and exports its Stats- and book-derived
// families at FlushTelemetry.
func TestTelemetryCountersAccumulate(t *testing.T) {
	const pages4k = 512
	_, mapped := buildRefEnv(t, pages4k)
	reqs := randomRequests(0xacc, mapped, 2048)
	m := buildDesign(t, DesignMix, pages4k)
	reg := telemetry.NewRegistry()
	m.AttachTelemetry(telemetry.NewCollector(reg, nil))
	for _, r := range reqs {
		m.Translate(r)
	}
	m.FlushTelemetry()
	dump := reg.PrometheusString()
	for _, want := range []string{"mmu_walks_total", "mmu_memo_hits_total", "mmu_walk_depth", "mmu_accesses_total", "tlb_set_occupancy"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing family %q", want)
		}
	}
	st := m.Stats()
	if want := fmt.Sprintf(`mmu_walks_total{mmu=%q} %d`, m.cfg.Name, st.Walks); !strings.Contains(dump, want) {
		t.Errorf("dump lacks %s", want)
	}
	if want := fmt.Sprintf(`mmu_memo_hits_total{mmu=%q} %d`, m.cfg.Name, m.Attribution()[ledger.MemoReplay].Events); !strings.Contains(dump, want) {
		t.Errorf("dump lacks %s", want)
	}
	if strings.Contains(dump, `mmu_accesses_total{mmu="`) {
		// Collector had no exp/cell scope here; just sanity-check the
		// label set the MMU adds for itself.
		if !strings.Contains(dump, `mmu="`+m.cfg.Name+`"`) {
			t.Errorf("dump missing mmu name label:\n%s", dump)
		}
	}
}

// TestTelemetryDetachStopsRecording checks AttachTelemetry(nil) really
// detaches: no counter moves afterward.
func TestTelemetryDetachStopsRecording(t *testing.T) {
	const pages4k = 512
	_, mapped := buildRefEnv(t, pages4k)
	reqs := randomRequests(0xde7ac, mapped, 1024)
	m := buildDesign(t, DesignSplit, pages4k)
	reg := telemetry.NewRegistry()
	m.AttachTelemetry(telemetry.NewCollector(reg, nil))
	m.AttachTelemetry(nil)
	for _, r := range reqs {
		m.Translate(r)
	}
	// Attaching pre-creates series at zero; detaching must keep every one
	// of them at zero no matter how much the MMU translates afterward.
	for _, line := range strings.Split(reg.PrometheusString(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasSuffix(line, " 0") {
			t.Errorf("detached MMU still recorded: %s", line)
		}
	}
}
