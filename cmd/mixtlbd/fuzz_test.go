package main

import (
	"bytes"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/experiments"
	"mixtlb/internal/isa"
	"mixtlb/internal/mmu"
	"mixtlb/internal/telemetry"
	"mixtlb/internal/workload"
)

// FuzzDecodeJob feeds arbitrary POST /jobs bodies to the daemon's
// decoder. It must never panic; a rejection must be a bad_spec or
// over_budget *specError; and an accepted body must yield a Scale a cell
// can build: a known experiment, ISA, workloads and designs, memory sizes
// within the ceiling, and refs within the budget.
func FuzzDecodeJob(f *testing.F) {
	const maxRefs = 1_000_000
	s := newServer(Config{DataDir: f.TempDir(), MaxRefs: maxRefs},
		telemetry.NewRegistry(), telemetry.NewTracer(0), instantStub)
	f.Cleanup(s.Drain)
	for _, seed := range []string{
		`{"experiment":"fig12","quick":true}`,
		`{"experiment":"hierarchy","quick":true,"designs":["split","mix"],"refs":20000,"isa":"sv39"}`,
		`{"experiment":"fig12","quick":true,"mem_gb":17179869184}`,
		`{"experiment":"fig12","quick":true} garbage`,
	} {
		f.Add([]byte(seed))
	}
	catalog := map[string]bool{}
	for _, w := range workload.Catalog() {
		catalog[w.Name] = true
	}
	reg := mmu.DefaultRegistry()
	f.Fuzz(func(t *testing.T, body []byte) {
		e, scale, serr := s.decodeJob(bytes.NewReader(body))
		if serr != nil {
			if serr.reason != "bad_spec" && serr.reason != "over_budget" {
				t.Fatalf("rejected with reason %q: %v", serr.reason, serr)
			}
			return
		}
		if _, err := experiments.ByName(e.Name); err != nil {
			t.Fatalf("accepted unknown experiment: %v", err)
		}
		for _, b := range []uint64{scale.MemoryBytes, scale.FootprintBytes} {
			if b == 0 || b%addr.Size4K != 0 || b > experiments.MaxMemoryGB<<30 {
				t.Fatalf("accepted size %d bytes", b)
			}
		}
		if refs := scale.WarmupRefs + scale.MeasureRefs; refs < scale.MeasureRefs || refs > maxRefs {
			t.Fatalf("accepted %d+%d refs over a %d budget", scale.WarmupRefs, scale.MeasureRefs, maxRefs)
		}
		if _, err := isa.Lookup(scale.ISA); err != nil {
			t.Fatalf("accepted ISA: %v", err)
		}
		for _, w := range scale.Workloads {
			if !catalog[w] {
				t.Fatalf("accepted unknown workload %q", w)
			}
		}
		for _, d := range scale.Designs {
			if _, ok := reg.Lookup(d); !ok {
				t.Fatalf("accepted unknown design %q", d)
			}
		}
	})
}
