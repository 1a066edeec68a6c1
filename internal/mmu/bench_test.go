package mmu

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/core"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

// superpageEnv builds a THS-mapped footprint for the microbenchmarks.
type superpageEnv struct {
	as   *osmm.AddressSpace
	base addr.V
	fp   uint64
}

func newSuperpageEnv(b *testing.B) *superpageEnv {
	b.Helper()
	phys := physmem.NewBuddy(1 << 30)
	as, err := osmm.New(phys, osmm.Config{Policy: osmm.THS})
	if err != nil {
		b.Fatal(err)
	}
	const fp = 512 << 20
	base, err := as.Mmap(fp)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := as.Populate(base, fp); err != nil {
		b.Fatal(err)
	}
	return &superpageEnv{as: as, base: base, fp: fp}
}

// benchDesign runs a zipf stream through one MMU design, reporting
// per-translation simulator throughput and the design's miss ratio.
func benchDesign(b *testing.B, d string) {
	env := newSuperpageEnv(b)
	m := tlb.Must(DefaultRegistry().Build(d, env.as.PageTable(), env.as.PageTable(),
		cachesim.DefaultHierarchy(), env.as.HandleFault))
	stream := workload.NewZipf(env.base, env.fp, simrand.New(1), 0.9, 0.2, 0xbe)
	for i := 0; i < 50_000; i++ { // warm
		ref := stream.Next()
		m.Translate(tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC})
	}
	m.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := stream.Next()
		m.Translate(tlb.Request{VA: ref.VA, Write: ref.Write, PC: ref.PC})
	}
	b.StopTimer()
	b.ReportMetric(m.Stats().MissRatio(), "missratio")
	b.ReportMetric(m.Stats().CyclesPerAccess(), "cyc/translation")
}

func BenchmarkTranslateSplit(b *testing.B) { benchDesign(b, DesignSplit) }
func BenchmarkTranslateMix(b *testing.B)   { benchDesign(b, DesignMix) }

// BenchmarkAlignmentRestriction compares coalescing with and without the
// K-aligned window restriction (Sec 4.1's simplification).
func BenchmarkAlignmentRestriction(b *testing.B) {
	for _, restricted := range []bool{true, false} {
		name := "aligned"
		if !restricted {
			name = "unaligned"
		}
		b.Run(name, func(b *testing.B) {
			env := newSuperpageEnv(b)
			cfg := core.L1Config()
			cfg.NoAlignmentRestriction = !restricted
			m := tlb.Must(New(Config{Name: cfg.Name, Levels: L(tlb.Must(core.New(cfg)))},
				env.as.PageTable(), cachesim.DefaultHierarchy(), env.as.HandleFault))
			stream := workload.NewZipf(env.base, env.fp, simrand.New(1), 0.9, 0, 0xaa)
			for i := 0; i < 50_000; i++ {
				ref := stream.Next()
				m.Translate(tlb.Request{VA: ref.VA, PC: ref.PC})
			}
			m.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref := stream.Next()
				m.Translate(tlb.Request{VA: ref.VA, PC: ref.PC})
			}
			b.StopTimer()
			b.ReportMetric(m.Stats().MissRatio(), "missratio")
		})
	}
}

// BenchmarkFillStrategy compares the paper's mirror-all-sets prefetch
// strategy against filling only the probed set (Sec 4.2).
func BenchmarkFillStrategy(b *testing.B) {
	for _, probedOnly := range []bool{false, true} {
		name := "mirror-all-sets"
		if probedOnly {
			name = "probed-set-only"
		}
		b.Run(name, func(b *testing.B) {
			env := newSuperpageEnv(b)
			cfg := core.L1Config()
			cfg.MirrorProbedSetOnly = probedOnly
			m := tlb.Must(New(Config{Name: cfg.Name, Levels: L(tlb.Must(core.New(cfg)))},
				env.as.PageTable(), cachesim.DefaultHierarchy(), env.as.HandleFault))
			stream := workload.NewZipf(env.base, env.fp, simrand.New(1), 0.9, 0, 0xab)
			for i := 0; i < 50_000; i++ {
				ref := stream.Next()
				m.Translate(tlb.Request{VA: ref.VA, PC: ref.PC})
			}
			m.ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ref := stream.Next()
				m.Translate(tlb.Request{VA: ref.VA, PC: ref.PC})
			}
			b.StopTimer()
			b.ReportMetric(m.Stats().MissRatio(), "missratio")
		})
	}
}
