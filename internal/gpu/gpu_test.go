package gpu

import (
	"context"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/smp"
	"mixtlb/internal/workload"
)

func newGPUEnv(t *testing.T, policy osmm.Policy, design string, cores int) (*smp.System, addr.V, uint64) {
	t.Helper()
	phys := physmem.NewBuddy(4 << 30)
	as, err := osmm.New(phys, osmm.Config{Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	const fp = 2 << 30
	base, err := as.Mmap(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Populate(base, fp); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cores, design, as, cachesim.DefaultHierarchy())
	if err != nil {
		t.Fatal(err)
	}
	return sys, base, fp
}

// coreStreams builds one stream per core of sys.
func coreStreams(sys *smp.System, build func(coreID int) workload.Stream) []workload.Stream {
	streams := make([]workload.Stream, len(sys.Cores()))
	for i := range streams {
		streams[i] = build(i)
	}
	return streams
}

func TestRunAllKernelsBothDesigns(t *testing.T) {
	for _, design := range []string{mmu.DesignSplit, mmu.DesignMix} {
		for _, k := range Kernels() {
			sys, base, fp := newGPUEnv(t, osmm.THS, design, 4)
			if err := sys.Run(context.Background(), k.Streams(4, base, fp, 0), 20000); err != nil {
				t.Fatalf("%s/%s: %v", design, k.Name, err)
			}
			st := sys.Aggregate()
			if st.Accesses != 20000 {
				t.Errorf("%s/%s accesses = %d", design, k.Name, st.Accesses)
			}
			if st.L1Hits == 0 {
				t.Errorf("%s/%s: no L1 hits", design, k.Name)
			}
		}
	}
}

func TestMixBeatsSplitOnSuperpageGPU(t *testing.T) {
	// The Fig 14 GPU claim at unit scale: with THS superpages and
	// low-locality traffic, a split design funnels all 2MB translations
	// through its small dedicated 2MB L1 (64MB of reach) while MIX uses
	// its whole L1 for coalesced superpage bundles (hundreds of MB), so
	// MIX spends fewer cycles per translation.
	run := func(design string) float64 {
		sys, base, fp := newGPUEnv(t, osmm.THS, design, 4)
		streams := coreStreams(sys, func(id int) workload.Stream {
			return workload.NewZipf(base, fp/2, simrand.New(uint64(100+id)), 0.99, 0.05, 42)
		})
		if err := sys.Run(context.Background(), streams, 30000); err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		if err := sys.Run(context.Background(), streams, 30000); err != nil {
			t.Fatal(err)
		}
		return sys.Aggregate().CyclesPerAccess()
	}
	split := run(mmu.DesignSplit)
	mix := run(mmu.DesignMix)
	if mix >= split {
		t.Errorf("cycles/access: mix=%v split=%v (want mix < split)", mix, split)
	}
}

func TestCoresShareL2(t *testing.T) {
	sys, base, fp := newGPUEnv(t, osmm.BasePages, mmu.DesignSplit, 2)
	// Core 0 and core 1 run the same stream: core 1's L1 misses should
	// hit in the shared L2 warmed by core 0's walks.
	sameStream := func(id int) workload.Stream {
		return workload.NewSequential(base, fp/64, 4096, false, 1)
	}
	if err := sys.Run(context.Background(), coreStreams(sys, sameStream), 4000); err != nil {
		t.Fatal(err)
	}
	var l2hits uint64
	for _, c := range sys.Cores() {
		l2hits += c.Stats().L2Hits
	}
	if l2hits == 0 {
		t.Error("no cross-core L2 TLB sharing observed")
	}
}

func TestStatsAggregation(t *testing.T) {
	sys, base, fp := newGPUEnv(t, osmm.BasePages, mmu.DesignMix, 3)
	streams := coreStreams(sys, func(id int) workload.Stream {
		return workload.NewUniform(base, fp, simrand.New(uint64(id)), 0.5, 7)
	})
	if err := sys.Run(context.Background(), streams, 9999); err != nil {
		t.Fatal(err)
	}
	st := sys.Aggregate()
	if st.Accesses != 9999 {
		t.Errorf("aggregated accesses = %d", st.Accesses)
	}
	var sum uint64
	for _, c := range sys.Cores() {
		sum += c.Stats().Accesses
	}
	if sum != st.Accesses {
		t.Errorf("per-core sum %d != aggregate %d", sum, st.Accesses)
	}
	if st.DirtyMicroOps == 0 {
		t.Error("no dirty micro-ops despite 50% writes")
	}
}

func TestRunWithoutStreamsFails(t *testing.T) {
	sys, _, _ := newGPUEnv(t, osmm.BasePages, mmu.DesignSplit, 2)
	if err := sys.Run(context.Background(), nil, 10); err == nil {
		t.Error("Run without streams succeeded")
	}
}

func TestKernelByName(t *testing.T) {
	if _, err := KernelByName("hotspot"); err != nil {
		t.Error(err)
	}
	if _, err := KernelByName("nope"); err == nil {
		t.Error("unknown kernel accepted")
	}
	if len(Kernels()) < 9 {
		t.Errorf("only %d kernels", len(Kernels()))
	}
}

func TestAllDesignsSupported(t *testing.T) {
	for _, d := range []string{mmu.DesignSplit, mmu.DesignMix, mmu.DesignRehash, mmu.DesignSkew} {
		sys, base, fp := newGPUEnv(t, osmm.THS, d, 2)
		streams := coreStreams(sys, func(id int) workload.Stream {
			return workload.NewSequential(base, fp, 64, false, 3)
		})
		if err := sys.Run(context.Background(), streams, 1000); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
}

func TestUnsupportedDesignErrors(t *testing.T) {
	if _, err := perCoreL1(mmu.DesignIdeal, 0); err == nil {
		t.Fatal("no error for unsupported design")
	}
}
