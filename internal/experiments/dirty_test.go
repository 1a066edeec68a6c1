package experiments

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/gpu"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

// dirtyLeaves returns the VA of every leaf of pt whose D bit is set.
func dirtyLeaves(pt *pagetable.PageTable) map[addr.V]bool {
	out := map[addr.V]bool{}
	pt.ForEach(func(tr pagetable.Translation) bool {
		if tr.Dirty {
			out[tr.VA] = true
		}
		return true
	})
	return out
}

// TestSetupLeavesPTEsClean: no environment's set-up sets a D bit, so
// clearing every D bit (runEnv.clean) restores the post-set-up state
// of the native, guest and nested tables alike. A run's stores dirty
// each of them, and clean undoes it.
func TestSetupLeavesPTEsClean(t *testing.T) {
	cs := q()
	cs.WarmupRefs, cs.MeasureRefs = 5000, 5000
	gups, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	split, err := cs.specs(mmu.DesignSplit)
	if err != nil {
		t.Fatal(err)
	}
	// check asserts that every table is clean after set-up, dirty after
	// a run of stores, and clean again after e.clean.
	check := func(name string, e *runEnv, tables ...*pagetable.PageTable) {
		for i, pt := range tables {
			if d := dirtyLeaves(pt); len(d) != 0 {
				t.Errorf("%s table %d: set-up left %d dirty leaves", name, i, len(d))
			}
		}
		if _, _, _, err := e.measure(context.Background(), cs, gups, e.stream(cs, gups), split[0]); err != nil {
			t.Fatal(err)
		}
		for i, pt := range tables {
			if len(dirtyLeaves(pt)) == 0 {
				t.Errorf("%s table %d: no dirty leaf after a run of stores", name, i)
			}
		}
		e.clean()
		for i, pt := range tables {
			if d := dirtyLeaves(pt); len(d) != 0 {
				t.Errorf("%s table %d: %d dirty leaves after clean", name, i, len(d))
			}
		}
	}
	for _, c := range []struct {
		policy osmm.Policy
		hog    float64
	}{{osmm.BasePages, 0}, {osmm.THS, 0}, {osmm.THS, 0.2}, {osmm.THS, 0.8}, {osmm.Hugetlbfs2M, 0}, {osmm.Hugetlbfs1G, 0}} {
		env, err := newNative(cs, c.policy, c.hog)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%v memhog %.1f", c.policy, c.hog), &env.runEnv, env.pt)
	}
	env, err := newVirt(cs, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	vm0 := env.vms[0]
	check("virt VM 0 guest, nested", &env.runEnv, vm0.GuestAS().PageTable(), vm0.NestedPT())
	for _, pt := range []*pagetable.PageTable{env.vms[1].GuestAS().PageTable(), env.vms[1].NestedPT()} {
		if d := dirtyLeaves(pt); len(d) != 0 {
			t.Errorf("virt VM 1: set-up left %d dirty leaves", len(d))
		}
	}
}

// freshCompareDesigns are measured one after another in one environment
// and each again in an environment of its own.
var freshCompareDesigns = []string{
	mmu.DesignSplit, mmu.DesignMix, mmu.DesignRehash, mmu.DesignSkew,
	mmu.DesignColt, mmu.DesignVictima, mmu.DesignIdeal,
}

// TestDesignsSeeFreshEnvironment: the multi-design experiments measure
// their designs one after another over one environment, native or
// virtualized, through runEnv.run (fig1, fig14-16, fig18, hierarchy,
// reach, xisa, breakdown and the ablations) or runGPU (fig14, fig16's
// GPU points, fig17). Each design's stats must equal its stats in an
// environment of its own: the stores of a design measured earlier must
// not spare it a dirty micro-op.
func TestDesignsSeeFreshEnvironment(t *testing.T) {
	cs := q()
	cs.WarmupRefs, cs.MeasureRefs = 10_000, 20_000
	ctx := context.Background()
	specs, err := cs.specs(freshCompareDesigns...)
	if err != nil {
		t.Fatal(err)
	}
	gups, err := workload.ByName("gups")
	if err != nil {
		t.Fatal(err)
	}
	envs := []struct {
		name string
		make func() (*runEnv, error)
	}{
		{"native/4KB", func() (*runEnv, error) {
			e, err := newNative(cs, osmm.BasePages, 0)
			return &e.runEnv, err
		}},
		{"native/THS+hog", func() (*runEnv, error) {
			e, err := newNative(cs, osmm.THS, 0.2)
			return &e.runEnv, err
		}},
		{"virt", func() (*runEnv, error) {
			e, err := newVirt(cs, 2, 0.2)
			return &e.runEnv, err
		}},
	}
	measure := func(e *runEnv, built workload.Stream, ds mmu.DesignSpec) mmu.Stats {
		st, _, _, err := e.measure(ctx, cs, gups, built, ds)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, ec := range envs {
		shared, err := ec.make()
		if err != nil {
			t.Fatal(err)
		}
		built := shared.stream(cs, gups)
		for _, ds := range specs {
			if shared.pt == nil && ds.Name == mmu.DesignIdeal {
				continue // the ideal TLB reads a native table
			}
			got := measure(shared, built, ds)
			fresh, err := ec.make()
			if err != nil {
				t.Fatal(err)
			}
			want := measure(fresh, fresh.stream(cs, gups), ds)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: stats after earlier designs differ from a fresh environment's\n got %+v\nwant %+v",
					ec.name, ds.Name, got, want)
			}
		}
	}

	k, err := gpu.KernelByName("backprop") // 45% stores
	if err != nil {
		t.Fatal(err)
	}
	gpuEnv := func() (*nativeEnv, []workload.Stream) {
		// 4KB pages: with superpages, warmup dirties every page the
		// measured sweeps store to, whatever ran before.
		e, err := newNative(cs, osmm.BasePages, 0)
		if err != nil {
			t.Fatal(err)
		}
		return e, k.Streams(cs.GPUCores, e.base, e.fp, cs.Seed)
	}
	shared, built := gpuEnv()
	for _, d := range []string{mmu.DesignSplit, mmu.DesignMix, mmu.DesignSplit} {
		got, _, err := runGPU(ctx, cs, shared, built, d)
		if err != nil {
			t.Fatal(err)
		}
		fresh, fbuilt := gpuEnv()
		want, _, err := runGPU(ctx, cs, fresh, fbuilt, d)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("gpu %s %s: stats after earlier designs differ from a fresh environment's\n got %+v\nwant %+v",
				k.Name, d, got, want)
		}
	}
}

// TestDirtyMicroOpsCountCleanLeaves: a design whose MarkDirty always
// succeeds on a resident entry injects exactly one dirty micro-op per
// leaf PTE that was clean when measurement began and then took a store.
// MIX and COLT keep a bundle clean until every member is dirty, so they
// inject at least that many; the ideal TLB injects none by construction.
func TestDirtyMicroOpsCountCleanLeaves(t *testing.T) {
	cs := q()
	cs.WarmupRefs = 1000 // a full warmup dirties every superpage gups touches
	specs, err := cs.specs(mmu.DesignSplit, mmu.DesignRehash, mmu.DesignSkew, mmu.DesignVictima,
		mmu.DesignMix, mmu.DesignColt, mmu.DesignIdeal)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []osmm.Policy{osmm.BasePages, osmm.THS} {
		for _, wl := range []string{"gups", "memcached"} {
			spec, err := workload.ByName(wl)
			if err != nil {
				t.Fatal(err)
			}
			for _, ds := range specs {
				env, err := newNative(cs, policy, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				m, _, err := env.build(ds)
				if err != nil {
					t.Fatal(err)
				}
				built := env.stream(cs, spec)
				ops, clean := dirtyRun(t, env.pt, m, workload.Fork(built), cs.WarmupRefs, cs.MeasureRefs)
				if clean == 0 {
					t.Fatalf("%v %s: no clean leaf took a store", policy, wl)
				}
				switch ds.Name {
				case mmu.DesignIdeal:
					if ops != 0 {
						t.Errorf("%v %s %s: %d dirty micro-ops, want 0", policy, wl, ds.Name, ops)
					}
				case mmu.DesignMix, mmu.DesignColt:
					if ops < uint64(clean) {
						t.Errorf("%v %s %s: %d dirty micro-ops, want at least %d", policy, wl, ds.Name, ops, clean)
					}
				default:
					if ops != uint64(clean) {
						t.Errorf("%v %s %s: %d dirty micro-ops, want %d", policy, wl, ds.Name, ops, clean)
					}
				}
			}
		}
	}
}

// dirtyRun drives m over stream (warmup, reset, measure, in batches as
// runStream does) and returns the measured dirty micro-ops and the
// number of distinct leaves of pt that were clean when measurement began
// and then took a store.
func dirtyRun(t *testing.T, pt *pagetable.PageTable, m *mmu.MMU, stream workload.Stream, warmup, measure uint64) (uint64, int) {
	t.Helper()
	var (
		refs [translateBatch]workload.Ref
		reqs [translateBatch]tlb.Request
		out  [translateBatch]mmu.Result
	)
	run := func(total uint64, visit func(workload.Ref)) {
		for done := uint64(0); done < total; {
			n := min(uint64(len(refs)), total-done)
			workload.FillBatch(stream, refs[:n])
			for i, r := range refs[:n] {
				visit(r)
				reqs[i] = tlb.Request{VA: r.VA, Write: r.Write, PC: r.PC}
			}
			if k := m.TranslateBatch(reqs[:n], out[:n]); k > 0 && out[k-1].Faulted {
				t.Fatalf("fault at %v", refs[k-1].VA)
			}
			done += n
		}
	}
	run(warmup, func(workload.Ref) {})
	m.ResetStats()
	dirty := dirtyLeaves(pt)
	stored := map[addr.V]bool{}
	run(measure, func(r workload.Ref) {
		if !r.Write {
			return
		}
		if tr, ok := pt.Lookup(r.VA); ok && !dirty[tr.VA] {
			stored[tr.VA] = true
		}
	})
	return m.Stats().DirtyMicroOps, len(stored)
}
