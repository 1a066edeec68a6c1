package smp

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/cachesim"
	"mixtlb/internal/mmu"
	"mixtlb/internal/osmm"
	"mixtlb/internal/physmem"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
	"mixtlb/internal/workload"
)

func newSMP(t *testing.T, design string, cores int) (*System, *osmm.AddressSpace, addr.V, uint64) {
	t.Helper()
	phys := physmem.NewBuddy(1 << 30)
	as, err := osmm.New(phys, osmm.Config{Policy: osmm.THS})
	if err != nil {
		t.Fatal(err)
	}
	const fp = 256 << 20
	base, err := as.Mmap(fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := as.Populate(base, fp); err != nil {
		t.Fatal(err)
	}
	sys, err := New(cores, as, cachesim.DefaultHierarchy(), lookupSpec(t, design))
	if err != nil {
		t.Fatal(err)
	}
	return sys, as, base, fp
}

// lookupSpec resolves a builtin design name.
func lookupSpec(t *testing.T, design string) mmu.DesignSpec {
	t.Helper()
	spec, ok := mmu.DefaultRegistry().Lookup(design)
	if !ok {
		t.Fatalf("unknown design %q", design)
	}
	return spec
}

func TestRunInterleavesCores(t *testing.T) {
	s, _, base, fp := newSMP(t, mmu.DesignMix, 4)
	streams := make([]workload.Stream, 4)
	for i := range streams {
		streams[i] = workload.NewSequential(base+addr.V(uint64(i)*fp/4), fp/4, 4096, false, uint64(i))
	}
	if err := s.Run(context.Background(), streams, 40000); err != nil {
		t.Fatal(err)
	}
	agg := s.Aggregate()
	if agg.Accesses != 40000 {
		t.Errorf("aggregate accesses = %d", agg.Accesses)
	}
	for i, c := range s.Cores() {
		if c.Stats().Accesses != 10000 {
			t.Errorf("core %d accesses = %d", i, c.Stats().Accesses)
		}
		if want := fmt.Sprintf("mix.core%d", i); c.Name() != want {
			t.Errorf("core %d named %q, want %q", i, c.Name(), want)
		}
	}
}

func TestRunStreamMismatch(t *testing.T) {
	s, _, _, _ := newSMP(t, mmu.DesignSplit, 2)
	if err := s.Run(context.Background(), nil, 10); err == nil {
		t.Error("mismatched streams accepted")
	}
}

// cancelAfter is a stream that cancels its context once it has produced
// n references.
type cancelAfter struct {
	workload.Stream
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Next() workload.Ref {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Stream.Next()
}

// TestRunHonoursCancellation checks that Run stops at the first stride
// boundary after its context is canceled, with the context's error.
func TestRunHonoursCancellation(t *testing.T) {
	s, _, base, fp := newSMP(t, mmu.DesignSplit, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := &cancelAfter{Stream: workload.NewSequential(base, fp, 4096, false, 0),
		n: ctxCheckStride + 5, cancel: cancel}
	err := s.Run(ctx, []workload.Stream{stream}, 100*ctxCheckStride)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := s.Aggregate().Accesses; got != 2*ctxCheckStride {
		t.Errorf("ran %d references after cancel at %d, want to stop at %d",
			got, ctxCheckStride+5, 2*ctxCheckStride)
	}
}

func TestMunmapShootsDownAllCores(t *testing.T) {
	s, as, base, _ := newSMP(t, mmu.DesignMix, 3)
	// Warm every core's TLB on the first 8MB.
	for c := 0; c < 3; c++ {
		for off := uint64(0); off < 8<<20; off += addr.Size4K {
			s.Translate(c, tlb.Request{VA: base + addr.V(off)})
		}
	}
	s.ResetStats()
	// Re-touch: all hits.
	for c := 0; c < 3; c++ {
		if r := s.Translate(c, tlb.Request{VA: base}); r.HitLevel != 0 && r.HitLevel != 1 {
			t.Fatalf("core %d not warm", c)
		}
	}
	s.Munmap(base, 4<<20)
	st := s.Stats()
	if st.Shootdowns != 2 { // two 2MB translations
		t.Errorf("shootdowns = %d", st.Shootdowns)
	}
	if st.IPIs != 6 {
		t.Errorf("IPIs = %d", st.IPIs)
	}
	// The unmapped range faults (OS remaps on demand); the surviving
	// range still hits.
	if _, ok := as.PageTable().Lookup(base); ok {
		t.Fatal("mapping survived munmap")
	}
	for c := 0; c < 3; c++ {
		r := s.Translate(c, tlb.Request{VA: base + addr.V(6<<20)})
		if r.HitLevel != 0 && r.HitLevel != 1 {
			t.Errorf("core %d lost an unrelated translation", c)
		}
	}
	// Remapped-on-demand region yields fresh frames, not stale PAs.
	r := s.Translate(0, tlb.Request{VA: base})
	tr, ok := as.PageTable().Lookup(base)
	if !ok || r.PA != tr.Translate(base) {
		t.Errorf("stale translation after shootdown: got %v want %v", r.PA, tr.Translate(base))
	}
}

// TestShootdownCorrectnessUnderRemap is the safety property: after
// munmap+remap with concurrent traffic, no core may ever return a stale
// physical address.
func TestShootdownCorrectnessUnderRemap(t *testing.T) {
	for _, design := range []string{mmu.DesignSplit, mmu.DesignMix, mmu.DesignMixColt} {
		s, as, base, _ := newSMP(t, design, 2)
		rng := simrand.New(9)
		for round := 0; round < 30; round++ {
			// Random traffic on both cores.
			for i := 0; i < 500; i++ {
				va := base + addr.V(rng.Uint64n(64<<20)&^7)
				core := int(rng.Uint64n(2))
				r := s.Translate(core, tlb.Request{VA: va, Write: rng.Bool(0.3)})
				tr, ok := as.PageTable().Lookup(va)
				if !ok {
					t.Fatalf("%s: unmapped VA %v survived", design, va)
				}
				if r.PA != tr.Translate(va) {
					t.Fatalf("%s: stale PA for %v: got %v want %v", design, va, r.PA, tr.Translate(va))
				}
			}
			// Unmap a random 4MB chunk; it demand-remaps on next touch.
			off := rng.Uint64n(60<<20) &^ (addr.Size2M - 1)
			s.Munmap(base+addr.V(off), 4<<20)
		}
	}
}

func TestBitmapInvalidationKeepsNeighbours(t *testing.T) {
	// The Sec 4.4 contrast at system level: after unmapping one 2MB page
	// out of a coalesced run, a bitmap-encoded MIX TLB still hits on the
	// neighbouring superpages without re-walking.
	s, _, base, _ := newSMP(t, mmu.DesignMix, 1)
	for off := uint64(0); off < 16<<20; off += addr.Size4K {
		s.Translate(0, tlb.Request{VA: base + addr.V(off)})
	}
	s.ResetStats()
	s.Munmap(base+addr.V(2<<20), 2<<20)        // kill the second superpage
	r := s.Translate(0, tlb.Request{VA: base}) // neighbour
	if r.HitLevel != 0 {
		t.Errorf("neighbour of invalidated member missed: %+v", r)
	}
}
