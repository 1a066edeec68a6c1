package tlb

import (
	"errors"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
)

func TestColtMembers(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	line := []pagetable.Translation{
		mk2M(4, 100, addr.PermRW, true),
		mk2M(5, 101, addr.PermRW, true),
		mk2M(6, 102, addr.PermRW, true),
	}
	c.Fill(Request{VA: line[0].VA}, walkLine(line...))
	got := c.Members(line[1].VA)
	if len(got) != 3 {
		t.Fatalf("Members = %d entries", len(got))
	}
	for i, m := range got {
		if m.VA != line[i].VA || m.PA != line[i].PA {
			t.Errorf("member %d = %v", i, m)
		}
	}
	if c.Members(addr.V(99)<<21) != nil {
		t.Error("Members on a miss returned data")
	}
}

func TestColtRefreshDirty(t *testing.T) {
	c := Must(NewColt("colt", addr.Page2M, 8, 2, 4))
	a := mk2M(4, 100, addr.PermRW, true)
	b := mk2M(5, 101, addr.PermRW, true)
	c.Fill(Request{VA: a.VA}, walkLine(a, b))
	if lookup(c, a.VA).T.Dirty {
		t.Fatal("fresh bundle dirty")
	}
	// One member dirty: refresh refuses.
	a.Dirty = true
	if c.RefreshDirty(a.VA, []pagetable.Translation{a, b}) {
		t.Error("refresh with a clean member succeeded")
	}
	// All members dirty: entry becomes exempt.
	b.Dirty = true
	if !c.RefreshDirty(a.VA, []pagetable.Translation{a, b}) {
		t.Error("refresh with all dirty failed")
	}
	if !lookup(c, a.VA).T.Dirty || !lookup(c, b.VA).T.Dirty {
		t.Error("bundle not dirty after refresh")
	}
	// Miss: refresh is a no-op.
	if c.RefreshDirty(addr.V(99)<<21, nil) {
		t.Error("refresh on absent entry succeeded")
	}
}

func TestSplitMembersDelegation(t *testing.T) {
	s := Must(NewSplit("s",
		Must(NewColt("L1-2M-colt", addr.Page2M, 8, 2, 4)),
		Must(NewSetAssoc("L1-4K", addr.Page4K, 4, 2)),
	))
	line := []pagetable.Translation{
		mk2M(4, 100, addr.PermRW, true),
		mk2M(5, 101, addr.PermRW, true),
	}
	s.Fill(Request{VA: line[0].VA}, walkLine(line...))
	if got := s.Members(line[0].VA); len(got) != 2 {
		t.Errorf("Split.Members = %d entries", len(got))
	}
	// Components without BundleProvider contribute nothing.
	s.Fill(Request{VA: 0x1000}, walkFor(0x1000, 0x2000, addr.Page4K))
	if got := s.Members(0x1000); got != nil {
		t.Errorf("Members over a plain component = %v", got)
	}
	if s.String() == "" {
		t.Error("Split.String empty")
	}
	if len(s.Components()) != 2 {
		t.Error("Components wrong")
	}
}

func TestHashRehashSizes(t *testing.T) {
	h := Must(NewHashRehash("h", 8, 2, addr.Page4K, addr.Page2M))
	sizes := h.Sizes()
	if len(sizes) != 2 || sizes[0] != addr.Page4K || sizes[1] != addr.Page2M {
		t.Errorf("Sizes = %v", sizes)
	}
}

func TestPredictorAccuracyEmpty(t *testing.T) {
	p := Must(NewSizePredictor(16))
	if p.Accuracy() != 0 {
		t.Error("accuracy of untouched predictor")
	}
}

func TestBadConfigsReturnErrors(t *testing.T) {
	cases := map[string]func() error{
		"predictor-size": func() error { _, err := NewSizePredictor(5); return err },
		"colt-window":    func() error { _, err := NewColt("bad", addr.Page4K, 4, 2, 3); return err },
		"skew-sets":      func() error { _, err := NewSkew("bad", 3, map[addr.PageSize]int{addr.Page4K: 1}); return err },
		"skew-zero-ways": func() error { _, err := NewSkew("bad", 4, nil); return err },
		"rehash-sizes":   func() error { _, err := NewHashRehash("bad", 4, 2); return err },
	}
	for name, f := range cases {
		err := f()
		if err == nil {
			t.Errorf("%s: no error", name)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %v is not a *ConfigError", name, err)
		}
	}
}

func TestMustPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Must did not panic on error")
		}
	}()
	Must(NewSizePredictor(0))
}
