package tlb

import (
	"errors"
	"math"
	"testing"
	"unsafe"

	"mixtlb/internal/addr"
)

// TestResultSize pins the lookup result's size. Every component probe of
// a Split returns one Result by value, and the MMU probes each level once
// per access, so a Result that outgrows a few words turns every probe into
// a block copy.
func TestResultSize(t *testing.T) {
	if n := unsafe.Sizeof(Result{}); n > 40 {
		t.Fatalf("tlb.Result is %d bytes, want at most 40", n)
	}
}

// TestSplitSumsPredictorAccesses: a split probes its components in
// parallel, so its lookup costs the slowest component's rounds and the
// sum of every component's ways and predictor reads and writes — a
// predictor trained inside a split still counts in the energy model.
func TestSplitSumsPredictorAccesses(t *testing.T) {
	pred := NewPredicted(Must(NewHashRehash("hr", 16, 4, addr.Page4K, addr.Page2M)), Must(NewSizePredictor(64)))
	s := Must(NewSplit("s", pred, Must(NewSetAssoc("1g", addr.Page1G, 1, 4))))
	const pc = 0x40
	va := addr.V(0x5000)
	s.Fill(Request{VA: va, PC: pc}, walkFor(va, 0x9000, addr.Page4K))

	hit := s.Lookup(Request{VA: va, PC: pc})
	if want := (LookupCost{Probes: 1, WaysRead: 4 + 4, PredictorReads: 1, PredictorWrites: 1}); !hit.Hit || hit.Cost != want {
		t.Errorf("hit: hit=%v cost %+v, want %+v", hit.Hit, hit.Cost, want)
	}
	miss := s.Lookup(Request{VA: 0x7f0000000000, PC: pc})
	if want := (LookupCost{Probes: 2, WaysRead: 2*4 + 4, PredictorReads: 1}); miss.Hit || miss.Cost != want {
		t.Errorf("miss: hit=%v cost %+v, want %+v", miss.Hit, miss.Cost, want)
	}
}

// TestLookupWidthLimits: every constructor refuses, before allocating, a
// geometry whose lookup could overflow a LookupCost field, with a
// *ConfigError; the caps themselves keep a full split within the fields.
func TestLookupWidthLimits(t *testing.T) {
	if uint64(maxSplitLeaves)*MaxLookupWays > math.MaxUint32 || maxSplitLeaves > math.MaxUint8 {
		t.Fatal("a split at the caps overflows LookupCost")
	}
	ideals := func(n int) []TLB {
		out := make([]TLB, n)
		for i := range out {
			out[i] = NewIdeal(nil)
		}
		return out
	}
	half := Must(NewSplit("half", ideals(maxSplitLeaves/2+1)...))
	if _, err := NewSplit("full", ideals(maxSplitLeaves)...); err != nil {
		t.Errorf("split of %d structures refused: %v", maxSplitLeaves, err)
	}
	cases := map[string]func() error{
		"setassoc": func() error { _, err := NewSetAssoc("w", addr.Page4K, 1, MaxLookupWays+1); return err },
		"colt":     func() error { _, err := NewColt("w", addr.Page4K, 1, MaxLookupWays+1, 8); return err },
		"victim":   func() error { _, err := NewVictim("w", 1, MaxLookupWays/2+1); return err },
		"rehash": func() error {
			_, err := NewHashRehash("w", 1, MaxLookupWays/addr.NumPageSizes+1, addr.Page4K)
			return err
		},
		"rehash-rounds": func() error {
			_, err := NewHashRehash("w", 1, 1, addr.Page4K, addr.Page2M, addr.Page1G, addr.Page4K)
			return err
		},
		"skew": func() error {
			_, err := NewSkew("w", 1, map[addr.PageSize]int{addr.Page2M: MaxLookupWays/addr.NumPageSizes + 1})
			return err
		},
		"split":        func() error { _, err := NewSplit("w", ideals(maxSplitLeaves+1)...); return err },
		"nested-split": func() error { _, err := NewSplit("w", half, half); return err },
	}
	for name, f := range cases {
		var ce *ConfigError
		if err := f(); !errors.As(err, &ce) {
			t.Errorf("%s: error %v, want a *ConfigError", name, err)
		}
	}
}
