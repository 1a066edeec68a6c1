package pwc

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
)

// TestISADepthSizing: a cache has Depth-1 prefix levels, and its deepest
// level skips Depth-1 accesses of a full walk.
func TestISADepthSizing(t *testing.T) {
	cases := []struct {
		name    string
		levels  int
		maxSkip int
	}{
		{"x86-64", 3, 3},
		{"x86-64-la57", 4, 4},
		{"sv39", 2, 2},
		{"sv48", 3, 3},
	}
	for _, tc := range cases {
		d, err := isa.Lookup(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		c := NewISA(8, d)
		if len(c.levels) != tc.levels {
			t.Fatalf("%s: %d levels, want %d", tc.name, len(c.levels), tc.levels)
		}
		va := addr.V(0x123456789000) & addr.V(d.VAMask())
		// A full-depth fill makes the deepest level hit, skipping all
		// non-leaf accesses of the next walk.
		c.Fill(va, d.Depth())
		if got := c.Skip(va, d.Depth()-1); got != tc.maxSkip {
			t.Fatalf("%s: Skip = %d, want %d", tc.name, got, tc.maxSkip)
		}
		// A different root prefix misses everywhere.
		far := va ^ addr.V(1<<(d.VABits-1))
		if got := c.Skip(far, d.Depth()-1); got != 0 {
			t.Fatalf("%s: unrelated prefix skipped %d", tc.name, got)
		}
	}
}

// TestDefaultMatchesNewISA: NewISA over the default descriptor is the
// x86-64 cache: PML4E, PDPTE and PDE prefix levels.
func TestDefaultMatchesNewISA(t *testing.T) {
	a := NewISA(4, isa.Default())
	if len(a.levels) != 3 || len(a.shifts) != 3 {
		t.Fatalf("%d levels, want 3", len(a.levels))
	}
	if a.shifts[0] != 39 || a.shifts[1] != 30 || a.shifts[2] != 21 {
		t.Fatalf("default shifts = %v", a.shifts)
	}
}
