package lru

import (
	"testing"

	"mixtlb/internal/simrand"
)

func TestFindAndFindNext(t *testing.T) {
	a := New(2, 4)
	if got := a.Find(1, 7); got != -1 {
		t.Fatalf("Find on an empty set = %d, want -1", got)
	}
	a.Put(5, 7)
	a.Put(7, 7)
	a.Put(1, 7) // same key in set 0 must stay invisible to set 1
	if got := a.Find(1, 7); got != 5 {
		t.Fatalf("Find = %d, want 5", got)
	}
	if got := a.FindNext(5, 7); got != 7 {
		t.Fatalf("FindNext(5) = %d, want 7", got)
	}
	if got := a.FindNext(7, 7); got != -1 {
		t.Fatalf("FindNext(7) = %d, want -1 (end of set)", got)
	}
	if got := a.FindNext(1, 7); got != -1 {
		t.Fatalf("FindNext(1) = %d, want -1 (must not cross into set 1)", got)
	}
	if !a.Valid(5) || a.Valid(4) || a.Key(5) != 7 {
		t.Fatalf("Valid/Key: %v %v %d", a.Valid(5), a.Valid(4), a.Key(5))
	}
}

func TestVictimFirstFreeElseLRU(t *testing.T) {
	a := New(1, 4)
	a.Put(0, 10)
	a.Put(2, 12)
	if got := a.Victim(0); got != 1 {
		t.Fatalf("Victim with ways 1 and 3 free = %d, want the first free, 1", got)
	}
	a.Put(1, 11)
	a.Put(3, 13)
	// Stamps now order 0 < 2 < 1 < 3; touching 0 makes 2 the oldest.
	a.Touch(0)
	if got := a.Victim(0); got != 2 {
		t.Fatalf("Victim of a full set = %d, want LRU way 2", got)
	}
	// A way that is free wins over any stamp, even an older valid one.
	a.Clear(3)
	if got := a.Victim(0); got != 3 {
		t.Fatalf("Victim after Clear(3) = %d, want 3", got)
	}
}

func TestOldestFirstWinsTie(t *testing.T) {
	cases := []struct {
		stamps []uint64
		want   int
	}{
		{[]uint64{5, 3, 3, 9}, 1},
		{[]uint64{0, 0, 0}, 0},
		{[]uint64{4, 2, 8, 1}, 3},
		{[]uint64{7}, 0},
	}
	for _, c := range cases {
		if got := Oldest(c.stamps); got != c.want {
			t.Errorf("Oldest(%v) = %d, want %d", c.stamps, got, c.want)
		}
	}
	tags := []uint64{Valid | 1, Valid | 2, Valid | 3}
	if got := Victim(tags, []uint64{2, 1, 1}); got != 1 {
		t.Errorf("Victim over a full set with tied stamps = %d, want 1", got)
	}
	tags[2] = 0
	if got := Victim(tags, []uint64{2, 1, 1}); got != 2 {
		t.Errorf("Victim with way 2 free = %d, want 2", got)
	}
}

func TestProbeMatchesFindThenVictim(t *testing.T) {
	// Probe is Find, falling back to Victim, in one pass: check that on
	// random contents, including sets holding one key twice.
	rng := simrand.New(1)
	for trial := 0; trial < 2000; trial++ {
		sets, ways := 1<<rng.Intn(3), 1+rng.Intn(8)
		a := New(sets, ways)
		for op := 0; op < 40; op++ {
			set, key := rng.Intn(sets), rng.Uint64n(6)
			i, hit := a.Probe(set, key)
			if f := a.Find(set, key); hit != (f >= 0) || hit && i != f {
				t.Fatalf("Probe(%d,%d) = %d,%v; Find = %d", set, key, i, hit, f)
			}
			if !hit && i != a.Victim(set) {
				t.Fatalf("Probe(%d,%d) miss picked %d, Victim = %d", set, key, i, a.Victim(set))
			}
			switch u := rng.Float64(); {
			case u < 0.6:
				a.Put(i, key)
			case u < 0.8:
				a.Put(a.Victim(set), key) // may duplicate a key
			case u < 0.95:
				if hit {
					a.Clear(i)
				}
			default:
				a.Flush()
			}
		}
	}
}

func TestClearFlushOccupancy(t *testing.T) {
	a := New(4, 2)
	for i := 0; i < 8; i++ {
		a.Put(i, uint64(i))
	}
	a.Clear(3)
	want := []int{2, 1, 2, 2}
	for s, n := range a.Occupancy() {
		if n != want[s] {
			t.Fatalf("Occupancy = %v, want %v", a.Occupancy(), want)
		}
	}
	if a.Find(1, 3) != -1 {
		t.Fatal("cleared way still found")
	}
	a.Flush()
	for i := 0; i < 8; i++ {
		if a.Valid(i) {
			t.Fatalf("way %d valid after Flush", i)
		}
	}
	if got := a.Victim(2); got != 4 {
		t.Fatalf("Victim after Flush = %d, want the set's first way, 4", got)
	}
}

var sinkWay int

// BenchmarkProbe measures one probe-or-victim pass plus the Put that
// follows it, over a 24-way set (the default LLC's associativity). Run
// with:
//
//	go test -run '^$' -bench . -benchmem ./internal/lru
func BenchmarkProbe(b *testing.B) {
	const sets, ways = 1024, 24
	a := New(sets, ways)
	rng := simrand.New(3)
	keys := make([]uint64, 1<<14)
	for i := range keys {
		keys[i] = rng.Uint64n(sets * ways * 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		w, _ := a.Probe(int(k%sets), k/sets)
		a.Put(w, k/sets)
		sinkWay = w
	}
}
