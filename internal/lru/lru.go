// Package lru is the set-associative LRU storage shared by the
// simulator's data caches, paging-structure caches and TLBs.
//
// Way w of set s lives at index s*ways+w of two flat slices: a tag word,
// whose top bit is the valid bit (a free way holds 0), and an LRU stamp.
// Owners keep their payloads in parallel slices indexed the same way and
// read a payload only after its tag matched. Every owner replaces by one
// rule: a way holding the key, else the first free way, else the least
// recently used way, the first one on a tie.
package lru

// Valid is the tag word's valid bit. Keys must lie below it.
const Valid = uint64(1) << 63

// Array is a sets x ways LRU array. Way indexes are global: s*ways+w.
type Array struct {
	tags   []uint64
	stamps []uint64
	ways   int
	// clock advances only when a way is stamped, so stamps are unique
	// and their order alone decides every victim.
	clock uint64
}

// New returns an empty array of sets x ways ways.
func New(sets, ways int) Array {
	return Array{tags: make([]uint64, sets*ways), stamps: make([]uint64, sets*ways), ways: ways}
}

// Valid reports whether way i holds a key.
func (a *Array) Valid(i int) bool { return a.tags[i]&Valid != 0 }

// Key returns the key way i holds; meaningful only when Valid(i).
func (a *Array) Key(i int) uint64 { return a.tags[i] &^ Valid }

// Find returns the first way of set holding key, or -1.
func (a *Array) Find(set int, key uint64) int {
	lo := set * a.ways
	return a.scan(lo, lo+a.ways, key|Valid)
}

// FindNext returns the next way after i in i's set holding key, or -1:
// owners whose sets may hold one key twice walk every copy with it.
func (a *Array) FindNext(i int, key uint64) int {
	return a.scan(i+1, i-i%a.ways+a.ways, key|Valid)
}

func (a *Array) scan(lo, hi int, tag uint64) int {
	for i, t := range a.tags[lo:hi] {
		if t == tag {
			return lo + i
		}
	}
	return -1
}

// Victim returns the way of set to replace, without looking for a key.
func (a *Array) Victim(set int) int {
	lo := set * a.ways
	return lo + Victim(a.tags[lo:lo+a.ways], a.stamps[lo:lo+a.ways])
}

// Probe returns the first way of set holding key and true, or else the
// way Victim would pick and false, in one pass over the set's tags.
func (a *Array) Probe(set int, key uint64) (int, bool) {
	lo := set * a.ways
	tag := key | Valid
	free := -1
	for w, t := range a.tags[lo : lo+a.ways] {
		if t == tag {
			return lo + w, true
		}
		if t&Valid == 0 && free < 0 {
			free = w
		}
	}
	if free < 0 {
		free = Oldest(a.stamps[lo : lo+a.ways])
	}
	return lo + free, false
}

// Touch marks way i most recently used.
func (a *Array) Touch(i int) {
	a.clock++
	a.stamps[i] = a.clock
}

// Put stores key in way i and marks it most recently used.
func (a *Array) Put(i int, key uint64) {
	a.tags[i] = key | Valid
	a.Touch(i)
}

// Clear frees way i.
func (a *Array) Clear(i int) { a.tags[i] = 0 }

// Flush frees every way.
func (a *Array) Flush() { clear(a.tags) }

// Occupancy returns the number of valid ways in each set.
func (a *Array) Occupancy() []int {
	occ := make([]int, len(a.tags)/a.ways)
	for i, t := range a.tags {
		if t&Valid != 0 {
			occ[i/a.ways]++
		}
	}
	return occ
}

// Victim picks the way of one set to replace, given the set's tag words
// and stamps: the first free way, else the least recently used.
func Victim(tags, stamps []uint64) int {
	for w, t := range tags {
		if t&Valid == 0 {
			return w
		}
	}
	return Oldest(stamps)
}

// Oldest returns the way with the smallest stamp, the first on a tie.
func Oldest(stamps []uint64) int {
	v := 0
	for w, s := range stamps {
		if s < stamps[v] {
			v = w
		}
	}
	return v
}
