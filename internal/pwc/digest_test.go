package pwc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/isa"
	"mixtlb/internal/simrand"
)

// TestOpStreamDigest pins the cache's observable behaviour bit for bit:
// one seeded stream of Skip/Fill/Invalidate/Flush per descriptor and
// capacity, SHA-256 over every returned value and the final Stats. A
// storage or performance change must leave every digest unchanged.
func TestOpStreamDigest(t *testing.T) {
	cases := []struct {
		isa     string
		entries int
		want    string
	}{
		{"x86-64", 2, "5eebef2811ab209e7f04bb29f5a3bb06ef0af20a18847fc3850d72597b8c1de3"},
		{"x86-64", 16, "2fb4a98f408e40c2c47c7b28da0529bdb80ba7d03b3d42c0d2a12d2f24f19657"},
		{"x86-64-la57", 2, "23316dd3fd8622298e7e2e116411e4c1438013935295957b85acba1b7344b6cf"},
		{"x86-64-la57", 16, "6eeae0b0efff416ac938087550e0e83dd2fe7bceaf107b0b0e18a399df3be731"},
		{"sv39", 2, "ac33d1f2a1536909099fec14b74a56435e142ad8c9ceeb08580e050f2790ce0c"},
		{"sv39", 16, "52155e062c645bb7afb1690cb3a3d23a1a34fb4ce90e52070f38d58359815134"},
	}
	for _, c := range cases {
		d, err := isa.Lookup(c.isa)
		if err != nil {
			t.Fatal(err)
		}
		if got := opStreamDigest(NewISA(c.entries, d), d, 0x9c^uint64(c.entries), 40000); got != c.want {
			t.Errorf("%s/%d: digest %s, want %s", c.isa, c.entries, got, c.want)
		}
	}
}

// streamVA draws a VA whose upper-level prefixes repeat often enough to
// hit at every level of a 2- or 16-entry cache: a few root entries, a
// few dozen second-level entries and a few hundred PD entries.
func streamVA(d *isa.Descriptor, rng *simrand.Source) addr.V {
	top := d.LevelShift(d.Depth())
	va := rng.Uint64n(4)<<top |
		rng.Uint64n(8)<<addr.Shift1G |
		rng.Uint64n(32)<<addr.Shift2M |
		rng.Uint64n(addr.Size2M)
	return addr.V(va & d.VAMask())
}

// opStreamDigest runs n seeded operations against c and returns the hex
// SHA-256 of everything it returned.
func opStreamDigest(c *Cache, d *isa.Descriptor, seed uint64, n int) string {
	rng := simrand.New(seed)
	h := sha256.New()
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	depth := d.Depth()
	for op := 0; op < n; op++ {
		va := streamVA(d, rng)
		put(uint64(op))
		switch u := rng.Float64(); {
		case u < 0.50:
			put(uint64(c.Skip(va, rng.Intn(depth+1))))
		case u < 0.92:
			c.Fill(va, 1+rng.Intn(depth))
		case u < 0.998:
			c.Invalidate(va)
		default:
			c.Flush()
		}
	}
	s := c.Stats()
	put(s.Hits, s.Misses, s.SkippedRefs, s.Fills, uint64(c.Entries()))
	return hex.EncodeToString(h.Sum(nil))
}

var sinkSkip int

// BenchmarkSkipFill measures one walk's worth of cache traffic on a
// 16-entry x86-64 cache: a Skip probe, then a Fill when the probe left
// upper-level references to walk. Run with:
//
//	go test -run '^$' -bench SkipFill -benchmem ./internal/pwc
func BenchmarkSkipFill(b *testing.B) {
	d := isa.Default()
	c := NewISA(16, d)
	rng := simrand.New(11)
	vas := make([]addr.V, 1<<14)
	for i := range vas {
		vas[i] = streamVA(d, rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := vas[i&(len(vas)-1)]
		sinkSkip = c.Skip(va, 3)
		if sinkSkip < 3 {
			c.Fill(va, 4)
		}
	}
}
