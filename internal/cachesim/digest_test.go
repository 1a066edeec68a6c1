package cachesim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

// evictionHeavy is a small two-level hierarchy whose working sets below
// overflow both levels, so nearly every access exercises replacement.
func evictionHeavy() *Hierarchy {
	return NewHierarchy([]Level{
		{Name: "L1", Size: 2 << 10, Ways: 4, Latency: 3},  // 8 sets
		{Name: "L2", Size: 16 << 10, Ways: 8, Latency: 9}, // 32 sets
	}, 80)
}

// TestAccessStreamDigest pins the hierarchy's observable behaviour bit
// for bit: a seeded PA stream with periodic flushes, SHA-256 over every
// AccessResult and the final per-level and DRAM counters. A storage or
// performance change must leave every digest unchanged.
func TestAccessStreamDigest(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Hierarchy
		want  string
	}{
		{"default", DefaultHierarchy, "784324dc758d05f6cf2c78bd09f95522f9c66ca817e9ecb80ec007adf91d74e9"},
		{"eviction-heavy", evictionHeavy, "ddeec866ab09415e1692371dacd9715e43a4b6a68a38e004071819d5419df052"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if got := accessStreamDigest(c.build(), 0xcac4e, 300000, 70000); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// streamPA draws one physical address: a hot 64 KiB region, a warm
// 4 MiB region, a conflict group that strides whole L1 and L2 set
// ranges, and cold lines anywhere in 4 GiB.
func streamPA(rng *simrand.Source) addr.P {
	switch u := rng.Float64(); {
	case u < 0.45:
		return addr.P(0x10000000 + rng.Uint64n(64<<10))
	case u < 0.75:
		return addr.P(0x20000000 + rng.Uint64n(4<<20))
	case u < 0.90:
		return addr.P(0x30000000 + rng.Uint64n(48)<<15 + rng.Uint64n(addr.CacheLineSize))
	default:
		return addr.P(rng.Uint64n(4 << 30))
	}
}

// accessStreamDigest runs n seeded accesses against h, flushing every
// flushEvery accesses, and returns the hex SHA-256 of everything h
// reported.
func accessStreamDigest(h *Hierarchy, seed uint64, n, flushEvery int) string {
	rng := simrand.New(seed)
	d := sha256.New()
	var buf [8]byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			d.Write(buf[:])
		}
	}
	for i := 1; i <= n; i++ {
		r := h.Access(streamPA(rng))
		put(uint64(r.HitLevel), r.Cycles, uint64(r.LevelReads))
		if i%flushEvery == 0 {
			h.Flush()
		}
	}
	for i := 0; i < h.Levels(); i++ {
		_, acc, miss := h.LevelStats(i)
		put(acc, miss)
	}
	put(h.MemAccesses())
	return hex.EncodeToString(d.Sum(nil))
}

var sinkResult AccessResult

// BenchmarkAccess measures one reference through the default hierarchy
// on a warm seeded stream of hot and cold lines. Run with:
//
//	go test -run '^$' -bench Access -benchmem ./internal/cachesim
func BenchmarkAccess(b *testing.B) {
	h := DefaultHierarchy()
	rng := simrand.New(7)
	pas := make([]addr.P, 1<<16)
	for i := range pas {
		pas[i] = streamPA(rng)
	}
	for _, pa := range pas {
		h.Access(pa)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkResult = h.Access(pas[i&(len(pas)-1)])
	}
}
