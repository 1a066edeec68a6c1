package physmem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

// TestMemhogDigest pins every allocation decision the buddy allocator and
// the memhog fragmenter make, bit for bit. Per memory size, memhog
// fraction (with the pollution the experiments apply to it) and seed, it
// runs Memhog.Run and then a seeded stream of AllocOrder, Free,
// AllocBlockAt, AllocFrameAt, AllocRandomFrame, CompactFor, shrinking Run
// calls and a final Release. It hashes every returned frame and ok, and
// the observable state along the way: FreeFrames, FreeBlocksOfOrder for
// every order, LargestFreeOrder, FrameFree of every frame, the frames
// HeldFrames visits, Held and Migrated. The raw tree bytes are not
// hashed: nodes below a fully free or empty node are stale by design and
// may differ between implementations that decide identically. A
// performance change to physmem must leave every digest unchanged.
func TestMemhogDigest(t *testing.T) {
	want := map[string]string{
		"frames=1283/frac=0.2/seed=1":    "94b7d26e6a14faafd271c6e0940441c3f00a6957ee2b8e51e201f488287c8ea7",
		"frames=1283/frac=0.2/seed=42":   "3af87ee9768488fdc1c77a1e533b023a5d2bd819d7d61ec8f29b3b4e190d20ca",
		"frames=1283/frac=0.6/seed=1":    "c835e8c7e0420b3833f3188c66881b4c0b61813e25c8beb8e190f6ef43ea68a7",
		"frames=1283/frac=0.6/seed=42":   "eedeb97259ee4d9498315362e6d3d7fd8eed0b8853d68d0abbb8df84ce7e7b06",
		"frames=1283/frac=0.8/seed=1":    "1aaef8a54aff562ac5b6a095e982fa9b6b158329fadad7eb5350949938a34653",
		"frames=1283/frac=0.8/seed=42":   "6f11038093d6265858f9aae9b1898ee1c0da6933b3dfaf7cf48165da65e1faed",
		"frames=8192/frac=0.2/seed=1":    "69129938b08cb45f14d4e128df62782b75244b81f6ce216f643b3b5c3fe71bdf",
		"frames=8192/frac=0.2/seed=42":   "1e790327aaffef0309254bf80d3425991eb9175cb43892382af842957dbfe32d",
		"frames=8192/frac=0.6/seed=1":    "5d3fb4ea8361a1db4455c683aa1b8e0707f10410982ae0625636642d12cd8365",
		"frames=8192/frac=0.6/seed=42":   "c347adbddb19e72ae6252baa541934ddcac4fb52ee6f6659503b7a4ec01878e7",
		"frames=8192/frac=0.8/seed=1":    "98f61ae6607222d1c775c6fe31c359c6419cb8a9c5d252cc93eb76748d199353",
		"frames=8192/frac=0.8/seed=42":   "9969c393d059c60d276005db731a865b4c4196183abbe594accc0837c4b02878",
		"frames=33792/frac=0.2/seed=1":   "db21ede8d6799d9ed296ac9492a76db3c60a642b3e35ec5c58c949140cc9731e",
		"frames=33792/frac=0.2/seed=42":  "c9b8ca2450064aa105cc49c3554501b0f0956dea43e67f4b0a70cf943248d97e",
		"frames=33792/frac=0.6/seed=1":   "b60e5c2e9fee1e936ecfb8e759cd7a2d4939b3cd254bfd188499dc3ca90a487a",
		"frames=33792/frac=0.6/seed=42":  "cdf3b03948b713f1b4a299e1995b342d90cf0f0623498709062e13f641ea0eb7",
		"frames=33792/frac=0.8/seed=1":   "63abb907a6f46b6e523224ce0764d43926ae6c6d029e486b5a84d9e7f976e8b7",
		"frames=33792/frac=0.8/seed=42":  "cad1c81838288cb3fd86f9aedc945a5c65c17dbca0e1b57dec1c80a3ad320373",
		"frames=262144/frac=0.2/seed=1":  "eccd6e968298ee7b1e7adde89466d14377879162ee993fb62afc1def9071b04d",
		"frames=262144/frac=0.2/seed=42": "059f396f9b2937c77bf7065dfceb8783ba6943da053bde351503e832e123bad0",
		"frames=262144/frac=0.6/seed=1":  "e90e71592d576056ece975f83fd085c16b58ec8834fc332ce68ebca834cfd3f4",
		"frames=262144/frac=0.6/seed=42": "500d453b8a85e0182bf346722f14c519e7ba72363b1d31d4ef9392f1fdba4bc9",
		"frames=262144/frac=0.8/seed=1":  "7d67a4e0a3d90739707db4f27b8e321e0fb2d4e6ef370c6d86e7a384879bd69d",
		"frames=262144/frac=0.8/seed=42": "195f3fd89871816b4b57d6116143e7e82cdce92c5a5417d7ccfeb05010764c8b",
	}
	for _, frames := range []uint64{1283, 8192, 33792, 262144} {
		for _, frac := range []float64{0.2, 0.6, 0.8} {
			for _, seed := range []uint64{1, 42} {
				name := fmt.Sprintf("frames=%d/frac=%v/seed=%d", frames, frac, seed)
				got := memhogDigest(frames, frac, seed, 1500)
				if got != want[name] {
					t.Errorf("%s: digest %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// polluteLike applies the experiments' pollution settings for a memhog
// load of frac: loads of half of memory or more pin most chunks and
// scatter the pinned ones.
func polluteLike(hog *Memhog, frac float64) {
	if frac < 0.5 {
		return
	}
	hog.UnmovableFrac = min(0.25+(frac-0.4)*1.75, 0.95)
	hog.UnmovableScatterFrac = min((frac-0.4)*4, 1)
}

// memhogDigest runs one digest case and returns its hex SHA-256.
func memhogDigest(frames uint64, frac float64, seed uint64, n int) string {
	b := NewBuddy(frames * addr.Size4K)
	hog := NewMemhog(b, simrand.New(seed^0x9e37))
	polluteLike(hog, frac)
	rng := simrand.New(seed)
	h := sha256.New()
	put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	putOK := func(v uint64, ok bool) {
		put(v)
		if ok {
			put(1)
		} else {
			put(0)
		}
	}
	put(hog.Run(frac))
	hashBuddyState(h, b, hog)

	type block struct {
		frame uint64
		order uint
	}
	var live []block
	keep := func(frame uint64, order uint, ok bool) {
		putOK(frame, ok)
		if ok {
			live = append(live, block{frame, order})
		}
	}
	level := frac
	for i := 0; i < n; i++ {
		switch op := rng.Intn(100); {
		case op < 20:
			order := uint(rng.Intn(11))
			f, ok := b.AllocOrder(order)
			keep(f, order, ok)
		case op < 50:
			if len(live) > 0 {
				j := rng.Intn(len(live))
				b.Free(live[j].frame, live[j].order)
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		case op < 65:
			order := uint(rng.Intn(10))
			f := rng.Uint64n(frames) &^ (1<<order - 1)
			keep(f, order, b.AllocBlockAt(f, order))
		case op < 80:
			f := rng.Uint64n(frames + 8) // a few past the end
			keep(f, 0, b.AllocFrameAt(f))
		case op < 92:
			f, ok := b.AllocRandomFrame(rng)
			keep(f, 0, ok)
		case op < 98:
			order := uint(rng.Intn(10))
			f, ok := hog.CompactFor(order)
			keep(f, order, ok)
		default:
			level *= 0.8
			put(hog.Run(level))
		}
		put(b.FreeFrames())
		order, ok := b.LargestFreeOrder()
		putOK(uint64(order), ok)
		if i%250 == 249 {
			hashBuddyState(h, b, hog)
		}
	}
	hog.Release()
	hashBuddyState(h, b, hog)
	return hex.EncodeToString(h.Sum(nil))
}

// hashBuddyState writes everything the allocator and the hog expose.
func hashBuddyState(h hash.Hash, b *Buddy, hog *Memhog) {
	put := func(v uint64) { binary.Write(h, binary.LittleEndian, v) }
	put(b.FreeFrames())
	for o := uint(0); o <= MaxOrder; o++ {
		put(b.FreeBlocksOfOrder(o))
	}
	order, ok := b.LargestFreeOrder()
	put(uint64(order))
	if ok {
		put(1)
	} else {
		put(0)
	}
	var word uint64
	for f := uint64(0); f < b.TotalFrames(); f++ {
		if b.FrameFree(f) {
			word |= 1 << (f % 64)
		}
		if f%64 == 63 || f == b.TotalFrames()-1 {
			put(word)
			word = 0
		}
	}
	hog.HeldFrames(func(f uint64) bool {
		put(f)
		return true
	})
	put(hog.Held())
	put(hog.Migrated)
}
