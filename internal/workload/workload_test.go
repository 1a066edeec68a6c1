package workload

import (
	"runtime"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

const testFootprint = 64 << 20

func buildAll(t *testing.T, seed uint64) map[string]Stream {
	t.Helper()
	out := make(map[string]Stream)
	for _, spec := range Catalog() {
		out[spec.Name] = spec.Build(0x10000000000, testFootprint, simrand.New(seed))
	}
	return out
}

func TestAllStreamsStayInFootprint(t *testing.T) {
	base := addr.V(0x10000000000)
	for name, s := range buildAll(t, 1) {
		for i := 0; i < 100000; i++ {
			ref := s.Next()
			if ref.VA < base || uint64(ref.VA) >= uint64(base)+testFootprint {
				t.Fatalf("%s ref %d out of footprint: %v", name, i, ref.VA)
			}
		}
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	a := buildAll(t, 7)
	b := buildAll(t, 7)
	for name := range a {
		for i := 0; i < 10000; i++ {
			if a[name].Next() != b[name].Next() {
				t.Fatalf("%s diverged at ref %d", name, i)
			}
		}
	}
}

func TestStreamsDifferAcrossSeeds(t *testing.T) {
	a := buildAll(t, 1)
	b := buildAll(t, 2)
	// Deterministic-pattern workloads (cactus) are seed-independent;
	// check a random-heavy one.
	same := 0
	for i := 0; i < 1000; i++ {
		if a["gups"].Next() == b["gups"].Next() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("gups streams nearly identical across seeds (%d/1000)", same)
	}
}

func TestCatalogCoverage(t *testing.T) {
	specs := Catalog()
	if len(specs) < 10 {
		t.Fatalf("catalog has only %d workloads", len(specs))
	}
	classes := map[Class]int{}
	for _, s := range specs {
		classes[s.Class]++
		if s.BaseCPI <= 0 || s.RefsPerInstr <= 0 || s.RefsPerInstr > 1 {
			t.Errorf("%s has implausible model params: %+v", s.Name, s)
		}
		if s.Build == nil {
			t.Errorf("%s has no builder", s.Name)
		}
	}
	if classes[SpecParsec] < 4 || classes[BigMemory] < 4 {
		t.Errorf("class balance: %v", classes)
	}
	if SpecParsec.String() == "" || BigMemory.String() == "" {
		t.Error("class names empty")
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("mcf")
	if err != nil || s.Name != "mcf" {
		t.Errorf("ByName(mcf) = %v, %v", s, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) succeeded")
	}
	if len(Names()) != len(Catalog()) {
		t.Error("Names length mismatch")
	}
}

// TestLocalityClasses verifies the defining locality property of key
// stream archetypes: distinct pages touched in a fixed window must be
// low for sequential, high for uniform random, medium for Zipf.
func TestLocalityClasses(t *testing.T) {
	distinctPages := func(s Stream, n int) int {
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			seen[s.Next().VA.VPN4K()] = true
		}
		return len(seen)
	}
	const window = 20000
	rng := simrand.New(3)
	r := region{0x10000000000, testFootprint}
	seq := distinctPages(newSeq(r, 64, false, 0), window)
	uni := distinctPages(newUniform(r, rng.Split(), 0, 0), window)
	zip := distinctPages(newZipf(r, rng.Split(), 0.99, 0, 0), window)
	if seq >= zip || zip >= uni {
		t.Errorf("locality ordering violated: seq=%d zipf=%d uniform=%d", seq, uni, zip)
	}
	// GUPS over 64MB: nearly every access is a distinct page.
	if uni < window/2 {
		t.Errorf("uniform stream touched only %d distinct pages", uni)
	}
	// Sequential with 64B stride: one new page per 64 refs.
	if seq > window/32 {
		t.Errorf("sequential stream touched %d distinct pages", seq)
	}
}

func TestChaseVisitsFullCycle(t *testing.T) {
	rng := simrand.New(5)
	r := region{0, 1 << 20} // 16K nodes
	c := newChase(r, rng, 0)
	nodes := int(r.size / chaseNodeBytes)
	first := c.Next()
	seen := map[addr.V]bool{first.VA: true}
	for i := 1; i < nodes; i++ {
		va := c.Next().VA
		if seen[va] {
			t.Fatalf("ref %d revisits %v inside the %d-node period", i, va, nodes)
		}
		seen[va] = true
	}
	// A single cycle through every node: the period is exactly nodes.
	if again := c.Next(); again != first {
		t.Errorf("ref %d = %+v, want the first ref %+v", nodes, again, first)
	}
}

// TestChaseBuildBytes pins a chase stream's build to one 4-byte array
// entry per node, plus a few small objects.
func TestChaseBuildBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const size = 64 << 20 // 1 Mi nodes
	rng := simrand.New(9)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := newChase(region{0, size}, rng, 0)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	nodes := uint64(size / chaseNodeBytes)
	if got, limit := after.TotalAlloc-before.TotalAlloc, 4*nodes+4096; got > limit {
		t.Errorf("newChase over %d nodes allocated %d bytes, want at most %d", nodes, got, limit)
	}
}

func TestWritesFlow(t *testing.T) {
	for _, name := range []string{"gups", "memcached", "canneal", "xz"} {
		spec, _ := ByName(name)
		s := spec.Build(0, testFootprint, simrand.New(11))
		writes := 0
		for i := 0; i < 10000; i++ {
			if s.Next().Write {
				writes++
			}
		}
		if writes == 0 {
			t.Errorf("%s issued no writes", name)
		}
	}
}

func TestPCsAreStableAndDistinct(t *testing.T) {
	if pc("mcf", 0) != pc("mcf", 0) {
		t.Error("pc not stable")
	}
	if pc("mcf", 0) == pc("mcf", 1) || pc("mcf", 0) == pc("gups", 0) {
		t.Error("pc collisions")
	}
	// Streams attach PCs.
	spec, _ := ByName("mcf")
	s := spec.Build(0, testFootprint, simrand.New(1))
	pcs := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		pcs[s.Next().PC] = true
	}
	if len(pcs) < 2 {
		t.Errorf("mcf uses %d distinct PCs", len(pcs))
	}
}

func TestMixWeights(t *testing.T) {
	rng := simrand.New(13)
	a := newSeq(region{0, 1 << 20}, 64, false, 111)
	b := newSeq(region{1 << 30, 1 << 20}, 64, false, 222)
	m := newMix(rng, weighted{a, 0.9}, weighted{b, 0.1})
	fromA := 0
	for i := 0; i < 10000; i++ {
		if m.Next().PC == 111 {
			fromA++
		}
	}
	if fromA < 8500 || fromA > 9500 {
		t.Errorf("mix delivered %d/10000 from the 0.9 component", fromA)
	}
}
