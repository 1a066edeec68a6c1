package mmu

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// allTestDesigns is every comparable design plus the superpage-index
// ablation and the cache-backed victim designs, so equivalence
// guarantees cover the full catalog.
func allTestDesigns() []string {
	return append(AllDesigns(), DesignMixSuperIndex,
		DesignVictima, DesignMixVictima, DesignVictimaLite)
}

// mappedPage is one pre-mapped page available to the randomized stream.
type mappedPage struct {
	va   addr.V
	size addr.PageSize
}

// buildRefEnv maps a deterministic spread of 1GB, 2MB, and 4KB pages —
// enough 4KB pages to overflow both TLB levels so steady state keeps
// walking and filling — and returns the env plus the mapped page list.
func buildRefEnv(t *testing.T, pages4k int) (*env, []mappedPage) {
	t.Helper()
	e := newEnv(t)
	var mapped []mappedPage
	giga := addr.V(1) << 30
	e.mapPage(t, giga, addr.Page1G)
	mapped = append(mapped, mappedPage{giga, addr.Page1G})
	for i := 0; i < 6; i++ {
		va := addr.V(1<<33) + addr.V(i)<<21
		e.mapPage(t, va, addr.Page2M)
		mapped = append(mapped, mappedPage{va, addr.Page2M})
	}
	for i := 0; i < pages4k; i++ {
		va := addr.V(1<<34) + addr.V(i)<<12
		e.mapPage(t, va, addr.Page4K)
		mapped = append(mapped, mappedPage{va, addr.Page4K})
	}
	return e, mapped
}

// randomRequests generates a reproducible request stream over the mapped
// pages: random page, random in-page offset, 30% stores, PCs drawn from a
// small set (so size predictors train), and a 50% chance of staying on the
// previous page (so the same-page replay memo is exercised heavily).
func randomRequests(seed uint64, mapped []mappedPage, n int) []tlb.Request {
	rng := simrand.New(seed)
	reqs := make([]tlb.Request, n)
	prev := mapped[0]
	for i := range reqs {
		p := prev
		if rng.Float64() < 0.5 {
			p = mapped[rng.Intn(len(mapped))]
			prev = p
		}
		off := addr.V(rng.Uint64n(p.size.Bytes()) &^ 7)
		reqs[i] = tlb.Request{
			VA:    p.va + off,
			Write: rng.Bool(0.3),
			PC:    0x400000 + 64*rng.Uint64n(8),
		}
	}
	return reqs
}

func buildDesign(t *testing.T, d string, pages4k int) *MMU {
	t.Helper()
	e, _ := buildRefEnv(t, pages4k)
	m, err := DefaultRegistry().Build(d, e.pt, e.pt, e.caches, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTranslateBatchMatchesScalar drives the same randomized stream
// through three MMUs per design — scalar Translate, TranslateBatch in
// mixed chunk sizes, and scalar with the replay memo disabled — and
// requires identical per-access Results and identical final Stats from
// all three.
func TestTranslateBatchMatchesScalar(t *testing.T) {
	const pages4k = 1024
	for _, d := range allTestDesigns() {
		t.Run(d, func(t *testing.T) {
			_, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0xfeed+uint64(len(d)), mapped, 20000)

			scalar := buildDesign(t, d, pages4k)
			batch := buildDesign(t, d, pages4k)
			nomemo := buildDesign(t, d, pages4k)
			nomemo.DisableMemo()

			want := make([]Result, len(reqs))
			for i, r := range reqs {
				want[i] = scalar.Translate(r)
			}

			got := make([]Result, len(reqs))
			chunks := []int{1, 3, 64, 512}
			for i, c := 0, 0; i < len(reqs); c++ {
				n := chunks[c%len(chunks)]
				if i+n > len(reqs) {
					n = len(reqs) - i
				}
				if k := batch.TranslateBatch(reqs[i:i+n], got[i:i+n]); k != n {
					t.Fatalf("TranslateBatch stopped at %d of %d (req %d)", k, n, i)
				}
				i += n
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("req %d (%+v): batch %+v, scalar %+v", i, reqs[i], got[i], want[i])
				}
			}
			if bs, ss := batch.Stats(), scalar.Stats(); bs != ss {
				t.Errorf("batch stats %+v\nscalar stats %+v", bs, ss)
			}

			for i, r := range reqs {
				if nr := nomemo.Translate(r); nr != want[i] {
					t.Fatalf("req %d (%+v): memo-off %+v, memo-on %+v", i, reqs[i], nr, want[i])
				}
			}
			if ns, ss := nomemo.Stats(), scalar.Stats(); ns != ss {
				t.Errorf("memo-off stats %+v\nmemo-on stats %+v", ns, ss)
			}
		})
	}
}

// TestTranslateBatchFaultStops verifies the batch contract: translation
// stops after the first faulted result and reports how many results were
// produced.
func TestTranslateBatchFaultStops(t *testing.T) {
	e, mapped := buildRefEnv(t, 4)
	m, err := DefaultRegistry().Build(DesignSplit, e.pt, e.pt, e.caches, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []tlb.Request{
		{VA: mapped[0].va},
		{VA: 0x7fff00000000}, // unmapped, no fault handler
		{VA: mapped[1].va},
	}
	out := make([]Result, len(reqs))
	if k := m.TranslateBatch(reqs, out); k != 2 {
		t.Fatalf("TranslateBatch = %d, want 2", k)
	}
	if out[0].Faulted || !out[1].Faulted {
		t.Fatalf("results: %+v", out[:2])
	}
}

// TestTranslateZeroAlloc pins the steady-state translation loop — L1/L2
// lookups, fills, fused walks, and the replay memo — at zero heap
// allocations per access for every design.
func TestTranslateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	const pages4k = 1024
	for _, d := range allTestDesigns() {
		t.Run(d, func(t *testing.T) {
			_, mapped := buildRefEnv(t, pages4k)
			reqs := randomRequests(0xa110c+uint64(len(d)), mapped, 4096)
			m := buildDesign(t, d, pages4k)
			// Warm up: touch (and dirty) every page so the measured loop
			// sees only steady-state hits, capacity misses, and refills.
			for _, r := range reqs {
				m.Translate(r)
			}
			i := 0
			avg := testing.AllocsPerRun(20, func() {
				for j := 0; j < 256; j++ {
					m.Translate(reqs[i%len(reqs)])
					i++
				}
			})
			if avg != 0 {
				t.Errorf("Translate allocates %.2f times per 256 accesses in steady state", avg)
			}
		})
	}
}
