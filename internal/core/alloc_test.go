package core

import (
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/pagetable"
	"mixtlb/internal/simrand"
	"mixtlb/internal/tlb"
)

// TestMixZeroAlloc pins Fill, Promote and Lookup on a warm MIX TLB at zero
// heap allocations: the tag/payload arrays and scratch slices are sized
// once in New, so the steady-state fill and probe paths never allocate.
// check.sh runs this test by name beside the MMU's zero-alloc guards.
func TestMixZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	small := L1Config()
	small.Name, small.SmallCoalesce = "small-coalesce", 4
	for _, cfg := range []Config{L1Config(), L2Config(), L2RangeConfig(), small} {
		t.Run(cfg.Name, func(t *testing.T) {
			m := mustNew(cfg)
			walks := warmFillWalks(cfg, 4*cfg.Ways, 512, simrand.New(3))
			// 4KB lines: plain entries, or bundles under SmallCoalesce.
			for vpn := uint64(1 << 20); vpn < 1<<20+256; vpn += 8 {
				line := make([]pagetable.Translation, 8)
				for s := range line {
					line[s] = tr(vpn+uint64(s), vpn+uint64(s)+1<<24, addr.Page4K)
				}
				walks = append(walks, walkOf(line...))
			}
			for _, w := range walks {
				fill(m, w)
			}
			i := 0
			ops := map[string]func(){
				"Fill": func() { fill(m, walks[i%len(walks)]) },
				"Promote": func() {
					w := walks[i%len(walks)]
					m.Promote(tlb.Request{VA: w.Translation.VA}, w.Translation, w.Line)
				},
				"PromoteNoLine": func() {
					w := walks[i%len(walks)]
					m.Promote(tlb.Request{VA: w.Translation.VA}, w.Translation, nil)
				},
				"Lookup": func() { look(m, walks[i%len(walks)].Line[i%8].VA) },
			}
			for name, op := range ops {
				avg := testing.AllocsPerRun(20, func() {
					for j := 0; j < 256; j++ {
						op()
						i++
					}
				})
				if avg != 0 {
					t.Errorf("%s allocates %.2f times per 256 calls", name, avg)
				}
			}
		})
	}
}
