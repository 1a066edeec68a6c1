package workload

import (
	"errors"
	"math"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

// generatorCases builds one fresh, deterministically-seeded instance of
// every pattern generator per call, so two calls yield independent streams
// producing identical sequences.
func generatorCases() []struct {
	name  string
	build func() Stream
} {
	const base = addr.V(1 << 32)
	return []struct {
		name  string
		build func() Stream
	}{
		{"seq", func() Stream { return NewSequential(base, 1<<22, 64, false, 7) }},
		{"uniform", func() Stream { return NewUniform(base, 1<<24, simrand.New(11), 0.3, 7) }},
		{"zipf", func() Stream { return NewZipf(base, 1<<24, simrand.New(12), 0.99, 0.2, 7) }},
		{"chase", func() Stream { return NewPointerChase(base, 1<<22, simrand.New(13), 7) }},
		{"hash", func() Stream { return NewHashTable(base, 1<<24, simrand.New(14), 0.99, 0.1, 7) }},
		{"stencil", func() Stream { return NewStencil(base, 1<<22, 4096, 7) }},
		{"mix", func() Stream {
			return MustMix(simrand.New(15),
				Weighted{Stream: NewSequential(base, 1<<22, 64, false, 1), Weight: 0.4},
				Weighted{Stream: NewUniform(base, 1<<24, simrand.New(16), 0.3, 2), Weight: 0.4},
				Weighted{Stream: NewStencil(base, 1<<22, 4096, 3), Weight: 0.2})
		}},
	}
}

// TestNextBatchMatchesNext verifies the BatchStream contract for every
// generator: NextBatch over ragged buffer sizes reproduces the scalar
// Next sequence exactly, including RNG consumption.
func TestNextBatchMatchesNext(t *testing.T) {
	const total = 10000
	sizes := []int{1, 3, 32, 257, 512}
	for _, tc := range generatorCases() {
		t.Run(tc.name, func(t *testing.T) {
			scalar, batched := tc.build(), tc.build()
			if _, ok := batched.(BatchStream); !ok {
				t.Fatalf("%T does not implement BatchStream", batched)
			}
			want := make([]Ref, total)
			for i := range want {
				want[i] = scalar.Next()
			}
			got := make([]Ref, 0, total)
			buf := make([]Ref, 512)
			for c := 0; len(got) < total; c++ {
				n := sizes[c%len(sizes)]
				if rem := total - len(got); n > rem {
					n = rem
				}
				if k := FillBatch(batched, buf[:n]); k != n {
					t.Fatalf("FillBatch = %d, want %d", k, n)
				}
				got = append(got, buf[:n]...)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ref %d: batch %+v, scalar %+v", i, got[i], want[i])
				}
			}
		})
	}
}

// TestFillBatchFallback checks that a Stream without NextBatch still fills
// the buffer via scalar Next calls.
func TestFillBatchFallback(t *testing.T) {
	s := scalarOnly{next: NewSequential(0x1000, 1<<20, 8, false, 1)}
	buf := make([]Ref, 64)
	if k := FillBatch(s, buf); k != len(buf) {
		t.Fatalf("FillBatch = %d, want %d", k, len(buf))
	}
	want := NewSequential(0x1000, 1<<20, 8, false, 1)
	for i := range buf {
		if r := want.Next(); buf[i] != r {
			t.Fatalf("ref %d: %+v, want %+v", i, buf[i], r)
		}
	}
}

// scalarOnly hides a stream's NextBatch so FillBatch takes the fallback.
type scalarOnly struct{ next Stream }

func (s scalarOnly) Next() Ref { return s.next.Next() }

// TestNextBatchZeroAlloc pins steady-state NextBatch at zero heap
// allocations for every generator, built and forked.
func TestNextBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, tc := range generatorCases() {
		for _, cursor := range []bool{false, true} {
			name, s := tc.name, tc.build()
			if cursor {
				name, s = name+"/fork", Fork(s)
			}
			t.Run(name, func(t *testing.T) {
				bs := s.(BatchStream)
				buf := make([]Ref, 512)
				bs.NextBatch(buf) // warm up
				if avg := testing.AllocsPerRun(20, func() { bs.NextBatch(buf) }); avg != 0 {
					t.Errorf("NextBatch allocates %.2f times per 512 refs", avg)
				}
			})
		}
	}
}

func TestNewMixValidation(t *testing.T) {
	base := addr.V(1 << 32)
	part := func(w float64) Weighted {
		return Weighted{Stream: NewSequential(base, 1<<20, 8, false, 1), Weight: w}
	}
	cases := []struct {
		name      string
		parts     []Weighted
		wantIndex int
	}{
		{"negative", []Weighted{part(0.5), part(-0.1)}, 1},
		{"nan", []Weighted{part(math.NaN())}, 0},
		{"inf", []Weighted{part(math.Inf(1))}, 0},
		{"all-zero", []Weighted{part(0), part(0)}, -1},
		{"empty", nil, -1},
		{"nil-stream", []Weighted{{Stream: nil, Weight: 1}}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewMix(simrand.New(1), tc.parts...)
			if s != nil || err == nil {
				t.Fatalf("NewMix = (%v, %v), want a *MixWeightError", s, err)
			}
			var me *MixWeightError
			if !errors.As(err, &me) {
				t.Fatalf("error type %T, want *MixWeightError", err)
			}
			if me.Index != tc.wantIndex {
				t.Errorf("Index = %d, want %d", me.Index, tc.wantIndex)
			}
			if me.Error() == "" {
				t.Error("empty error message")
			}
		})
	}

	t.Run("valid", func(t *testing.T) {
		s, err := NewMix(simrand.New(1), part(0.6), part(0.4))
		if err != nil || s == nil {
			t.Fatalf("NewMix = (%v, %v)", s, err)
		}
	})
	t.Run("oversubscribed-rescales", func(t *testing.T) {
		s, err := NewMix(simrand.New(1), part(3), part(1))
		if err != nil || s == nil {
			t.Fatalf("NewMix = (%v, %v)", s, err)
		}
		m := s.(*mixStream)
		if got := m.weights[0] + m.weights[1]; math.Abs(got-1) > 1e-12 {
			t.Errorf("rescaled weights sum to %v, want 1", got)
		}
	})
	t.Run("must-mix-panics", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("MustMix did not panic on an invalid spec")
			}
		}()
		MustMix(simrand.New(1), part(-1))
	})
}
