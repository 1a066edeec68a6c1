package simrand

import "testing"

// uint64nReference is Uint64n as first written: a rejection loop with two
// 64-bit divisions per non-power-of-two draw, one for the rejection
// threshold and one for the result.
func uint64nReference(s *Source, n uint64) uint64 {
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := s.Uint64()
		if v < max {
			return v % n
		}
	}
}

// TestUint64nMatchesReference checks that Uint64n returns the reference's
// values and leaves the source in the reference's state, rejections
// included: for n just above 2^63 about half of all draws are rejected.
func TestUint64nMatchesReference(t *testing.T) {
	for _, n := range []uint64{3, 6, 1e9 + 7, 1<<32 + 1, 1<<63 + 1, 1<<64 - 3, 1<<64 - 1} {
		got, want := New(n), New(n)
		for i := 0; i < 20000; i++ {
			if g, w := got.Uint64n(n), uint64nReference(want, n); g != w {
				t.Fatalf("n=%d draw %d: %d, want %d", n, i, g, w)
			}
		}
		if *got != *want {
			t.Errorf("n=%d: source state diverged from the reference", n)
		}
	}
}

// shuffleReference is Shuffle as first written: Fisher-Yates through a
// swap callback, one draw and one swap at a time.
func shuffleReference(s *Source, n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, s.Intn(i+1))
	}
}

// TestShuffleMatchesReference checks that the block-drawing Shuffle gives
// the reference's permutation and leaves the source in the reference's
// state, for lengths around one and two blocks and a ragged final block.
func TestShuffleMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 128, 129, 4097} {
		got, want := make([]uint32, n), make([]uint32, n)
		for i := range got {
			got[i], want[i] = uint32(i), uint32(i)
		}
		gs, ws := New(uint64(n)), New(uint64(n))
		gs.Shuffle(got)
		shuffleReference(ws, n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: p[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
		if *gs != *ws {
			t.Errorf("n=%d: source state diverged from the reference", n)
		}
	}
}
