package simrand

import "testing"

var sinkU64 uint64

// BenchmarkShuffle times one shuffle of 4 Mi elements, the size of a
// capped chase stream's node order.
func BenchmarkShuffle(b *testing.B) {
	p := make([]uint32, 4<<20)
	for i := range p {
		p[i] = uint32(i)
	}
	s := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Shuffle(p)
	}
}

// BenchmarkUint64n times one draw below a bound that is not a power of
// two, so every draw takes the division path.
func BenchmarkUint64n(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		sinkU64 += s.Uint64n(1e9 + 7)
	}
}

// BenchmarkZipfNext times one Zipf sample over 64 Ki ranks, the page
// count of a 256 MiB Zipf stream, at the workloads' skew.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 1<<16, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkU64 += z.Next()
	}
}
