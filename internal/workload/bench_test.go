package workload

import (
	"testing"

	"mixtlb/internal/simrand"
)

// benchFootprint takes every chase to its 4 Mi-node cap.
const benchFootprint = 256 << 20

var sinkStream Stream

// BenchmarkBuild times building each catalog stream over benchFootprint.
func BenchmarkBuild(b *testing.B) {
	for _, spec := range Catalog() {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkStream = spec.Build(0x10000000000, benchFootprint, simrand.New(uint64(i)))
			}
		})
	}
}

// BenchmarkFork times forking a cursor from each catalog stream, built
// once over benchFootprint: the per-design cost that replaces a build.
func BenchmarkFork(b *testing.B) {
	for _, spec := range Catalog() {
		b.Run(spec.Name, func(b *testing.B) {
			s := spec.Build(0x10000000000, benchFootprint, simrand.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkStream = Fork(s)
			}
		})
	}
}

// BenchmarkNextBatch times one 512-ref FillBatch from each catalog
// stream, built once over benchFootprint.
func BenchmarkNextBatch(b *testing.B) {
	for _, spec := range Catalog() {
		b.Run(spec.Name, func(b *testing.B) {
			s := spec.Build(0x10000000000, benchFootprint, simrand.New(1))
			buf := make([]Ref, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FillBatch(s, buf)
			}
		})
	}
}
