package physmem

import (
	"fmt"
	"testing"

	"mixtlb/internal/simrand"
)

// BenchmarkMemhogRun builds 1 GiB of physical memory and fragments 80% of
// it with memhog under the experiments' pollution settings for that load:
// the set-up every heavily loaded experiment cell pays before it runs.
func BenchmarkMemhogRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buddy := NewBuddy(1 << 30)
		hog := NewMemhog(buddy, simrand.New(42^0x9e37))
		polluteLike(hog, 0.8)
		hog.Run(0.8)
	}
}

// BenchmarkAllocBlockAt claims ascending aligned blocks of one order by
// address from 1 GiB of memory, starting over on a fresh allocator when
// memory runs out.
func BenchmarkAllocBlockAt(b *testing.B) {
	for _, order := range []uint{0, 9} {
		b.Run(fmt.Sprintf("order=%d", order), func(b *testing.B) {
			buddy := NewBuddy(1 << 30)
			var frame uint64
			for i := 0; i < b.N; i++ {
				if frame >= buddy.TotalFrames() {
					b.StopTimer()
					buddy, frame = NewBuddy(1<<30), 0
					b.StartTimer()
				}
				if !buddy.AllocBlockAt(frame, order) {
					b.Fatalf("AllocBlockAt(%d, %d) failed on free memory", frame, order)
				}
				frame += 1 << order
			}
		})
	}
}

// BenchmarkAllocOrder allocates single frames lowest-first from 4 GiB of
// memory, starting over on a fresh allocator when memory runs out.
func BenchmarkAllocOrder(b *testing.B) {
	buddy := NewBuddy(4 << 30)
	for i := 0; i < b.N; i++ {
		if _, ok := buddy.AllocOrder(0); !ok {
			b.StopTimer()
			buddy = NewBuddy(4 << 30)
			b.StartTimer()
		}
	}
}
