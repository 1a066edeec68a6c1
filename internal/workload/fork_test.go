package workload_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mixtlb/internal/addr"
	"mixtlb/internal/gpu"
	"mixtlb/internal/simrand"
	"mixtlb/internal/workload"
)

const (
	forkBase  = addr.V(0x10000000000)
	forkRefs  = 64 << 10
	forkChunk = 512
)

// TestForkMatchesFreshBuild checks that cursors of a built stream yield
// exactly what a fresh build with the same seed yields, for every catalog
// spec at TestCatalogStreamDigest's three footprints and every core's
// stream of every GPU kernel at 8 cores: a cursor forked from the
// unconsumed stream; a second cursor forked after the first drained 64 Ki
// refs; and two cursors drained in alternating 512-ref chunks, which
// diverge if they share a source. A mix whose components draw from its
// own source checks that a cursor keeps them on one copy. The built
// stream itself must still be at its start afterwards.
func TestForkMatchesFreshBuild(t *testing.T) {
	footprints := []struct {
		name string
		size uint64
	}{
		{"256MiB", 256 << 20},
		{"768MiB+4KiB", 768<<20 + 4<<10},
		{"2KiB", 2 << 10},
	}
	for _, fp := range footprints {
		for _, spec := range workload.Catalog() {
			t.Run(spec.Name+"/"+fp.name, func(t *testing.T) {
				checkFork(t, func() []workload.Stream {
					return []workload.Stream{spec.Build(forkBase, fp.size, simrand.New(42))}
				})
			})
		}
	}
	// Components drawing from their mix's own source must keep drawing
	// from one source in a cursor.
	t.Run("shared-source", func(t *testing.T) {
		checkFork(t, func() []workload.Stream {
			rng := simrand.New(42)
			return []workload.Stream{workload.MustMix(rng,
				workload.Weighted{Stream: workload.NewUniform(forkBase, 1<<24, rng, 0.3, 1), Weight: 0.4},
				workload.Weighted{Stream: workload.NewZipf(forkBase, 1<<24, rng, 0.99, 0.1, 2), Weight: 0.3},
				workload.Weighted{Stream: workload.NewHashTable(forkBase, 1<<24, rng, 0.9, 0.1, 3), Weight: 0.3})}
		})
	})
	// A 2 KiB footprint cut into 8 tiles is smaller than the kernels'
	// rows, so the GPU kernels run at the two larger footprints only.
	for _, fp := range footprints[:2] {
		for _, k := range gpu.Kernels() {
			t.Run("gpu/"+k.Name+"/"+fp.name, func(t *testing.T) {
				checkFork(t, func() []workload.Stream {
					return k.Streams(8, forkBase, fp.size, 42)
				})
			})
		}
	}
}

// checkFork runs TestForkMatchesFreshBuild's checks on every stream
// build returns, against a second call's streams as the fresh build.
func checkFork(t *testing.T, build func() []workload.Stream) {
	t.Helper()
	fresh, built := build(), build()
	for i, b := range built {
		want := drain(fresh[i], forkRefs)
		first := workload.Fork(b)
		expect(t, fmt.Sprintf("stream %d: first cursor", i), drain(first, forkRefs), want)
		expect(t, fmt.Sprintf("stream %d: cursor forked after another drained", i),
			drain(workload.Fork(b), forkRefs), want)
		x, y := workload.Fork(b), workload.Fork(b)
		gx, gy := make([]workload.Ref, forkRefs), make([]workload.Ref, forkRefs)
		for n := 0; n < forkRefs; n += forkChunk {
			workload.FillBatch(x, gx[n:n+forkChunk])
			workload.FillBatch(y, gy[n:n+forkChunk])
		}
		expect(t, fmt.Sprintf("stream %d: alternating cursor A", i), gx, want)
		expect(t, fmt.Sprintf("stream %d: alternating cursor B", i), gy, want)
		expect(t, fmt.Sprintf("stream %d: built stream after forks", i), drain(b, forkRefs), want)
	}
}

// drain returns s's next n refs, drawn through FillBatch in 512-ref
// chunks.
func drain(s workload.Stream, n int) []workload.Ref {
	out := make([]workload.Ref, n)
	for i := 0; i < n; i += forkChunk {
		workload.FillBatch(s, out[i:min(i+forkChunk, n)])
	}
	return out
}

// expect fails the test at the first ref where got and want differ.
func expect(t *testing.T, what string, got, want []workload.Ref) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: ref %d = %+v, want %+v", what, i, got[i], want[i])
			return
		}
	}
}

// mcfStream builds the catalog's mcf stream at 256 MiB, where its chase
// order reaches the 4 Mi-node cap.
func mcfStream(t *testing.T) workload.Stream {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Build(forkBase, 256<<20, simrand.New(42))
}

// TestForkCursorsDrainConcurrently drains two cursors of one stream on
// two goroutines; under -race it checks that cursors share only what is
// read-only.
func TestForkCursorsDrainConcurrently(t *testing.T) {
	built := mcfStream(t)
	got := make([][]workload.Ref, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = drain(workload.Fork(built), forkRefs)
		}()
	}
	wg.Wait()
	want := drain(built, forkRefs)
	expect(t, "goroutine 0's cursor", got[0], want)
	expect(t, "goroutine 1's cursor", got[1], want)
}

var sinkStream workload.Stream

// TestForkBytes pins a cursor's cost: forking a 256 MiB mcf stream, whose
// chase order holds 16 MiB, allocates under 4 KiB, so the order is shared,
// never copied.
func TestForkBytes(t *testing.T) {
	if workload.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	built := mcfStream(t)
	const forks = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < forks; i++ {
		sinkStream = workload.Fork(built)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / forks; per >= 4<<10 {
		t.Errorf("Fork of a 256 MiB mcf stream allocates %d bytes, want under 4096", per)
	}
}

// TestForkRejectsForeignStream checks that Fork names a stream it cannot
// fork instead of returning a cursor that shares its state.
func TestForkRejectsForeignStream(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Fork of a foreign stream did not panic")
		}
	}()
	workload.Fork(foreign{})
}

// foreign is a Stream from outside the pattern library.
type foreign struct{}

func (foreign) Next() workload.Ref { return workload.Ref{} }
