// Package workload generates deterministic synthetic memory-reference
// streams that mimic the locality structure of the paper's evaluation
// workloads (Sec 6.4): Spec/PARSEC applications and big-memory server
// workloads (gups, graph processing, memcached, Cloudsuite).
//
// TLB behaviour is determined by the virtual-address stream's reuse and
// locality, not by instruction semantics, so each named workload is a
// composition of a small pattern library — sequential scans, strides,
// uniform and Zipf-distributed random access, pointer chasing, hash-table
// probing, and stencils — with footprints that dwarf TLB reach.
//
// A stream splits into what is built once and what a run consumes.
// Building fixes the read-only part: a chase's node order, a Zipf
// stream's page permutation and sampler constants, every region and
// stride. A run consumes positions and random sources. Fork gives a
// cursor that shares the built part and copies the run state, so several
// designs can replay one stream without rebuilding it, each yielding
// exactly the references a fresh build would.
package workload

import (
	"slices"

	"mixtlb/internal/addr"
	"mixtlb/internal/simrand"
)

// Ref is one memory reference presented to an MMU.
type Ref struct {
	VA    addr.V
	Write bool
	PC    uint64 // issuing instruction, for page-size predictors
}

// Stream is an infinite deterministic reference stream.
type Stream interface {
	Next() Ref
}

// region describes the VA window a pattern runs over.
type region struct {
	base addr.V
	size uint64
}

func (r region) at(off uint64) addr.V { return r.base + addr.V(off%r.size) }

// seqStream scans the region with a fixed stride, wrapping around — the
// streaming pattern of xz/streamcluster scans and BFS frontiers.
type seqStream struct {
	r      region
	stride uint64
	pos    uint64
	write  bool
	pc     uint64
}

func newSeq(r region, stride uint64, write bool, pc uint64) *seqStream {
	if stride == 0 {
		stride = 8
	}
	return &seqStream{r: r, stride: stride, write: write, pc: pc}
}

func (s *seqStream) Next() Ref {
	va := s.r.at(s.pos)
	s.pos += s.stride
	return Ref{VA: va, Write: s.write, PC: s.pc}
}

// uniformStream touches uniformly random words — gups and canneal's
// essence, the TLB worst case.
type uniformStream struct {
	r     region
	rng   *simrand.Source
	write float64
	pc    uint64
}

func newUniform(r region, rng *simrand.Source, writeFrac float64, pc uint64) *uniformStream {
	return &uniformStream{r: r, rng: rng, write: writeFrac, pc: pc}
}

func (s *uniformStream) Next() Ref {
	off := s.rng.Uint64n(s.r.size) &^ 7
	return Ref{VA: s.r.at(off), Write: s.rng.Bool(s.write), PC: s.pc}
}

// zipfStream touches pages with Zipf-distributed popularity and a random
// offset within the page — hot-set behaviour of key-value stores and
// graph vertices.
type zipfStream struct {
	r     region
	z     *simrand.Zipf
	rng   *simrand.Source
	perm  []uint32 // page permutation so hot pages scatter across the VA space
	write float64
	pc    uint64
}

func newZipf(r region, rng *simrand.Source, theta, writeFrac float64, pc uint64) *zipfStream {
	pages := r.size / addr.Size4K
	if pages == 0 {
		pages = 1
	}
	s := &zipfStream{
		r: r, rng: rng, write: writeFrac, pc: pc,
		z: simrand.NewZipf(rng.Split(), pages, theta),
	}
	// Scatter popularity ranks over the address space: real hot keys are
	// not physically clustered at the start of the heap.
	s.perm = make([]uint32, pages)
	for i := range s.perm {
		s.perm[i] = uint32(i)
	}
	rng.Split().Shuffle(s.perm)
	return s
}

func (s *zipfStream) Next() Ref {
	page := uint64(s.perm[s.z.Next()])
	off := page*addr.Size4K + (s.rng.Uint64n(addr.Size4K) &^ 7)
	return Ref{VA: s.r.at(off), Write: s.rng.Bool(s.write), PC: s.pc}
}

// chaseStream walks a random cycle over cache-line-sized nodes —
// mcf/omnetpp pointer chasing, the classic latency-bound pattern.
type chaseStream struct {
	r     region
	order []uint32 // shuffled node indexes, visited cyclically
	pos   int      // index in order of the next node
	span  uint64   // bytes between consecutive node indexes
	pc    uint64
}

// chaseNodeBytes spaces chase nodes a cache line apart within pages.
const chaseNodeBytes = 64

func newChase(r region, rng *simrand.Source, pc uint64) *chaseStream {
	nodes := r.size / chaseNodeBytes
	const maxNodes = 1 << 22 // cap index memory; reuse distance is plenty
	if nodes > maxNodes {
		nodes = maxNodes
	}
	if nodes < 2 {
		nodes = 2
	}
	// A Fisher-Yates shuffle of the nodes, visited cyclically, is a single
	// cycle through every node; the walk starts at node 0.
	order := make([]uint32, nodes)
	for i := range order {
		order[i] = uint32(i)
	}
	rng.Split().Shuffle(order)
	return &chaseStream{
		r: r, order: order, pos: slices.Index(order, 0), pc: pc,
		// Spread the capped node index space over the whole region so
		// large footprints are fully covered.
		span: r.size / nodes,
	}
}

func (s *chaseStream) Next() Ref {
	off := uint64(s.order[s.pos]) * s.span
	s.pos++
	if s.pos == len(s.order) {
		s.pos = 0
	}
	return Ref{VA: s.r.at(off &^ 7), PC: s.pc}
}

// hashStream models a hash-table: a Zipf-popular key hashes to a bucket
// (random page), then a short chain walk follows, optionally writing —
// memcached GET/SET structure.
type hashStream struct {
	r        region
	z        *simrand.Zipf
	rng      *simrand.Source
	chainLen int
	chainPos int
	curOff   uint64
	write    float64
	pc       uint64
}

func newHash(r region, rng *simrand.Source, theta, writeFrac float64, pc uint64) *hashStream {
	keys := r.size / 256
	if keys == 0 {
		keys = 1
	}
	return &hashStream{
		r: r, rng: rng, write: writeFrac, pc: pc,
		z: simrand.NewZipf(rng.Split(), keys, theta),
	}
}

func (s *hashStream) Next() Ref {
	if s.chainPos == 0 {
		key := s.z.Next()
		h := key * 0x9e3779b97f4a7c15
		s.curOff = (h % s.r.size) &^ 7
		s.chainLen = 1 + int(s.rng.Uint64n(3))
		s.chainPos = s.chainLen
	}
	s.chainPos--
	off := s.curOff
	// Chain entries live on different pages (separately allocated).
	s.curOff = (s.curOff + 0x13b000) % s.r.size
	write := s.chainPos == 0 && s.rng.Bool(s.write)
	return Ref{VA: s.r.at(off), Write: write, PC: s.pc}
}

// stencilStream sweeps a 2D grid touching the 5-point neighbourhood —
// cactusADM/hotspot structure: strong spatial locality with row-stride
// jumps.
type stencilStream struct {
	r        region
	rowBytes uint64
	pos      uint64
	phase    int
	pc       uint64
}

func newStencil(r region, rowBytes uint64, pc uint64) *stencilStream {
	if rowBytes == 0 || rowBytes > r.size {
		rowBytes = 1 << 20
	}
	return &stencilStream{r: r, rowBytes: rowBytes, pc: pc}
}

func (s *stencilStream) Next() Ref {
	var off uint64
	switch s.phase {
	case 0:
		off = s.pos
	case 1:
		off = s.pos + s.rowBytes // south
	case 2:
		off = s.pos + s.r.size - s.rowBytes // north (wrapped)
	case 3:
		off = s.pos + 8 // east; also advances the sweep
		s.pos += 8
	}
	write := s.phase == 3
	s.phase = (s.phase + 1) % 4
	return Ref{VA: s.r.at(off &^ 7), Write: write, PC: s.pc}
}

// mixStream interleaves component streams with fixed weights.
type mixStream struct {
	streams []Stream
	weights []float64
	rng     *simrand.Source
}

func newMix(rng *simrand.Source, parts ...weighted) *mixStream {
	m := &mixStream{rng: rng}
	for _, p := range parts {
		m.streams = append(m.streams, p.s)
		m.weights = append(m.weights, p.w)
	}
	return m
}

type weighted struct {
	s Stream
	w float64
}

func (m *mixStream) Next() Ref {
	x := m.rng.Float64()
	var cum float64
	for i, w := range m.weights {
		cum += w
		if x < cum {
			return m.streams[i].Next()
		}
	}
	return m.streams[len(m.streams)-1].Next()
}
