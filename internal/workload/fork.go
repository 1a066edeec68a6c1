package workload

import (
	"fmt"

	"mixtlb/internal/simrand"
)

// Fork returns a cursor over s: a stream that yields exactly the
// references s would yield from its current position, while s stays
// where it is. Cursors share what a build computed (chase order, Zipf
// permutation and constants, regions, strides), which is read-only, so
// forking a 4 Mi-node chase copies no node. Each cursor copies what a
// run consumes (positions and sources), one copy per source, so
// components that shared a source still share one. Cursors of one stream
// can be drained concurrently. s must come from this package's
// constructors; Fork panics on any other Stream.
func Fork(s Stream) Stream { return fork(s, sourceCopies{}) }

func fork(s Stream, srcs sourceCopies) Stream {
	f, ok := s.(forker)
	if !ok {
		panic(fmt.Sprintf("workload: Fork of %T, which is not a pattern-library stream", s))
	}
	return f.fork(srcs)
}

// forker is a pattern stream that can copy its run state for a cursor.
type forker interface {
	fork(sourceCopies) Stream
}

// sourceCopies maps each source of the stream being forked to its copy.
type sourceCopies map[*simrand.Source]*simrand.Source

// of returns src's copy, cloning src the first time it is seen.
func (c sourceCopies) of(src *simrand.Source) *simrand.Source {
	dup, ok := c[src]
	if !ok {
		dup = src.Clone()
		c[src] = dup
	}
	return dup
}

// clone returns a shallow copy of *p.
func clone[T any](p *T) *T {
	c := *p
	return &c
}

// Streams without a random source copy their position and share the rest.
func (s *seqStream) fork(sourceCopies) Stream     { return clone(s) }
func (s *chaseStream) fork(sourceCopies) Stream   { return clone(s) }
func (s *stencilStream) fork(sourceCopies) Stream { return clone(s) }

func (s *uniformStream) fork(srcs sourceCopies) Stream {
	c := clone(s)
	c.rng = srcs.of(s.rng)
	return c
}

func (s *zipfStream) fork(srcs sourceCopies) Stream {
	c := clone(s)
	c.rng = srcs.of(s.rng)
	c.z = s.z.WithSource(srcs.of(s.z.Source()))
	return c
}

func (s *hashStream) fork(srcs sourceCopies) Stream {
	c := clone(s)
	c.rng = srcs.of(s.rng)
	c.z = s.z.WithSource(srcs.of(s.z.Source()))
	return c
}

func (m *mixStream) fork(srcs sourceCopies) Stream {
	c := clone(m)
	c.rng = srcs.of(m.rng)
	c.streams = make([]Stream, len(m.streams))
	for i, s := range m.streams {
		c.streams[i] = fork(s, srcs)
	}
	return c
}
