// Package simrand supplies the deterministic random-number machinery used
// throughout the simulator: a splitmix64-seeded xoshiro256** generator and
// a Zipf sampler for skewed workload distributions.
//
// Experiments must be bit-for-bit reproducible across runs and platforms,
// so all stochastic components take an explicit *simrand.Source rather than
// sharing global state.
package simrand

import (
	"math"
	"math/bits"
	"sync"
)

// Source is a deterministic pseudo-random source (xoshiro256**).
// The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given seed via splitmix64, which
// guarantees a well-mixed nonzero state for any seed, including 0.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source as if created by New(seed).
func (s *Source) Reseed(seed uint64) {
	x := seed
	for i := range s.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value in the sequence.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n is zero.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("simrand: Uint64n(0)")
	}
	if n&(n-1) == 0 {
		return s.Uint64() & (n - 1)
	}
	// A rejection loop keeps the distribution exactly uniform: v is kept
	// when it lies below the largest multiple of n that fits in 64 bits,
	// which is exactly when (v/n+1)*n does not overflow. That costs one
	// division per draw instead of two.
	for {
		v := s.Uint64()
		q := v / n
		if hi, _ := bits.Mul64(q+1, n); hi == 0 {
			return v - q*n
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Perm returns a pseudo-random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// shuffleBlock is how many swap indexes Shuffle draws before applying
// them.
const shuffleBlock = 64

// Shuffle permutes p in place with a Fisher-Yates shuffle, swapping each
// p[i], from the last down, with p[Uint64n(i+1)]. The draws do not depend
// on p, so Shuffle draws a block of them before applying its swaps: the
// block's random loads then overlap instead of each waiting behind the
// generator, and the permutation is the one swap-by-swap order gives.
func (s *Source) Shuffle(p []uint32) {
	var js [shuffleBlock]uint64
	for i := len(p) - 1; i > 0; i -= shuffleBlock {
		k := min(shuffleBlock, i)
		for b := 0; b < k; b++ {
			js[b] = s.Uint64n(uint64(i - b + 1))
		}
		for b, j := range js[:k] {
			p[i-b], p[j] = p[j], p[i-b]
		}
	}
}

// Clone returns a copy of s in its current state: it yields the sequence
// s would yield from here on, and drawing from either leaves the other as
// it was.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}

// Split derives an independent child source, so concurrent components can
// consume randomness without perturbing each other's sequences.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// SplitSeed derives an independent child seed from a base seed and a path
// of labels: FNV-1a over the labels (with a separator between them, so
// ("ab","c") and ("a","bc") differ), pushed through the splitmix64
// finalizer for avalanche, then XORed into the base. The derivation is a
// pure function of its inputs, which is what lets the parallel experiment
// engine hand every grid cell its own seed and still produce bit-identical
// results at any worker count or execution order.
func SplitSeed(seed uint64, labels ...string) uint64 {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for _, l := range labels {
		for i := 0; i < len(l); i++ {
			h ^= uint64(l[i])
			h *= prime64
		}
		h ^= 0x1f // out-of-band label separator
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return seed ^ h
}

// Zipf samples from a Zipf distribution over [0, n) with exponent theta,
// using the rejection-inversion method of Gries et al. as popularized by
// the YCSB generator. Skewed key popularity is the defining property of
// key-value and graph workloads (memcached, graph500).
type Zipf struct {
	src              *Source
	n                uint64
	rank1            float64 // 1 + 0.5^theta: Next returns rank 1 below it
	alpha, zetan     float64
	eta, zeta2thetas float64
}

// zipfKey identifies one set of precomputed Zipf constants. The constants
// are a pure function of (n, theta) — no randomness — so sharing them
// across samplers cannot perturb any sequence.
type zipfKey struct {
	n     uint64
	theta float64
}

type zipfConsts struct {
	alpha, zetan, eta, zeta2thetas float64
}

// zipfCache memoizes the O(n) zeta summation per (n, theta). Workloads
// rebuild identical samplers for every grid cell, and at the exactLimit cap
// each construction costs about a million math.Pow calls.
var zipfCache sync.Map // zipfKey -> zipfConsts

// NewZipf returns a Zipf sampler over [0, n). theta must be in (0, 1);
// typical workload skew uses 0.99.
func NewZipf(src *Source, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("simrand: NewZipf with n == 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("simrand: NewZipf theta must be in (0,1)")
	}
	z := &Zipf{src: src, n: n, rank1: 1 + math.Pow(0.5, theta)}
	key := zipfKey{n: n, theta: theta}
	if c, ok := zipfCache.Load(key); ok {
		k := c.(zipfConsts)
		z.alpha, z.zetan, z.eta, z.zeta2thetas = k.alpha, k.zetan, k.eta, k.zeta2thetas
		return z
	}
	z.zetan = zeta(n, theta)
	z.zeta2thetas = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2thetas/z.zetan)
	zipfCache.Store(key, zipfConsts{alpha: z.alpha, zetan: z.zetan, eta: z.eta, zeta2thetas: z.zeta2thetas})
	return z
}

func zeta(n uint64, theta float64) float64 {
	// Direct summation is exact but O(n); cap the exact part and use the
	// Euler-Maclaurin tail approximation for very large n so constructing
	// samplers over multi-billion-element spaces stays cheap.
	const exactLimit = 1 << 20
	sum := 0.0
	limit := n
	if limit > exactLimit {
		limit = exactLimit
	}
	for i := uint64(1); i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > limit {
		// Integral tail: ∫ x^-theta dx from limit to n.
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(limit), 1-theta)) / (1 - theta)
	}
	return sum
}

// Source returns the source z draws from.
func (z *Zipf) Source() *Source { return z.src }

// WithSource returns a copy of z that draws from src. The copy shares no
// state with z: its constants are copied by value, so it samples exactly
// as z would over src.
func (z *Zipf) WithSource(src *Source) *Zipf {
	c := *z
	c.src = src
	return &c
}

// Next returns the next sample in [0, n), with 0 the most popular rank.
func (z *Zipf) Next() uint64 {
	u := z.src.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}
