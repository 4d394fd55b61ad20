// Package rng provides deterministic pseudo-random primitives used across the
// simulator: a splitmix64 stream, stateless 64-bit mixing, bijective Feistel
// permutations (for scattering frames without collisions), and a
// scrambled-zipfian item generator for key-value workloads.
//
// Everything in this package is deterministic given its seed, which keeps
// every experiment in the repository exactly reproducible.
package rng

import (
	"math"
	"math/bits"
	"sync"
)

// Mix64 applies the splitmix64 finalizer to x. It is a fast, high-quality
// stateless 64-bit mixing function, used wherever a deterministic
// pseudo-random value must be derived from an identifier (e.g. mapping a
// virtual page number to a scattered physical frame).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Stream is a splitmix64 pseudo-random stream. The zero value is a valid
// stream seeded with 0; use New to seed explicitly.
type Stream struct {
	state uint64
}

// New returns a Stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{state: seed} }

// Next returns the next 64-bit value in the stream.
func (s *Stream) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	x := s.state
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection-free reduction is fine here: the tiny
	// modulo bias for astronomically large n is irrelevant to a simulator.
	hi, _ := bits.Mul64(s.Next(), n)
	return hi
}

// Intn returns a uniform int in [0, n). n must be positive.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Next()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.Float64() < p }

// Perm is a bijective permutation of [0, n) built from a 4-round Feistel
// network over the smallest even-width bit domain covering n, with
// cycle-walking to stay inside [0, n). It lets the simulator assign unique
// pseudo-random values (frames, chain successors) without storing a table.
type Perm struct {
	n        uint64
	halfBits uint
	halfMask uint64
	keys     [4]uint64
}

// NewPerm returns a permutation of [0, n) derived from seed. n must be
// positive.
func NewPerm(n uint64, seed uint64) *Perm {
	if n == 0 {
		panic("rng: NewPerm with n == 0")
	}
	bits := uint(1)
	for uint64(1)<<bits < n {
		bits++
	}
	if bits%2 != 0 {
		bits++
	}
	p := &Perm{n: n, halfBits: bits / 2, halfMask: uint64(1)<<(bits/2) - 1}
	s := New(seed)
	for i := range p.keys {
		p.keys[i] = s.Next()
	}
	return p
}

// N returns the size of the permuted domain.
func (p *Perm) N() uint64 { return p.n }

// Apply returns the image of x under the permutation. x must be in [0, n).
func (p *Perm) Apply(x uint64) uint64 {
	if x >= p.n {
		panic("rng: Perm.Apply out of range")
	}
	for {
		x = p.encrypt(x)
		if x < p.n {
			return x
		}
	}
}

// encrypt runs the raw Feistel rounds over the full power-of-two domain.
func (p *Perm) encrypt(x uint64) uint64 {
	l := x >> p.halfBits
	r := x & p.halfMask
	for _, k := range p.keys {
		l, r = r, l^(Mix64(r^k)&p.halfMask)
	}
	return l<<p.halfBits | r
}

// Zipfian generates item ranks in [0, n) following a zipfian distribution
// with parameter theta in (0, 1), using the standard Gray et al. algorithm
// (as popularized by YCSB). For very large n the zeta constant is
// approximated with an integral tail, which is accurate to well under 1% for
// the n used in this repository (millions to hundreds of millions of pages).
type Zipfian struct {
	n      uint64
	theta  float64
	alpha  float64
	zetan  float64
	eta    float64
	half   float64 // 1 + 0.5^theta, the rank-1 threshold, hoisted out of Next
	stream *Stream
}

// zetaExactLimit is the largest n for which zeta is summed exactly.
const zetaExactLimit = 1 << 20

// zeta sums are pure in (n, theta) but cost up to 2^20 math.Pow calls, and
// every zipfian scenario cell constructs a fresh generator, so the results
// are memoized process-wide. The cache stays tiny: experiments use a handful
// of (page count, theta) pairs.
var (
	zetaMu    sync.Mutex
	zetaCache = map[zetaKey]float64{}
)

type zetaKey struct {
	n     uint64
	theta float64
}

// zeta returns an (approximate for large n) value of the generalized harmonic
// number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	zetaMu.Lock()
	v, ok := zetaCache[zetaKey{n, theta}]
	zetaMu.Unlock()
	if ok {
		return v
	}
	limit := n
	if limit > zetaExactLimit {
		limit = zetaExactLimit
	}
	sum := 0.0
	for i := uint64(1); i <= limit; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	if n > limit {
		// Integral tail: ∫ limit..n x^-theta dx.
		sum += (math.Pow(float64(n), 1-theta) - math.Pow(float64(limit), 1-theta)) / (1 - theta)
	}
	zetaMu.Lock()
	zetaCache[zetaKey{n, theta}] = sum
	zetaMu.Unlock()
	return sum
}

// NewZipfian returns a zipfian generator over [0, n) with parameter theta,
// drawing randomness from stream. Requires n > 0 and 0 < theta < 1.
func NewZipfian(n uint64, theta float64, stream *Stream) *Zipfian {
	if n == 0 {
		panic("rng: NewZipfian with n == 0")
	}
	if theta <= 0 || theta >= 1 {
		panic("rng: NewZipfian theta must be in (0, 1)")
	}
	zetan := zeta(n, theta)
	z := &Zipfian{
		n:      n,
		theta:  theta,
		alpha:  1 / (1 - theta),
		zetan:  zetan,
		eta:    (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/zetan),
		half:   1 + math.Pow(0.5, theta),
		stream: stream,
	}
	return z
}

// Next returns the next zipfian-distributed rank in [0, n); rank 0 is the
// hottest item.
func (z *Zipfian) Next() uint64 {
	u := z.stream.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// ScrambledNext returns the next zipfian rank scrambled across [0, n) with a
// stateless hash, so that hot items are spread uniformly over the domain (as
// hot keys are spread across a real key-value store's heap).
func (z *Zipfian) ScrambledNext() uint64 {
	return Mix64(z.Next()) % z.n
}
