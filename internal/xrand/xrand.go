// Package xrand provides a deterministic, splittable pseudo-random number
// generator used throughout the simulator and the testing harness.
//
// All randomness in this repository flows through xrand so that a single
// seed reproduces an entire experiment: the same environments are
// generated, the same schedules are chosen, and the same weak behaviors
// are observed. The generator is xoshiro256** seeded via SplitMix64,
// following the reference constructions by Blackman and Vigna.
//
// The zero value is not usable; construct generators with New or Split.
package xrand

import "math/bits"

// Rand is a xoshiro256** generator. It is not safe for concurrent use;
// use Split to derive independent generators for concurrent workers.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from seed via SplitMix64, which spreads
// low-entropy seeds (0, 1, 2, ...) across the full state space.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return &r
}

// Split derives a new generator from r. The derived generator's stream is
// independent of r's subsequent output for all practical purposes: the
// child state is produced by drawing from r and remixing through
// SplitMix64 with a distinct stream constant.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

// splitmix64 is the SplitMix64 finalizer used by both New and DeriveSeed.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed deterministically derives a child seed from a root seed and
// a path of labels. Unlike Split, which consumes state from a live
// generator and therefore depends on draw order, DeriveSeed is a pure
// function of (seed, path): any party that knows a campaign's seed and a
// cell's identity computes the same child seed regardless of the order —
// or the goroutine — in which cells execute. This is the splittable seed
// function the campaign scheduler builds its determinism-under-
// parallelism guarantee on.
//
// Each path component is absorbed byte-by-byte into the running state
// through SplitMix64, with a component separator that distinguishes
// ("ab", "c") from ("a", "bc").
func DeriveSeed(seed uint64, path ...string) uint64 {
	h := splitmix64(seed + 0x9e3779b97f4a7c15)
	for _, comp := range path {
		for i := 0; i < len(comp); i++ {
			h = splitmix64(h ^ uint64(comp[i]))
		}
		// Separator: absorb the component length under a distinct
		// stream constant so component boundaries matter.
		h = splitmix64(h ^ (uint64(len(comp)) + 0xa0761d6478bd642f))
	}
	return h
}

// NewFromPath is New(DeriveSeed(seed, path...)): an order-independent
// generator for one campaign cell.
func NewFromPath(seed uint64, path ...string) *Rand {
	return New(DeriveSeed(seed, path...))
}

// Uint64 returns the next value in the stream. The state is read into
// locals and written back whole, which keeps the step under the
// compiler's inlining budget, so hot callers pay no call per draw.
func (r *Rand) Uint64() uint64 {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	s2 ^= s0
	s3 ^= s1
	r.s = [4]uint64{s0 ^ s3, s1 ^ s2, s2 ^ s1<<17, bits.RotateLeft64(s3, 45)}
	return bits.RotateLeft64(s1*5, 7) * 9
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed uint64 in [0, n) using Lemire's
// multiply-shift rejection method. It panics if n == 0, before drawing.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// IntBetween returns a uniformly distributed int in [lo, hi]. It panics
// if hi < lo.
func (r *Rand) IntBetween(lo, hi int) int {
	if hi < lo {
		panic("xrand: IntBetween called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n) as a slice, using the
// Fisher-Yates shuffle.
func (r *Rand) Perm(n int) []int {
	return r.PermInto(nil, n)
}

// PermInto is Perm writing into buf, which is grown as needed and
// returned re-sliced to length n. It consumes exactly the same draws as
// Perm — for equal generator states, PermInto(buf, n) and Perm(n) hold
// identical permutations — so hot paths can reuse one buffer across
// calls without perturbing any downstream randomness.
func (r *Rand) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	p := buf[:n]
	for i := range p {
		p[i] = i
	}
	// Fisher-Yates in place, with no swap closure to escape to the
	// heap.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Geometric returns a sample from a geometric distribution with success
// probability p: the number of failures before the first success. For
// p <= 0 it returns maxTrials; samples are capped at maxTrials to keep
// simulation steps bounded.
func (r *Rand) Geometric(p float64, maxTrials int) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		return maxTrials
	}
	n := 0
	for n < maxTrials && !r.Bool(p) {
		n++
	}
	return n
}

// GCD returns the greatest common divisor of a and b.
func GCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Coprime returns a multiplier p in [2, n) with gcd(p, n) == 1, for the
// parallel permutation function v -> (v*p) mod n used by the PTE
// thread/instance assignment (Section 4.1 of the paper). For n <= 2 it
// returns 1 (the identity permutation multiplier), and for n == 3 the
// only candidate, 2. Otherwise p is rejection-sampled uniformly from
// [2, n-1), or from [3, n-2) when n > 8: the paper notes simple
// mappings such as v -> v+1 are ineffective, so near-identity
// multipliers are excluded when enough candidates exist. If sampling
// finds nothing, a linear scan returns the smallest coprime from the
// range's low end up to n-1; for n = 4 and n = 6, whose sample range
// holds no coprime, that is n-1.
func (r *Rand) Coprime(n uint64) uint64 {
	if n <= 2 {
		return 1
	}
	if n == 3 {
		return 2
	}
	// Rejection sample; density of coprimes is at least ~1/log log n,
	// so this terminates quickly. Cap attempts for safety.
	lo, hi := uint64(2), n-1
	if n > 8 {
		lo, hi = 3, n-2 // avoid near-identity multipliers
	}
	for i := 0; i < 256; i++ {
		p := lo + r.Uint64n(hi-lo)
		if GCD(p, n) == 1 {
			return p
		}
	}
	// Fall back to a linear scan (n has many prime factors). It runs to
	// n, past the sample range, because for n = 4 and n = 6 the only
	// coprime in [2, n) is n-1.
	for p := lo; p < n; p++ {
		if GCD(p, n) == 1 {
			return p
		}
	}
	return 1
}
