package xrand

import (
	"math"
	"math/bits"
	"testing"
)

// The simulator's outputs are pure functions of (spec, seed) only as
// long as every draw is the same, so the generator's arithmetic is
// frozen. These tests hold Uint64, Uint64n and Intn to a plain reference
// xoshiro256** / Lemire implementation kept here, written from the
// published constructions and independent of how the package's own
// code is shaped for the inliner.

// refRand is the reference xoshiro256** state.
type refRand struct{ s [4]uint64 }

// refFrom copies a generator's state into a reference generator.
func refFrom(r *Rand) *refRand { return &refRand{s: r.s} }

// next is xoshiro256** as Blackman and Vigna publish it.
func (r *refRand) next() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// uint64n is Lemire's multiply-shift method with rejection: draw until
// the low product word clears (2^64 - n) mod n, then take the high word.
func (r *refRand) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(r.next(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.next(), n)
		}
	}
	return hi
}

// refBounds are the Uint64n bounds under test: the degenerate n = 1,
// small odd and even bounds, powers of two (no rejection), and bounds
// just past 2^63 and at the maximum, where rejection is most likely
// (for 2^63+1 nearly half of all first draws are rejected).
var refBounds = []uint64{
	1, 2, 3, 5, 7, 10, 1 << 10, 1 << 32, (1 << 32) + 1, 1 << 62, 1 << 63,
	1<<63 + 1, 1<<63 + 12345, math.MaxUint64 - 1, math.MaxUint64,
}

func TestUint64MatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 256; seed++ {
		r := New(seed)
		ref := refFrom(r)
		for i := 0; i < 512; i++ {
			if got, want := r.Uint64(), ref.next(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 = %#x, reference %#x", seed, i, got, want)
			}
		}
		if r.s != ref.s {
			t.Fatalf("seed %d: state diverged from the reference", seed)
		}
	}
}

func TestUint64nMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 128; seed++ {
		r := New(seed)
		ref := refFrom(r)
		for i := 0; i < 64; i++ {
			for _, n := range refBounds {
				got, want := r.Uint64n(n), ref.uint64n(n)
				if got != want {
					t.Fatalf("seed %d round %d: Uint64n(%d) = %d, reference %d", seed, i, n, got, want)
				}
				if got >= n {
					t.Fatalf("Uint64n(%d) = %d out of range", n, got)
				}
				// A rejected draw consumes extra steps; the states must
				// still agree after every call.
				if r.s != ref.s {
					t.Fatalf("seed %d round %d: Uint64n(%d) consumed a different number of draws", seed, i, n)
				}
			}
		}
	}
}

// TestUint64nRejectionPathTaken makes sure the reference comparison
// above exercises the rejection loop: at n = 2^63+1 a first
// draw is rejected with probability close to one half.
func TestUint64nRejectionPathTaken(t *testing.T) {
	const n = 1<<63 + 1
	r := New(3)
	rejected := 0
	for i := 0; i < 1000; i++ {
		before := r.s
		r.Uint64n(n)
		probe := &refRand{s: before}
		probe.next()
		if probe.s != r.s {
			rejected++
		}
	}
	if rejected < 300 {
		t.Fatalf("only %d of 1000 Uint64n(2^63+1) calls redrew; the rejection loop is not exercised", rejected)
	}
}

func TestIntnMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		r := New(seed)
		ref := refFrom(r)
		for i := 0; i < 256; i++ {
			n := 1 + i%37
			if got, want := r.Intn(n), int(ref.uint64n(uint64(n))); got != want {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, reference %d", seed, i, n, got, want)
			}
		}
	}
}

// TestIntnOneIsOneStep: Intn(1) returns 0 and advances the state by
// exactly one Uint64 step, so a caller with a single candidate may call
// Uint64 instead and keep the draw order.
func TestIntnOneIsOneStep(t *testing.T) {
	for seed := uint64(0); seed < 256; seed++ {
		a, b := New(seed), New(seed)
		for i := 0; i < 64; i++ {
			if v := a.Intn(1); v != 0 {
				t.Fatalf("Intn(1) = %d", v)
			}
			b.Uint64()
			if a.s != b.s {
				t.Fatalf("seed %d step %d: Intn(1) is not one Uint64 step", seed, i)
			}
		}
	}
}

// TestUint64nZeroPanicsAtAnySeed: Uint64n(0) panics at every seed, and
// before it draws, so a caller that recovers finds the state unmoved.
func TestUint64nZeroPanicsAtAnySeed(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		r := New(seed)
		before := r.s
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("seed %d: Uint64n(0) did not panic", seed)
				}
			}()
			r.Uint64n(0)
		}()
		if r.s != before {
			t.Fatalf("seed %d: a panicking Uint64n(0) moved the state", seed)
		}
	}
}
