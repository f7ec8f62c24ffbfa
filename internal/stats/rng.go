// Package stats provides deterministic pseudo-random number generation and
// the statistical samplers used by the workload generators and randomized
// algorithms in this repository.
//
// Everything in this package is seedable and reproducible: the same seed
// always yields the same stream, independent of the Go version, because the
// generators are implemented here rather than delegated to math/rand.
package stats

import (
	"errors"
	"math"
	"math/bits"
)

// Rand is a deterministic pseudo-random number generator based on
// xoshiro256** (Blackman & Vigna), seeded through splitmix64. It is not safe
// for concurrent use; create one Rand per goroutine.
type Rand struct {
	s [4]uint64
}

// NewRand returns a generator seeded with seed. Any seed (including 0) is
// valid: the state is expanded through splitmix64 so it is never all-zero.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *Rand) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Int63 returns a non-negative 63-bit value.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniform value in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	// The rejection threshold 2⁶⁴ mod n is below n, so a low word of at
	// least n is accepted without computing it: the division runs with
	// probability n/2⁶⁴.
	if lo < n {
		threshold := -n % n
		for lo < threshold {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal value (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap (Fisher–Yates).
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Split derives an independent generator from the current one. Useful for
// giving each of several components its own reproducible stream.
func (r *Rand) Split() *Rand { return NewRand(r.Uint64()) }

// State returns the generator's internal state, for snapshotting. A
// generator restored with SetState continues the exact same stream.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state previously returned by State. The all-zero
// state is invalid for xoshiro256** (it is a fixed point of the update and
// Seed can never produce it); SetState rejects it so a corrupt snapshot
// cannot wedge the generator.
func (r *Rand) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return errors.New("stats: SetState with all-zero xoshiro256** state")
	}
	r.s = s
	return nil
}
