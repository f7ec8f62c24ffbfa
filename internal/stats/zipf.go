package stats

import "math"

// Zipf samples ranks from a finite Zipf (power-law) distribution:
// P(X = i) ∝ (i+1)^(-s) for i in [0, n). Any exponent s >= 0 is supported
// (s = 0 degenerates to uniform). Sampling is O(1) via an alias table.
type Zipf struct {
	alias *Alias
	s     float64
	n     int
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
// It panics if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("stats: NewZipf with negative exponent")
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
	}
	return &Zipf{alias: NewAlias(w), s: s, n: n}
}

// Sample draws one rank in [0, n).
func (z *Zipf) Sample(r *Rand) int { return z.alias.Sample(r) }

// ZipfWeights returns the normalized probability vector of a Zipf
// distribution over n ranks with exponent s.
func ZipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}
