package stats

// Alias samples from an arbitrary discrete distribution in O(1) per draw
// using the Walker/Vose alias method. Construction is O(n).
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table for the given non-negative weights.
// Weights need not be normalized. It panics if weights is empty, contains a
// negative entry, or sums to zero.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("stats: NewAlias with empty weights")
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: NewAlias with negative weight")
		}
		sum += w
	}
	if sum == 0 {
		panic("stats: NewAlias with zero total weight")
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scaled probabilities; average is exactly 1.
	scaled := make([]float64, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
	}
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, p := range scaled {
		if p < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers: both stacks hold entries that should be 1.
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a
}

// Sample draws one index distributed according to the table's weights.
func (a *Alias) Sample(r *Rand) int {
	i := r.Intn(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}
