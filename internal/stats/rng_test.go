package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRandSeedsDiffer(t *testing.T) {
	a := NewRand(1)
	b := NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestRandZeroSeedNotDegenerate(t *testing.T) {
	r := NewRand(0)
	var allZero = true
	for i := 0; i < 10; i++ {
		if r.Uint64() != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(9)
	if err := quick.Check(func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := NewRand(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(3)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRand(6)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(12)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams correlated: %d/100 equal", same)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", p)
	}
}

// uint64nReference is Uint64n as it was before the threshold became
// lazy: the rejection threshold is computed on every draw, with a
// hand-rolled 64×64→128 multiply.
func uint64nReference(r *Rand, n uint64) uint64 {
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		hi, lo := mul64Reference(r.Uint64(), n)
		if lo >= threshold {
			return hi
		}
	}
}

func mul64Reference(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// TestUint64nMatchesReference: computing the rejection threshold only
// when the low word is below n leaves every draw bit-identical. The n
// just above 2⁶³ rejects about half its draws, so the rejection loop runs.
func TestUint64nMatchesReference(t *testing.T) {
	ns := []uint64{1, 2, 3, 7, 1225, 4950, 1<<32 - 1, 1<<32 + 1, 1<<62 + 1, 1 << 63, 1<<63 + 1, math.MaxUint64}
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		for _, n := range ns {
			got, want := NewRand(seed), NewRand(seed)
			for i := 0; i < 100000; i++ {
				if g, w := got.Uint64n(n), uint64nReference(want, n); g != w {
					t.Fatalf("seed %d, n %d, draw %d: Uint64n = %d, reference = %d", seed, n, i, g, w)
				}
			}
			if got.State() != want.State() {
				t.Fatalf("seed %d, n %d: generator states diverged", seed, n)
			}
		}
	}
}
