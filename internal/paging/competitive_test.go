package paging

import (
	"testing"

	"obm/internal/stats"
)

// TestLRUWithinKTimesOPT checks LRU's classic k-competitiveness bound
// empirically on random sequences (with the additive constant absorbed by
// generous trace lengths).
func TestLRUWithinKTimesOPT(t *testing.T) {
	r := stats.NewRand(41)
	for trial := 0; trial < 30; trial++ {
		k := 2 + r.Intn(5)
		universe := k + 1 + r.Intn(6)
		seq := make([]uint64, 3000)
		for i := range seq {
			seq[i] = uint64(r.Intn(universe))
		}
		opt := OfflineCost(k, seq)
		lru := Cost(NewLRUFactory, k, 0, seq)
		if float64(lru) > float64(k*opt)+float64(k) {
			t.Fatalf("trial %d: LRU %d exceeds k·OPT = %d·%d", trial, lru, k, opt)
		}
	}
}

// TestMarkingWithin2HkOPT checks randomized marking's 2·H_k bound on
// random inputs, averaged over seeds.
func TestMarkingWithin2HkOPT(t *testing.T) {
	r := stats.NewRand(43)
	for trial := 0; trial < 15; trial++ {
		k := 3 + r.Intn(5)
		universe := k + 2 + r.Intn(5)
		seq := make([]uint64, 4000)
		for i := range seq {
			seq[i] = uint64(r.Intn(universe))
		}
		opt := OfflineCost(k, seq)
		var sum float64
		const seeds = 5
		for s := uint64(0); s < seeds; s++ {
			sum += float64(Cost(NewMarkingFactory, k, s, seq))
		}
		avg := sum / seeds
		hk := 0.0
		for i := 1; i <= k; i++ {
			hk += 1 / float64(i)
		}
		bound := 2*hk*float64(opt) + float64(2*k)
		if avg > bound {
			t.Fatalf("trial %d (k=%d): marking %v exceeds 2·H_k bound %v (OPT %d)",
				trial, k, avg, bound, opt)
		}
	}
}

// TestHitRateOrderingOnZipf documents the expected hit-rate ordering on a
// skewed i.i.d. workload: recency (LRU) is no worse than random eviction
// by more than a little.
func TestHitRateOrderingOnZipf(t *testing.T) {
	r := stats.NewRand(53)
	z := stats.NewZipf(100, 1.1)
	seq := make([]uint64, 60000)
	for i := range seq {
		seq[i] = uint64(z.Sample(r))
	}
	k := 10
	lru := Cost(NewLRUFactory, k, 0, seq)
	rnd := Cost(NewRandomEvictFactory, k, 1, seq)
	if float64(lru) > 1.1*float64(rnd) {
		t.Fatalf("LRU (%d) should not trail random (%d) badly", lru, rnd)
	}
}
