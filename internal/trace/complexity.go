package trace

import (
	"obm/internal/stats"
)

// Complexity summarizes the structure of a trace along the two axes the
// paper's evaluation discusses (§3.1, citing Avin et al. SIGMETRICS 2020):
// spatial skew (how concentrated demand is on few pairs) and temporal
// locality (how predictable the next request is from the recent past).
type Complexity struct {
	// UniquePairs is the number of distinct pairs requested.
	UniquePairs int
	// PairEntropy is the Shannon entropy (bits) of the empirical pair
	// distribution; low entropy = high spatial skew.
	PairEntropy float64
	// PairGini is the Gini coefficient of the pair distribution;
	// high Gini = high spatial skew.
	PairGini float64
	// Top10Share is the fraction of requests covered by the 10 most
	// frequent pairs.
	Top10Share float64
	// RepeatRatio is the fraction of requests identical to their
	// predecessor (burstiness at lag 1).
	RepeatRatio float64
	// TemporalScore is RepeatRatio minus the repeat ratio of a shuffled
	// copy of the trace: ≈ 0 for i.i.d. traces, > 0 in the presence of
	// temporal structure.
	TemporalScore float64
	// WorkingSet1k is the mean number of distinct pairs per window of
	// 1000 consecutive requests.
	WorkingSet1k float64
}

// Analyze computes the complexity statistics of t.
func Analyze(t *Trace) Complexity {
	var c Complexity
	if len(t.Reqs) == 0 {
		return c
	}
	counts := t.PairCounts()
	c.UniquePairs = len(counts)
	weights := make([]float64, 0, len(counts))
	for _, v := range counts {
		weights = append(weights, float64(v))
	}
	c.PairEntropy = stats.Entropy(weights)
	c.PairGini = stats.Gini(weights)
	c.Top10Share = topShare(weights, 10, len(t.Reqs))
	c.RepeatRatio = repeatRatio(t.Reqs)
	c.TemporalScore = c.RepeatRatio - repeatRatio(t.Shuffled(0xC0FFEE).Reqs)
	c.WorkingSet1k = meanWindowUnique(t.Reqs, 1000)
	return c
}

func repeatRatio(reqs []Request) float64 {
	if len(reqs) < 2 {
		return 0
	}
	rep := 0
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Key() == reqs[i-1].Key() {
			rep++
		}
	}
	return float64(rep) / float64(len(reqs)-1)
}

func topShare(weights []float64, k, total int) float64 {
	if total == 0 {
		return 0
	}
	top := append([]float64(nil), weights...)
	// Partial selection: simple sort is fine at these sizes.
	for i := 0; i < k && i < len(top); i++ {
		maxJ := i
		for j := i + 1; j < len(top); j++ {
			if top[j] > top[maxJ] {
				maxJ = j
			}
		}
		top[i], top[maxJ] = top[maxJ], top[i]
	}
	var s float64
	for i := 0; i < k && i < len(top); i++ {
		s += top[i]
	}
	return s / float64(total)
}

func meanWindowUnique(reqs []Request, window int) float64 {
	if len(reqs) == 0 {
		return 0
	}
	if window > len(reqs) {
		window = len(reqs)
	}
	var sum float64
	nWin := 0
	seen := make(map[PairKey]struct{}, window)
	for start := 0; start < len(reqs); start += window {
		end := start + window
		if end > len(reqs) {
			end = len(reqs)
		}
		clear(seen)
		for _, r := range reqs[start:end] {
			seen[r.Key()] = struct{}{}
		}
		sum += float64(len(seen))
		nWin++
	}
	return sum / float64(nWin)
}
