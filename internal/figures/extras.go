package figures

import "obm/internal/sim"

// Extras returns the extension experiments that go beyond the paper's
// figures: the reproduction's ablation experiments, runnable from
// cmd/experiments exactly like the paper figures ("ext-…" ids).
func Extras() []Figure {
	// Most extensions share a 50-rack Facebook-webservice workload.
	webservice := func(name string, bs ...int) sim.ScenarioSpec {
		return sim.ScenarioSpec{Name: name, Family: "facebook-webservice", Racks: 50, Requests: 200000, Bs: bs}
	}
	ext := func(id, title string, s sim.ScenarioSpec, minRequests int, line []entry) Figure {
		return Figure{
			ID:          id,
			Title:       "Extension: " + title,
			Metric:      RoutingCost,
			scenario:    s,
			minRequests: minRequests,
			algs:        line,
			// The extensions seed each repetition with its index.
			seed: func(rep uint64, _ int) uint64 { return rep },
		}
	}
	return []Figure{
		ext("ext-policy", "paging policy inside R-BMA (marking vs LRU/FIFO/random)",
			webservice("ext-policy", 2), 1000,
			algs("r-bma-marking", "r-bma-lru", "r-bma-fifo", "r-bma-random")),
		ext("ext-lazy", "lazy pruning (paper footnote 2) vs eager removal",
			webservice("ext-lazy", 2), 1000,
			[]entry{{alg: "r-bma", label: "r-bma-lazy"}, {alg: "r-bma-eager"}}),
		// R-BMA decides under each α while the meter charges the figure's.
		ext("ext-alpha", "sensitivity to the reconfiguration cost α",
			webservice("ext-alpha", 6), 1000,
			[]entry{
				{alg: "r-bma", label: "r-bma-a5", alpha: 5},
				{alg: "r-bma", label: "r-bma-a30", alpha: 30},
				{alg: "r-bma", label: "r-bma-a120", alpha: 120},
			}),
		ext("ext-rotor", "demand-aware R-BMA vs demand-oblivious rotor",
			webservice("ext-rotor", 3, 6), 1000,
			algs("r-bma", "rotor", "oblivious")),
		ext("ext-shift", "adaptation to phase-shifting demand",
			sim.ScenarioSpec{Name: "ext-shift", Family: "phase-shift", Racks: 50, Requests: 200000, Bs: []int{2},
				Params: map[string]float64{"phases": 8}}, 2000,
			algs("r-bma", "greedy-noevict", "so-bma", "oblivious")),
	}
}

// AllWithExtras returns the paper figures followed by the extensions.
func AllWithExtras() []Figure {
	return append(All(), Extras()...)
}
