package core

import (
	"testing"
	"testing/quick"

	"obm/internal/graph"
	"obm/internal/stats"
)

// TestAllAlgorithmsSharedProperties drives every online algorithm through
// random request sequences and checks the properties any correct
// implementation must satisfy:
//   - routing cost of a step is 1 when the pair was matched before the
//     step and ℓ_e otherwise;
//   - adds/removals are non-negative and the degree cap always holds;
//   - MatchingSize equals the add/removal ledger.
func TestAllAlgorithmsSharedProperties(t *testing.T) {
	n := 10
	top := graph.FatTreeRacks(n)
	model := CostModel{Metric: top.Metric(), Alpha: 10}
	mks := map[string]func() Algorithm{
		"r-bma": func() Algorithm {
			a, err := NewRBMA(n, 2, model, 1)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"r-bma-eager": func() Algorithm {
			a, err := NewRBMA(n, 2, model, 1, WithEagerRemoval())
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"bma": func() Algorithm {
			a, err := NewBMA(n, 2, model)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"greedy-noevict": func() Algorithm {
			a, err := NewGreedyNoEvict(n, 2, model)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"oblivious": func() Algorithm {
			a, err := NewOblivious(model)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(func(seed uint16) bool {
				alg := mk()
				r := stats.NewRand(uint64(seed))
				ledger := 0
				for i := 0; i < 400; i++ {
					u, v := r.Intn(n), r.Intn(n)
					if u == v {
						continue
					}
					wasMatched := alg.Matched(u, v)
					st := alg.Serve(u, v)
					wantCost := float64(model.Metric.Dist(u, v))
					if wasMatched {
						wantCost = 1
					}
					if st.RoutingCost != wantCost {
						t.Logf("step %d: routing %v, want %v", i, st.RoutingCost, wantCost)
						return false
					}
					if st.Adds < 0 || st.Removals < 0 {
						return false
					}
					ledger += st.Adds - st.Removals
					if alg.MatchingSize() != ledger {
						t.Logf("step %d: size %d, ledger %d", i, alg.MatchingSize(), ledger)
						return false
					}
					if err := CheckDegreeInvariant(alg); err != nil {
						t.Log(err)
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestServePanicsOnInvalidPair documents the contract: algorithms reject
// degenerate pairs loudly instead of corrupting state.
func TestServePanicsOnInvalidPair(t *testing.T) {
	n := 8
	top := graph.FatTreeRacks(n)
	model := CostModel{Metric: top.Metric(), Alpha: 10}
	alg, _ := NewRBMA(n, 2, model, 1)
	for _, pair := range [][2]int{{3, 3}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Serve(%d,%d) should panic", pair[0], pair[1])
				}
			}()
			alg.Serve(pair[0], pair[1])
		}()
	}
}
