package graph

import (
	"testing"
	"testing/quick"
)

// TestAllTopologiesConnected sweeps the generators over parameter grids and
// checks structural invariants: connectivity, rack validity, metric
// symmetry, and zero diagonal.
func TestAllTopologiesConnected(t *testing.T) {
	tops := []*Topology{
		FatTree(2), FatTree(4), FatTree(6), FatTree(8),
		FatTreeRacks(1), FatTreeRacks(2), FatTreeRacks(13), FatTreeRacks(50), FatTreeRacks(100),
		Star(1), Star(2), Star(17),
	}
	for _, top := range tops {
		t.Run(top.Name(), func(t *testing.T) {
			if !top.Graph().Connected() {
				t.Fatal("not connected")
			}
			nr := top.NumRacks()
			if nr < 1 {
				t.Fatal("no racks")
			}
			for i := 0; i < nr; i++ {
				if v := top.RackNode(i); v < 0 || v >= top.Graph().N() {
					t.Fatalf("rack %d maps to invalid node %d", i, v)
				}
			}
			if nr < 2 {
				return
			}
			m := top.Metric()
			for u := 0; u < nr; u++ {
				if m.Dist(u, u) != 0 {
					t.Fatalf("Dist(%d,%d) = %d", u, u, m.Dist(u, u))
				}
			}
			for u := 0; u < nr; u++ {
				for v := u + 1; v < nr; v++ {
					if m.Dist(u, v) != m.Dist(v, u) {
						t.Fatalf("asymmetric metric at (%d,%d)", u, v)
					}
					if m.Dist(u, v) < 1 {
						t.Fatalf("distinct racks at distance %d", m.Dist(u, v))
					}
				}
			}
		})
	}
}

func TestFatTreeEdgeCountFormula(t *testing.T) {
	// k-ary fat-tree: k pods × (k/2)² edge-agg links + (k/2)² × k agg-core.
	for _, k := range []int{2, 4, 6, 8, 10} {
		g := FatTree(k).Graph()
		want := k*(k/2)*(k/2) + (k/2)*(k/2)*k
		if g.M() != want {
			t.Fatalf("k=%d: %d edges, want %d", k, g.M(), want)
		}
	}
}

func TestMetricAverageWithinDiameter(t *testing.T) {
	if err := quick.Check(func(seed uint8) bool {
		n := 2 + int(seed%60)
		for _, top := range []*Topology{FatTreeRacks(n), Star(n - 1)} {
			m := top.Metric()
			if avg := m.AverageDistance(); avg < 1 || avg > float64(m.Max()) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
