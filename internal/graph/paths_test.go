package graph

import (
	"testing"

	"obm/internal/stats"
)

func TestPathEndpointsAndLength(t *testing.T) {
	top := FatTreeRacks(20)
	m := top.Metric()
	oracle := top.Paths()
	r := stats.NewRand(3)
	for trial := 0; trial < 500; trial++ {
		u, v := r.Intn(20), r.Intn(20)
		if u == v {
			continue
		}
		path := oracle.Path(u, v)
		if path[0] != top.RackNode(u) || path[len(path)-1] != top.RackNode(v) {
			t.Fatalf("path endpoints wrong: %v for racks %d,%d", path, u, v)
		}
		if len(path)-1 != m.Dist(u, v) {
			t.Fatalf("path length %d != metric distance %d", len(path)-1, m.Dist(u, v))
		}
		// Consecutive nodes must be adjacent in the graph.
		for i := 1; i < len(path); i++ {
			if !top.Graph().HasEdge(path[i-1], path[i]) {
				t.Fatalf("path step %d-%d not an edge", path[i-1], path[i])
			}
		}
	}
}

func TestVisitPathEdgesMatchesPath(t *testing.T) {
	top := FatTreeRacks(9)
	oracle := top.Paths()
	for u := 0; u < 9; u++ {
		for v := 0; v < 9; v++ {
			if u == v {
				continue
			}
			var count int
			oracle.VisitPathEdges(u, v, func(a, b int) { count++ })
			if want := len(oracle.Path(u, v)) - 1; count != want {
				t.Fatalf("VisitPathEdges(%d,%d) visited %d edges, want %d", u, v, count, want)
			}
		}
	}
}

func TestPathSelfIsTrivial(t *testing.T) {
	top := Star(4)
	oracle := top.Paths()
	p := oracle.Path(2, 2)
	if len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
	oracle.VisitPathEdges(2, 2, func(a, b int) {
		t.Fatal("self path should visit no edges")
	})
}

func TestPathPanicsOutOfRange(t *testing.T) {
	top := Star(4)
	oracle := top.Paths()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	oracle.Path(0, 99)
}

func TestStarPathsGoThroughHub(t *testing.T) {
	top := Star(6)
	oracle := top.Paths()
	// Leaf racks are 1..6 (rack ids equal node ids in Star).
	path := oracle.Path(2, 5)
	if len(path) != 3 || path[1] != 0 {
		t.Fatalf("leaf-leaf path should pass the hub: %v", path)
	}
}
