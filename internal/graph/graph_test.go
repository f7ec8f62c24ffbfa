package graph

import (
	"fmt"
	"testing"
	"testing/quick"

	"obm/internal/stats"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge should be undirected")
	}
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Fatal("degree bookkeeping wrong")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(-1, 2); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	g.MustAddEdge(0, 1)
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 3)
	es := g.Edges()
	want := [][2]int{{0, 1}, {1, 3}, {2, 3}}
	if len(es) != len(want) {
		t.Fatalf("Edges = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("Edges = %v, want %v", es, want)
		}
	}
}

func TestConnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
	g.MustAddEdge(1, 2)
	if !g.Connected() {
		t.Fatal("path graph reported disconnected")
	}
	if !New(0).Connected() || !New(1).Connected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestFatTreeStructure(t *testing.T) {
	k := 4
	top := FatTree(k)
	g := top.Graph()
	wantNodes := k*k/2 + k*k/2 + k*k/4
	if g.N() != wantNodes {
		t.Fatalf("nodes = %d, want %d", g.N(), wantNodes)
	}
	if top.NumRacks() != k*k/2 {
		t.Fatalf("racks = %d, want %d", top.NumRacks(), k*k/2)
	}
	if !g.Connected() {
		t.Fatal("fat-tree must be connected")
	}
	m := top.Metric()
	// Same pod -> 2, different pod -> 4.
	if d := m.Dist(0, 1); d != 2 {
		t.Fatalf("same-pod rack distance = %d, want 2", d)
	}
	if d := m.Dist(0, k/2); d != 4 {
		t.Fatalf("cross-pod rack distance = %d, want 4", d)
	}
	if m.Max() != 4 {
		t.Fatalf("ℓmax = %d, want 4", m.Max())
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on odd k")
		}
	}()
	FatTree(3)
}

func TestFatTreeRacksCount(t *testing.T) {
	for _, n := range []int{1, 7, 50, 100} {
		top := FatTreeRacks(n)
		if top.NumRacks() != n {
			t.Fatalf("FatTreeRacks(%d) has %d racks", n, top.NumRacks())
		}
		m := top.Metric()
		if n > 1 && (m.Max() != 2 && m.Max() != 4) {
			t.Fatalf("fat-tree ℓmax = %d", m.Max())
		}
	}
}

// TestFatTreeMetricMatchesBFS pins the closed-form fat-tree metric to the
// BFS over the built graph: entry for entry and in Max, for every rack
// count the paper's setups and the repo's benchmarks use and far beyond,
// and for every full k-ary fat-tree up to k = 24.
func TestFatTreeMetricMatchesBFS(t *testing.T) {
	check := func(what string, got, want *Metric) {
		t.Helper()
		if got.N() != want.N() || got.Max() != want.Max() {
			t.Fatalf("%s: N, Max = %d, %d; BFS has %d, %d", what, got.N(), got.Max(), want.N(), want.Max())
		}
		for u := 0; u < want.N(); u++ {
			for v := 0; v < want.N(); v++ {
				if got.Dist(u, v) != want.Dist(u, v) {
					t.Fatalf("%s: Dist(%d,%d) = %d, BFS says %d", what, u, v, got.Dist(u, v), want.Dist(u, v))
				}
			}
		}
	}
	for n := 1; n <= 300; n++ {
		check(fmt.Sprintf("FatTreeRacks(%d)", n), FatTreeMetric(n), FatTreeRacks(n).Metric())
	}
	for k := 2; k <= 24; k += 2 {
		check(fmt.Sprintf("FatTree(%d)", k), FatTreeMetric(k*k/2), FatTree(k).Metric())
	}
}

func TestStarDistances(t *testing.T) {
	top := Star(5)
	m := top.Metric()
	if m.Dist(0, 3) != 1 {
		t.Fatal("hub-leaf distance must be 1")
	}
	if m.Dist(1, 2) != 2 {
		t.Fatal("leaf-leaf distance must be 2")
	}
}

func TestUniformMetric(t *testing.T) {
	m := UniformMetric(5, 3)
	if m.Dist(0, 0) != 0 || m.Dist(1, 4) != 3 || m.Max() != 3 {
		t.Fatal("uniform metric wrong")
	}
}

func TestMetricSymmetryProperty(t *testing.T) {
	top := FatTreeRacks(20)
	m := top.Metric()
	if err := quick.Check(func(a, b uint8) bool {
		u, v := int(a)%20, int(b)%20
		return m.Dist(u, v) == m.Dist(v, u)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMetricTriangleInequality(t *testing.T) {
	for _, top := range []*Topology{FatTreeRacks(16), Star(15)} {
		m := top.Metric()
		r := stats.NewRand(1)
		for i := 0; i < 2000; i++ {
			u, v, w := r.Intn(16), r.Intn(16), r.Intn(16)
			if m.Dist(u, w) > m.Dist(u, v)+m.Dist(v, w) {
				t.Fatalf("%s: triangle inequality violated at (%d,%d,%d)", top.Name(), u, v, w)
			}
		}
	}
}

func TestHistogramCountsAllPairs(t *testing.T) {
	top := FatTreeRacks(10)
	m := top.Metric()
	h := m.Histogram()
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 10*9/2 {
		t.Fatalf("histogram covers %d pairs, want 45", total)
	}
}
