package matching

import (
	"testing"
	"testing/quick"

	"obm/internal/stats"
	"obm/internal/trace"
)

func TestBMatchingAddRemove(t *testing.T) {
	m := NewBMatching(4, 1)
	k01 := trace.MakePairKey(0, 1)
	if err := m.Add(k01); err != nil {
		t.Fatal(err)
	}
	if !m.Has(k01) || m.Size() != 1 || m.Degree(0) != 1 {
		t.Fatal("add bookkeeping wrong")
	}
	if err := m.Add(k01); err == nil {
		t.Fatal("duplicate add accepted")
	}
	if err := m.Add(trace.MakePairKey(0, 2)); err == nil {
		t.Fatal("degree cap violated")
	}
	if err := m.Add(trace.MakePairKey(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(k01); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove(k01); err == nil {
		t.Fatal("double remove accepted")
	}
	if m.Free(0) != 1 {
		t.Fatal("free capacity wrong after remove")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBMatchingOutOfRange(t *testing.T) {
	m := NewBMatching(3, 1)
	if err := m.Add(trace.MakePairKey(0, 3)); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
}

func TestBMatchingIncident(t *testing.T) {
	m := NewBMatching(5, 2)
	m.Add(trace.MakePairKey(0, 1))
	m.Add(trace.MakePairKey(0, 2))
	inc := m.IncidentIDs(0)
	if len(inc) != 2 || m.IncidentIDs(1)[0] != inc[0] || m.IncidentIDs(2)[0] != inc[1] {
		t.Fatalf("incident = %v", inc)
	}
}

func TestBMatchingInvariantUnderRandomOps(t *testing.T) {
	if err := quick.Check(func(ops []uint16, bRaw uint8) bool {
		n := 8
		b := int(bRaw%3) + 1
		m := NewBMatching(n, b)
		for _, op := range ops {
			u := int(op) % n
			v := int(op>>4) % n
			if u == v {
				continue
			}
			k := trace.MakePairKey(u, v)
			if op&0x8000 != 0 && m.Has(k) {
				if err := m.Remove(k); err != nil {
					return false
				}
			} else if !m.Has(k) && m.Degree(u) < b && m.Degree(v) < b {
				if err := m.Add(k); err != nil {
					return false
				}
			}
			if m.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyBMatchingRespectsDegree(t *testing.T) {
	r := stats.NewRand(5)
	n := 20
	var edges []WeightedEdge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, WeightedEdge{u, v, float64(r.Intn(100))})
		}
	}
	for _, b := range []int{1, 2, 5} {
		pairs := GreedyBMatching(n, edges, b)
		deg := make([]int, n)
		for _, k := range pairs {
			u, v := k.Endpoints()
			deg[u]++
			deg[v]++
		}
		for u, d := range deg {
			if d > b {
				t.Fatalf("b=%d: node %d degree %d", b, u, d)
			}
		}
	}
}

func TestGreedyIsHalfApprox(t *testing.T) {
	// Greedy b-matching is a 1/2-approximation; verify on small instances
	// against brute force.
	r := stats.NewRand(9)
	for trial := 0; trial < 100; trial++ {
		n := 5 + r.Intn(3)
		var edges []WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.5) {
					edges = append(edges, WeightedEdge{u, v, float64(1 + r.Intn(50))})
				}
			}
		}
		if len(edges) > 20 {
			edges = edges[:20]
		}
		b := 1 + r.Intn(2)
		opt := BruteForceBMatching(n, edges, b)
		wmap := map[trace.PairKey]float64{}
		for _, e := range edges {
			wmap[trace.MakePairKey(e.U, e.V)] = e.W
		}
		got := TotalWeight(GreedyBMatching(n, edges, b), wmap)
		if got < opt/2 {
			t.Fatalf("trial %d: greedy %v < half of optimum %v", trial, got, opt)
		}
	}
}

func TestIteratedMWMValidAndStrong(t *testing.T) {
	r := stats.NewRand(31)
	for trial := 0; trial < 60; trial++ {
		n := 5 + r.Intn(3)
		var edges []WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.6) {
					edges = append(edges, WeightedEdge{u, v, float64(1 + r.Intn(40))})
				}
			}
		}
		if len(edges) > 20 {
			edges = edges[:20]
		}
		b := 1 + r.Intn(3)
		pairs := IteratedMWM(n, edges, b)
		deg := make([]int, n)
		seen := map[trace.PairKey]bool{}
		for _, k := range pairs {
			if seen[k] {
				t.Fatalf("trial %d: duplicate pair %v", trial, k)
			}
			seen[k] = true
			u, v := k.Endpoints()
			deg[u]++
			deg[v]++
		}
		for u, d := range deg {
			if d > b {
				t.Fatalf("trial %d: node %d degree %d > b=%d", trial, u, d, b)
			}
		}
		wmap := map[trace.PairKey]float64{}
		for _, e := range edges {
			wmap[trace.MakePairKey(e.U, e.V)] = e.W
		}
		got := TotalWeight(pairs, wmap)
		opt := BruteForceBMatching(n, edges, b)
		greedy := TotalWeight(GreedyBMatching(n, edges, b), wmap)
		if got > opt+1e-9 {
			t.Fatalf("trial %d: iterated MWM %v exceeds optimum %v", trial, got, opt)
		}
		// Iterated MWM should be at least half the optimum in practice; we
		// assert the weaker guarantee that it is competitive with greedy/2 to
		// catch gross regressions without over-fitting.
		if got < greedy/2 {
			t.Fatalf("trial %d: iterated MWM %v far below greedy %v", trial, got, greedy)
		}
	}
}

func TestIteratedMWMExactForB1(t *testing.T) {
	// With b=1, IteratedMWM is exactly one blossom run: optimal.
	r := stats.NewRand(41)
	for trial := 0; trial < 50; trial++ {
		n := 6
		var edges []WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.5) {
					edges = append(edges, WeightedEdge{u, v, float64(1 + r.Intn(30))})
				}
			}
		}
		wmap := map[trace.PairKey]float64{}
		for _, e := range edges {
			wmap[trace.MakePairKey(e.U, e.V)] = e.W
		}
		got := TotalWeight(IteratedMWM(n, edges, 1), wmap)
		want := BruteForceMWM(n, edges)
		if got != want {
			t.Fatalf("trial %d: %v != %v", trial, got, want)
		}
	}
}

func TestBMatchingPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBMatching(1, 1) },
		func() { NewBMatching(3, 0) },
		func() { IteratedMWM(3, nil, 0) },
		func() { GreedyBMatching(3, nil, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
