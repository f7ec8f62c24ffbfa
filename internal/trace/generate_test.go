package trace

import (
	"fmt"
	"strings"
	"testing"
)

func TestFacebookStyleValid(t *testing.T) {
	for _, c := range []Cluster{Database, WebService, Hadoop} {
		p := FacebookPreset(c, 20, 1)
		p.Requests = 5000
		tr, err := FacebookStyle(p)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if tr.Len() != 5000 {
			t.Fatalf("%v: length %d", c, tr.Len())
		}
	}
}

func TestFacebookStyleDeterministic(t *testing.T) {
	p := FacebookPreset(Database, 15, 9)
	p.Requests = 2000
	a, _ := FacebookStyle(p)
	b, _ := FacebookStyle(p)
	for i := range a.Reqs {
		if a.Reqs[i] != b.Reqs[i] {
			t.Fatal("same params+seed must give identical traces")
		}
	}
}

func TestFacebookStyleHasTemporalStructure(t *testing.T) {
	p := FacebookPreset(Hadoop, 30, 3)
	p.Requests = 30000
	tr, _ := FacebookStyle(p)
	c := Analyze(tr)
	if c.TemporalScore < 0.05 {
		t.Fatalf("Hadoop preset should be bursty; temporal score = %v", c.TemporalScore)
	}
	if c.PairGini < 0.3 {
		t.Fatalf("preset should be spatially skewed; Gini = %v", c.PairGini)
	}
}

func TestMicrosoftStyleNoTemporalStructure(t *testing.T) {
	tr := MicrosoftStyle(25, 40000, 4)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	c := Analyze(tr)
	if c.TemporalScore > 0.01 || c.TemporalScore < -0.01 {
		t.Fatalf("i.i.d. trace must have ~zero temporal score, got %v", c.TemporalScore)
	}
	if c.PairGini < 0.3 {
		t.Fatalf("Microsoft matrix should be skewed; Gini = %v", c.PairGini)
	}
}

func TestDatabaseMoreSkewedThanWebService(t *testing.T) {
	mk := func(c Cluster) Complexity {
		p := FacebookPreset(c, 40, 8)
		p.Requests = 40000
		tr, _ := FacebookStyle(p)
		return Analyze(tr)
	}
	db, ws := mk(Database), mk(WebService)
	if db.PairGini <= ws.PairGini {
		t.Fatalf("Database Gini (%v) should exceed WebService Gini (%v)", db.PairGini, ws.PairGini)
	}
}

func TestFacebookStyleRejectsBadParams(t *testing.T) {
	bad := []FacebookParams{
		{Racks: 1, Requests: 10, WorkingSet: 1, BurstLen: 1},
		{Racks: 5, Requests: -1, WorkingSet: 1, BurstLen: 1},
		{Racks: 5, Requests: 10, WorkingSet: 0, BurstLen: 1},
		{Racks: 5, Requests: 10, WorkingSet: 1, BurstLen: 0},
		{Racks: 5, Requests: 10, WorkingSet: 1, BurstLen: 1, WorkingSetProb: 2},
		{Racks: 5, Requests: 10, WorkingSet: 1, BurstLen: 1, BurstProb: 1},
		{Racks: 5, Requests: 10, WorkingSet: 1, BurstLen: 1, ZipfSkew: -1},
		{Racks: 5, Requests: 10, WorkingSet: 1, BurstLen: 1, ChurnProb: -0.5},
	}
	for i, p := range bad {
		if _, err := FacebookStyle(p); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestUniformCoversPairs(t *testing.T) {
	tr := Uniform(6, 10000, 5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.PairCounts()); got != 15 {
		t.Fatalf("uniform trace hit %d pairs, want all 15", got)
	}
}

func TestPermutationStructure(t *testing.T) {
	tr := Permutation(8, 100, 2)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := tr.PairCounts()
	if len(counts) != 4 {
		t.Fatalf("permutation trace must use exactly n/2 pairs, got %d", len(counts))
	}
	deg := map[int]int{}
	for k := range counts {
		u, v := k.Endpoints()
		deg[u]++
		deg[v]++
	}
	for node, d := range deg {
		if d != 1 {
			t.Fatalf("node %d appears in %d pairs, want 1", node, d)
		}
	}
}

func TestPermutationOddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for odd n")
		}
	}()
	Permutation(7, 10, 1)
}

func TestPhaseShiftStructure(t *testing.T) {
	tr, err := PhaseShift(20, 8000, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 8000 {
		t.Fatalf("length %d", tr.Len())
	}
	// The hot set must differ across phases: compare top pairs of the
	// first and last quarter.
	top := func(reqs []Request) PairKey {
		counts := map[PairKey]int{}
		for _, r := range reqs {
			counts[r.Key()]++
		}
		var best PairKey
		bestC := -1
		for k, c := range counts {
			if c > bestC || (c == bestC && k < best) {
				best, bestC = k, c
			}
		}
		return best
	}
	if top(tr.Reqs[:2000]) == top(tr.Reqs[6000:]) {
		t.Fatal("phases should have different hot pairs")
	}
}

func TestPhaseShiftValidation(t *testing.T) {
	if _, err := PhaseShift(1, 100, 2, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := PhaseShift(10, 2, 5, 1); err == nil {
		t.Error("count < phases accepted")
	}
	if _, err := PhaseShift(10, 100, 0, 1); err == nil {
		t.Error("phases=0 accepted")
	}
}

// TestConstructorsRejectWhatTheyCannotBuild: the stream constructors build
// no tables, so they must reject every parameter a table build would
// fail on, with an error instead of a panic.
func TestConstructorsRejectWhatTheyCannotBuild(t *testing.T) {
	for _, n := range []int{-1, 0, 1} {
		if _, err := NewMicrosoftStream(n, 100, 1); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("got %d", n)) {
			t.Errorf("microsoft with %d racks: err = %v, want one naming the rack count", n, err)
		}
	}
	if _, err := NewTenantMixStream(TenantMixParams{Racks: 16, Requests: 10, Tenants: 1 << 62}); err == nil {
		t.Error("2^62 tenants on 16 racks accepted")
	}
	if _, err := NewHotspotStream(HotspotParams{Racks: 16, Requests: 10, Hotspots: maxHotspots + 1}); err == nil {
		t.Errorf("%d hotspots accepted", maxHotspots+1)
	}
}

func TestSkewedMatrixProperties(t *testing.T) {
	m := SkewedMatrix(20, 1.0, 5, 10, 3)
	if m.Total() <= 0 {
		t.Fatal("matrix total must be positive")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("diagonal must be zero")
	}
	if m.At(3, 7) != m.At(7, 3) {
		t.Fatal("matrix must be symmetric")
	}
	if m.Gini() < 0.2 {
		t.Fatalf("skewed matrix Gini = %v, expected skew", m.Gini())
	}
}

func TestSampleIIDDistribution(t *testing.T) {
	m := NewTrafficMatrix(3)
	m.Set(0, 1, 8)
	m.Set(1, 2, 2)
	tr := m.SampleIID(50000, 9)
	counts := tr.PairCounts()
	c01 := counts[MakePairKey(0, 1)]
	c12 := counts[MakePairKey(1, 2)]
	if counts[MakePairKey(0, 2)] != 0 {
		t.Fatal("zero-weight pair sampled")
	}
	ratio := float64(c01) / float64(c12)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("sample ratio = %v, want ~4", ratio)
	}
}

func TestTrafficMatrixPanics(t *testing.T) {
	m := NewTrafficMatrix(4)
	for _, f := range []func(){
		func() { m.Set(1, 1, 2) },
		func() { m.Set(0, 9, 1) },
		func() { m.Set(0, 1, -1) },
		func() { NewTrafficMatrix(1) },
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
