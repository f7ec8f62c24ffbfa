package trace

import (
	"testing"
	"testing/quick"
)

func TestMakePairKeyCanonical(t *testing.T) {
	if MakePairKey(3, 7) != MakePairKey(7, 3) {
		t.Fatal("PairKey must be order-independent")
	}
	u, v := MakePairKey(7, 3).Endpoints()
	if u != 3 || v != 7 {
		t.Fatalf("Endpoints = (%d,%d), want (3,7)", u, v)
	}
}

func TestMakePairKeyPanics(t *testing.T) {
	for _, f := range []func(){
		func() { MakePairKey(4, 4) },
		func() { MakePairKey(-1, 2) },
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

func TestPairKeyOther(t *testing.T) {
	k := MakePairKey(2, 9)
	if k.Other(2) != 9 || k.Other(9) != 2 {
		t.Fatal("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Other with non-endpoint should panic")
		}
	}()
	k.Other(5)
}

func TestPairKeyInjective(t *testing.T) {
	if err := quick.Check(func(a, b, c, d uint16) bool {
		u1, v1 := int(a), int(b)
		u2, v2 := int(c), int(d)
		if u1 == v1 || u2 == v2 {
			return true
		}
		k1, k2 := MakePairKey(u1, v1), MakePairKey(u2, v2)
		samePair := (min(u1, v1) == min(u2, v2)) && (max(u1, v1) == max(u2, v2))
		return (k1 == k2) == samePair
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPairKeyString(t *testing.T) {
	if s := MakePairKey(5, 1).String(); s != "{1,5}" {
		t.Fatalf("String = %q", s)
	}
}

func TestValidate(t *testing.T) {
	good := &Trace{NumRacks: 3, Reqs: []Request{{0, 1}, {1, 2}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*Trace{
		{NumRacks: 1},
		{NumRacks: 3, Reqs: []Request{{0, 3}}},
		{NumRacks: 3, Reqs: []Request{{-1, 1}}},
		{NumRacks: 3, Reqs: []Request{{2, 2}}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestPrefix(t *testing.T) {
	tr := &Trace{NumRacks: 4, Reqs: []Request{{0, 1}, {1, 2}, {2, 3}}}
	if p := tr.Prefix(2); p.Len() != 2 {
		t.Fatal("Prefix(2) wrong length")
	}
	if p := tr.Prefix(99); p.Len() != 3 {
		t.Fatal("Prefix beyond length should clamp")
	}
}

func TestShuffledPreservesMultiset(t *testing.T) {
	tr := Uniform(10, 500, 42)
	sh := tr.Shuffled(7)
	a, b := tr.PairCounts(), sh.PairCounts()
	if len(a) != len(b) {
		t.Fatal("shuffle changed pair support")
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("shuffle changed count of %v", k)
		}
	}
}

// pairFromIndex maps a linear index in [0, n(n-1)/2) to the unordered pair
// it denotes by walking the pair triangle row by row, enumerating pairs
// (0,1), (0,2), …, (0,n-1), (1,2), …: the reference for the generators'
// PairIndex lookups.
func pairFromIndex(idx, n int) (int, int) {
	u := 0
	rowLen := n - 1
	for idx >= rowLen {
		idx -= rowLen
		u++
		rowLen--
	}
	return u, u + 1 + idx
}

// TestPairIndexEndpointsMatchRowWalk: the generators map a pair-table
// index to its endpoints through the shared PairIndex, and every index
// lands on the pair the row-by-row walk gives.
func TestPairIndexEndpointsMatchRowWalk(t *testing.T) {
	for _, n := range []int{2, 3, 4, 50, 100, 101} {
		idx := SharedPairIndex(n)
		for i := 0; i < NumPairs(n); i++ {
			wu, wv := pairFromIndex(i, n)
			if u, v := idx.Endpoints(PairID(i)); u != wu || v != wv {
				t.Fatalf("n=%d index %d: Endpoints = (%d,%d), row walk = (%d,%d)", n, i, u, v, wu, wv)
			}
		}
	}
}

func TestPairFromIndexBijective(t *testing.T) {
	n := 17
	seen := make(map[PairKey]bool)
	for i := 0; i < n*(n-1)/2; i++ {
		u, v := pairFromIndex(i, n)
		if u < 0 || v <= u || v >= n {
			t.Fatalf("pairFromIndex(%d) = (%d,%d) invalid", i, u, v)
		}
		k := MakePairKey(u, v)
		if seen[k] {
			t.Fatalf("pairFromIndex(%d) duplicates %v", i, k)
		}
		seen[k] = true
	}
}
