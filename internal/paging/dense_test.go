package paging

import (
	"testing"

	"obm/internal/stats"
)

// Every cache must behave bit-for-bit identically in map mode and
// dense-universe mode: same hits, same evictions, in the same order.
func TestDenseUniverseEquivalence(t *testing.T) {
	factories := map[string]Factory{
		"marking": NewMarkingFactory,
		"random":  NewRandomEvictFactory,
		"lru":     NewLRUFactory,
		"fifo":    NewFIFOFactory,
	}
	const (
		k        = 7
		universe = 40
		accesses = 20000
	)
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			plain := f(k, 42)
			dense := f(k, 42)
			if !DeclareUniverse(dense, universe) {
				t.Fatalf("%s does not support DeclareUniverse", name)
			}
			r := stats.NewRand(99)
			for i := 0; i < accesses; i++ {
				item := uint64(r.Intn(universe))
				e1, ev1, m1 := plain.Access(item)
				e2, ev2, m2 := dense.Access(item)
				if ev1 != ev2 || m1 != m2 || (ev1 && e1 != e2) {
					t.Fatalf("access %d (item %d): map mode (%d,%v,%v) != dense mode (%d,%v,%v)",
						i, item, e1, ev1, m1, e2, ev2, m2)
				}
				if plain.Len() != dense.Len() {
					t.Fatalf("access %d: Len %d != %d", i, plain.Len(), dense.Len())
				}
			}
			// Reset must preserve the dense mode and still agree.
			plain.Reset()
			dense.Reset()
			for i := 0; i < 1000; i++ {
				item := uint64(r.Intn(universe))
				e1, ev1, m1 := plain.Access(item)
				e2, ev2, m2 := dense.Access(item)
				if ev1 != ev2 || m1 != m2 || (ev1 && e1 != e2) {
					t.Fatalf("post-Reset access %d diverged", i)
				}
			}
		})
	}
}

func TestDeclareUniverseUnsupported(t *testing.T) {
	if DeclareUniverse(NewMIN(3, nil), 10) {
		t.Error("MIN unexpectedly supports DeclareUniverse")
	}
}

func TestDeclareUniverseNonEmptyPanics(t *testing.T) {
	c := NewLRU(3)
	c.Access(1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for DeclareUniverse on non-empty cache")
		}
	}()
	DeclareUniverse(c, 10)
}

// A MarkingBank cache must replicate a standalone Marking cache seeded the
// same way and fed the same items, for any injective item encoding.
func TestMarkingBankEquivalence(t *testing.T) {
	const (
		n        = 5
		k        = 4
		universe = 23
		accesses = 30000
	)
	master := stats.NewRand(7)
	bank := NewMarkingBank(n, k, universe, master)
	master = stats.NewRand(7) // replay the same seed draws
	caches := make([]*Marking, n)
	for i := range caches {
		caches[i] = NewMarking(k, master.Uint64())
	}
	r := stats.NewRand(1234)
	for i := 0; i < accesses; i++ {
		c := r.Intn(n)
		item := int32(r.Intn(universe))
		be, bev, bm := bank.Access(c, item)
		me, mev, mm := caches[c].Access(uint64(item))
		if bev != mev || bm != mm || (bev && uint64(be) != me) {
			t.Fatalf("access %d (cache %d, item %d): bank (%d,%v,%v) != marking (%d,%v,%v)",
				i, c, item, be, bev, bm, me, mev, mm)
		}
		if bank.Contains(c, item) != caches[c].Contains(uint64(item)) {
			t.Fatalf("access %d: Contains mismatch", i)
		}
		if bank.Len(c) != caches[c].Len() {
			t.Fatalf("access %d: Len mismatch", i)
		}
	}
	// Reset with a fresh master must keep the two in lockstep.
	master = stats.NewRand(8)
	bank.Reset(master)
	master = stats.NewRand(8)
	for i := range caches {
		caches[i] = NewMarking(k, master.Uint64())
	}
	for i := 0; i < 2000; i++ {
		c := r.Intn(n)
		item := int32(r.Intn(universe))
		be, bev, bm := bank.Access(c, item)
		me, mev, mm := caches[c].Access(uint64(item))
		if bev != mev || bm != mm || (bev && uint64(be) != me) {
			t.Fatalf("post-Reset access %d diverged", i)
		}
	}
}
