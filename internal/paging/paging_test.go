package paging

import (
	"testing"
	"testing/quick"

	"obm/internal/stats"
)

// allFactories enumerates every online Cache implementation for shared
// property tests.
var allFactories = map[string]Factory{
	"lru":     NewLRUFactory,
	"fifo":    NewFIFOFactory,
	"marking": NewMarkingFactory,
	"random":  NewRandomEvictFactory,
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	for name, f := range allFactories {
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(func(raw []uint8, kRaw uint8) bool {
				k := int(kRaw%7) + 1
				c := f(k, 42)
				for _, v := range raw {
					item := uint64(v % 20)
					c.Access(item)
					if c.Len() > k {
						return false
					}
					if !c.Contains(item) {
						return false // no bypassing allowed
					}
				}
				return true
			}, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCacheEvictionConsistency(t *testing.T) {
	// An eviction must report an item that was cached and is no longer;
	// hits must never evict.
	for name, f := range allFactories {
		t.Run(name, func(t *testing.T) {
			r := stats.NewRand(7)
			c := f(4, 9)
			present := map[uint64]bool{}
			for i := 0; i < 5000; i++ {
				item := uint64(r.Intn(12))
				wasPresent := present[item]
				ev, evicted, miss := c.Access(item)
				if miss == wasPresent {
					t.Fatalf("step %d: miss=%v but wasPresent=%v", i, miss, wasPresent)
				}
				if !miss && evicted {
					t.Fatalf("step %d: hit evicted an item", i)
				}
				if evicted {
					if !present[ev] {
						t.Fatalf("step %d: evicted %d which was not cached", i, ev)
					}
					if c.Contains(ev) {
						t.Fatalf("step %d: evicted %d still cached", i, ev)
					}
					delete(present, ev)
				}
				present[item] = true
				if len(present) != c.Len() {
					t.Fatalf("step %d: shadow size %d != cache size %d", i, len(present), c.Len())
				}
			}
		})
	}
}

func TestResetEmptiesCache(t *testing.T) {
	for name, f := range allFactories {
		c := f(3, 1)
		c.Access(1)
		c.Access(2)
		c.Reset()
		if c.Len() != 0 || c.Contains(1) {
			t.Fatalf("%s: Reset did not empty the cache", name)
		}
	}
}

func TestLRUOrder(t *testing.T) {
	c := NewLRU(3)
	for _, v := range []uint64{1, 2, 3} {
		c.Access(v)
	}
	c.Access(1)                      // 1 becomes most recent
	ev, evicted, miss := c.Access(4) // evicts 2 (LRU)
	if !miss || !evicted || ev != 2 {
		t.Fatalf("expected to evict 2, got (%d,%v,%v)", ev, evicted, miss)
	}
}

func TestFIFOOrder(t *testing.T) {
	c := NewFIFO(3)
	for _, v := range []uint64{1, 2, 3} {
		c.Access(v)
	}
	c.Access(1)             // hit: does not refresh FIFO position
	ev, _, _ := c.Access(4) // evicts 1 (first in)
	if ev != 1 {
		t.Fatalf("FIFO should evict 1, evicted %d", ev)
	}
}

func TestMarkingPhaseStructure(t *testing.T) {
	c := NewMarking(3, 5)
	// Fill and mark all: 1,2,3. Then 4 starts a new phase.
	for _, v := range []uint64{1, 2, 3} {
		c.Access(v)
	}
	if c.Phases() != 0 {
		t.Fatalf("phases = %d before first overflow", c.Phases())
	}
	c.Access(4)
	if c.Phases() != 1 {
		t.Fatalf("phases = %d after overflow, want 1", c.Phases())
	}
	if !c.Marked(4) {
		t.Fatal("freshly fetched item must be marked")
	}
}

func TestMarkingNeverEvictsMarked(t *testing.T) {
	r := stats.NewRand(11)
	k := 5
	c := NewMarking(k, 3)
	marked := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		item := uint64(r.Intn(15))
		allMarkedBefore := len(marked) == k
		ev, evicted, miss := c.Access(item)
		_ = miss
		// Unless a phase boundary legally cleared all marks (which happens
		// exactly when every cached item was marked before the access), an
		// eviction must target an unmarked item.
		if evicted && !allMarkedBefore && marked[ev] {
			t.Fatalf("step %d: evicted marked item %d mid-phase", i, ev)
		}
		// Rebuild the shadow mark set from the cache's own view.
		clear(marked)
		for _, it := range c.Items() {
			if c.Marked(it) {
				marked[it] = true
			}
		}
	}
}

func TestMarkingSameSeedSameCost(t *testing.T) {
	seq := make([]uint64, 5000)
	r := stats.NewRand(3)
	for i := range seq {
		seq[i] = uint64(r.Intn(11))
	}
	if Cost(NewMarkingFactory, 4, 77, seq) != Cost(NewMarkingFactory, 4, 77, seq) {
		t.Fatal("same seed must give identical cost")
	}
}

func TestMINIsOptimalVsOnlineAlgorithms(t *testing.T) {
	r := stats.NewRand(13)
	for trial := 0; trial < 20; trial++ {
		n := 400
		seq := make([]uint64, n)
		for i := range seq {
			seq[i] = uint64(r.Intn(8))
		}
		k := 3
		opt := OfflineCost(k, seq)
		for name, f := range allFactories {
			if got := Cost(f, k, uint64(trial), seq); got < opt {
				t.Fatalf("%s beat MIN: %d < %d", name, got, opt)
			}
		}
	}
}

func TestMINBruteForceTiny(t *testing.T) {
	// Cross-check MIN against exhaustive search over eviction choices.
	seq := []uint64{1, 2, 3, 1, 4, 1, 2, 3, 4, 2, 1}
	k := 2
	want := bruteForcePagingOPT(k, seq)
	if got := OfflineCost(k, seq); got != want {
		t.Fatalf("MIN = %d, brute force = %d", got, want)
	}
}

// bruteForcePagingOPT explores all eviction choices (exponential; tiny
// inputs only).
func bruteForcePagingOPT(k int, seq []uint64) int {
	type state struct {
		pos   int
		items string
	}
	var rec func(pos int, cache map[uint64]bool) int
	rec = func(pos int, cache map[uint64]bool) int {
		if pos == len(seq) {
			return 0
		}
		it := seq[pos]
		if cache[it] {
			return rec(pos+1, cache)
		}
		if len(cache) < k {
			cache[it] = true
			c := rec(pos+1, cache)
			delete(cache, it)
			return 1 + c
		}
		best := 1 << 30
		for victim := range cache {
			delete(cache, victim)
			cache[it] = true
			if c := rec(pos+1, cache); c < best {
				best = c
			}
			delete(cache, it)
			cache[victim] = true
		}
		return 1 + best
	}
	return rec(0, map[uint64]bool{})
}

func TestMINPanicsOutOfOrder(t *testing.T) {
	m := NewMIN(2, []uint64{1, 2, 3})
	m.Access(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order access")
		}
	}()
	m.Access(3)
}

func TestMarkingCompetitiveOnAdversarialCycle(t *testing.T) {
	// The classic k+1-item cycle: LRU faults every request; randomized
	// marking faults ~H_k per phase, far fewer.
	k := 8
	n := k + 1
	rounds := 300
	seq := make([]uint64, 0, n*rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			seq = append(seq, uint64(i))
		}
	}
	lru := Cost(NewLRUFactory, k, 0, seq)
	mark := Cost(NewMarkingFactory, k, 12345, seq)
	if lru != len(seq) {
		t.Fatalf("LRU on cycle should fault always: %d/%d", lru, len(seq))
	}
	if float64(mark) > 0.7*float64(lru) {
		t.Fatalf("marking should beat LRU decisively on cycle: %d vs %d", mark, lru)
	}
	opt := OfflineCost(k, seq)
	ratio := float64(mark) / float64(opt)
	// 2·H_8 ≈ 5.4; allow slack but catch gross breakage.
	if ratio > 8 {
		t.Fatalf("marking ratio %.2f exceeds theory bound region", ratio)
	}
}

func TestPhasesDecomposition(t *testing.T) {
	seq := []uint64{1, 2, 1, 3, 4, 4, 5, 1, 2}
	// k=2: phases are [1 2 1], [3 4 4], [5 1], [2]... distinct counting:
	starts := Phases(2, seq)
	want := []int{0, 3, 6, 8}
	if len(starts) != len(want) {
		t.Fatalf("Phases = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("Phases = %v, want %v", starts, want)
		}
	}
}

func TestPhasesMatchesMarkingPhases(t *testing.T) {
	r := stats.NewRand(99)
	seq := make([]uint64, 20000)
	for i := range seq {
		seq[i] = uint64(r.Intn(13))
	}
	k := 5
	c := NewMarking(k, 1)
	for _, it := range seq {
		c.Access(it)
	}
	// Marking counts a phase at each overflow; the combinatorial phase count
	// is the number of phase starts. They agree up to the trailing phase.
	phases := len(Phases(k, seq))
	if diff := phases - 1 - c.Phases(); diff < 0 || diff > 1 {
		t.Fatalf("marking phases %d vs combinatorial %d", c.Phases(), phases)
	}
}

func TestOfflineCostNeverAboveDistinct(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		seq := make([]uint64, len(raw))
		distinct := map[uint64]bool{}
		for i, v := range raw {
			seq[i] = uint64(v % 10)
			distinct[seq[i]] = true
		}
		opt := OfflineCost(3, seq)
		// OPT misses at least once per distinct item beyond capacity and at
		// least the number of distinct items when they first appear.
		return opt >= len(distinct) == (len(distinct) > 0) && opt <= len(seq)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
