package paging

import "obm/internal/stats"

// Marking is the randomized marking algorithm (Fiat, Karp, Luby, McGeoch,
// Sleator, Young 1991): requests mark their item; on a miss with a full
// cache, a uniformly random *unmarked* item is evicted; when every cached
// item is marked and a miss occurs, a new phase starts and all marks are
// cleared. Randomized marking is 2·H_k-competitive against cache size k,
// and 2·ln(k/(k−h+1))-competitive against an offline optimum with cache
// size h ≤ k (Young 1991) — the bound that powers R-BMA's (b,a) guarantee.
//
// Eviction choices depend only on slot positions and the seeded RNG, never
// on item values, so a Marking cache behaves bit-for-bit identically in map
// and dense-universe (DeclareUniverse) mode.
type Marking struct {
	k       int
	rng     *stats.Rand
	seed    uint64
	pos     posTable // item -> index in slots
	slots   []uint64 // cached items; [0, nMarked) are marked
	nMarked int
	phases  int
}

// NewMarking returns a randomized marking cache of capacity k seeded with
// seed.
func NewMarking(k int, seed uint64) *Marking {
	validateCap(k)
	return &Marking{
		k:     k,
		rng:   stats.NewRand(seed),
		seed:  seed,
		pos:   newPosTable(k),
		slots: make([]uint64, 0, k),
	}
}

// NewMarkingFactory adapts NewMarking to the Factory signature.
func NewMarkingFactory(k int, seed uint64) Cache { return NewMarking(k, seed) }

// Name implements Cache.
func (c *Marking) Name() string { return "marking" }

// Cap implements Cache.
func (c *Marking) Cap() int { return c.k }

// Len implements Cache.
func (c *Marking) Len() int { return len(c.slots) }

// Contains implements Cache.
func (c *Marking) Contains(item uint64) bool { return c.pos.contains(item) }

// DeclareUniverse switches the position map to a flat slot table over items
// [0, size). The cache must be empty.
func (c *Marking) DeclareUniverse(size int) { c.pos.declareUniverse(size) }

// Phases returns the number of completed marking phases, exposed for the
// phase-structure tests and the competitive analysis (cost per phase is at
// most the number of "new" items in it).
func (c *Marking) Phases() int { return c.phases }

// Marked reports whether item is cached and marked.
func (c *Marking) Marked(item uint64) bool {
	i, ok := c.pos.get(item)
	return ok && int(i) < c.nMarked
}

// Access implements Cache.
func (c *Marking) Access(item uint64) (uint64, bool, bool) {
	if i, ok := c.pos.get(item); ok {
		c.mark(int(i))
		return 0, false, false
	}
	var evictedItem uint64
	evicted := false
	if len(c.slots) == c.k {
		if c.nMarked == c.k {
			// All marked: new phase, clear all marks.
			c.phases++
			c.nMarked = 0
		}
		// Evict a uniformly random unmarked item. Unmarked items live at
		// [nMarked, len).
		idx := c.nMarked + c.rng.Intn(len(c.slots)-c.nMarked)
		evictedItem = c.slots[idx]
		evicted = true
		last := len(c.slots) - 1
		c.slots[idx] = c.slots[last]
		c.pos.set(c.slots[idx], int32(idx))
		c.slots = c.slots[:last]
		c.pos.del(evictedItem)
	}
	// Fetch and mark the new item.
	c.slots = append(c.slots, item)
	i := len(c.slots) - 1
	c.pos.set(item, int32(i))
	c.mark(i)
	return evictedItem, evicted, true
}

// mark moves the item at index i into the marked prefix.
func (c *Marking) mark(i int) {
	if i < c.nMarked {
		return
	}
	j := c.nMarked
	c.slots[i], c.slots[j] = c.slots[j], c.slots[i]
	c.pos.set(c.slots[i], int32(i))
	c.pos.set(c.slots[j], int32(j))
	c.nMarked++
}

// Items implements Cache.
func (c *Marking) Items() []uint64 { return append([]uint64(nil), c.slots...) }

// Reset implements Cache.
func (c *Marking) Reset() {
	c.rng = stats.NewRand(c.seed)
	c.pos.reset(c.k)
	c.slots = c.slots[:0]
	c.nMarked = 0
	c.phases = 0
}

// RandomEvict evicts a uniformly random cached item on each miss. A weak
// randomized baseline (k-competitive only in expectation against oblivious
// adversaries); included as an ablation.
type RandomEvict struct {
	k     int
	rng   *stats.Rand
	seed  uint64
	pos   posTable
	slots []uint64
}

// NewRandomEvict returns a random-eviction cache of capacity k.
func NewRandomEvict(k int, seed uint64) *RandomEvict {
	validateCap(k)
	return &RandomEvict{
		k:    k,
		rng:  stats.NewRand(seed),
		seed: seed,
		pos:  newPosTable(k),
	}
}

// NewRandomEvictFactory adapts NewRandomEvict to the Factory signature.
func NewRandomEvictFactory(k int, seed uint64) Cache { return NewRandomEvict(k, seed) }

// Name implements Cache.
func (c *RandomEvict) Name() string { return "random" }

// Cap implements Cache.
func (c *RandomEvict) Cap() int { return c.k }

// Len implements Cache.
func (c *RandomEvict) Len() int { return len(c.slots) }

// Contains implements Cache.
func (c *RandomEvict) Contains(item uint64) bool { return c.pos.contains(item) }

// DeclareUniverse switches the position map to a flat slot table over items
// [0, size). The cache must be empty.
func (c *RandomEvict) DeclareUniverse(size int) { c.pos.declareUniverse(size) }

// Access implements Cache.
func (c *RandomEvict) Access(item uint64) (uint64, bool, bool) {
	if c.pos.contains(item) {
		return 0, false, false
	}
	var evictedItem uint64
	evicted := false
	if len(c.slots) == c.k {
		idx := c.rng.Intn(len(c.slots))
		evictedItem = c.slots[idx]
		last := len(c.slots) - 1
		c.slots[idx] = c.slots[last]
		c.pos.set(c.slots[idx], int32(idx))
		c.slots = c.slots[:last]
		c.pos.del(evictedItem)
		evicted = true
	}
	c.slots = append(c.slots, item)
	c.pos.set(item, int32(len(c.slots)-1))
	return evictedItem, evicted, true
}

// Items implements Cache.
func (c *RandomEvict) Items() []uint64 { return append([]uint64(nil), c.slots...) }

// Reset implements Cache.
func (c *RandomEvict) Reset() {
	c.rng = stats.NewRand(c.seed)
	c.pos.reset(c.k)
	c.slots = c.slots[:0]
}
