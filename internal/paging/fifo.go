package paging

// FIFO evicts the item fetched longest ago, regardless of use. The fetch
// queue is a fixed ring buffer of k slots; membership supports the
// dense-universe slot table via DeclareUniverse.
type FIFO struct {
	k     int
	pos   posTable // membership only (stored value unused)
	ring  []uint64
	start int // index of the oldest item
	count int
}

// NewFIFO returns an empty FIFO cache of capacity k.
func NewFIFO(k int) *FIFO {
	validateCap(k)
	return &FIFO{k: k, pos: newPosTable(k), ring: make([]uint64, k)}
}

// NewFIFOFactory adapts NewFIFO to the Factory signature.
func NewFIFOFactory(k int, _ uint64) Cache { return NewFIFO(k) }

// Name implements Cache.
func (c *FIFO) Name() string { return "fifo" }

// Cap implements Cache.
func (c *FIFO) Cap() int { return c.k }

// Len implements Cache.
func (c *FIFO) Len() int { return c.count }

// Contains implements Cache.
func (c *FIFO) Contains(item uint64) bool { return c.pos.contains(item) }

// DeclareUniverse switches the membership map to a flat slot table over
// items [0, size). The cache must be empty.
func (c *FIFO) DeclareUniverse(size int) { c.pos.declareUniverse(size) }

// Access implements Cache.
func (c *FIFO) Access(item uint64) (uint64, bool, bool) {
	if c.pos.contains(item) {
		return 0, false, false
	}
	var evictedItem uint64
	evicted := false
	if c.count == c.k {
		evictedItem = c.ring[c.start]
		c.start++
		if c.start == c.k {
			c.start = 0
		}
		c.count--
		c.pos.del(evictedItem)
		evicted = true
	}
	i := c.start + c.count
	if i >= c.k {
		i -= c.k
	}
	c.ring[i] = item
	c.count++
	c.pos.set(item, 0)
	return evictedItem, evicted, true
}

// Items implements Cache, in fetch order (oldest first).
func (c *FIFO) Items() []uint64 {
	out := make([]uint64, 0, c.count)
	for j := 0; j < c.count; j++ {
		i := c.start + j
		if i >= c.k {
			i -= c.k
		}
		out = append(out, c.ring[i])
	}
	return out
}

// Reset implements Cache.
func (c *FIFO) Reset() {
	c.pos.reset(c.k)
	c.start, c.count = 0, 0
}
