package paging

import "fmt"

// posTable maps cache items to small integers (slot or queue indices). It
// has two modes: a hash map for an open item universe (the default), and a
// flat slot table for a dense universe declared up front. The online
// b-matching hot path always declares its universe — the n·(n−1)/2 rack
// pairs are known before the first request — turning every per-access map
// operation into one array read.
type posTable struct {
	m     map[uint64]int32
	dense []int32 // item -> value, -1 = absent; nil in map mode
}

func newPosTable(k int) posTable {
	return posTable{m: make(map[uint64]int32, k)}
}

// declareUniverse switches to the flat table over items [0, size). The
// caller guarantees the table is currently empty.
func (p *posTable) declareUniverse(size int) {
	if size < 1 {
		panic("paging: DeclareUniverse requires size >= 1")
	}
	p.m = nil
	p.dense = make([]int32, size)
	for i := range p.dense {
		p.dense[i] = -1
	}
}

func (p *posTable) get(item uint64) (int32, bool) {
	if p.dense != nil {
		v := p.dense[item]
		return v, v >= 0
	}
	v, ok := p.m[item]
	return v, ok
}

func (p *posTable) contains(item uint64) bool {
	if p.dense != nil {
		return int(item) < len(p.dense) && p.dense[item] >= 0
	}
	_, ok := p.m[item]
	return ok
}

func (p *posTable) set(item uint64, v int32) {
	if p.dense != nil {
		p.dense[item] = v
		return
	}
	p.m[item] = v
}

func (p *posTable) del(item uint64) {
	if p.dense != nil {
		p.dense[item] = -1
		return
	}
	delete(p.m, item)
}

// reset empties the table, preserving its mode.
func (p *posTable) reset(k int) {
	if p.dense != nil {
		for i := range p.dense {
			p.dense[i] = -1
		}
		return
	}
	p.m = make(map[uint64]int32, k)
}

// universeSizer is implemented by caches whose position maps can be
// replaced by flat slot tables when the item universe [0, size) is known up
// front.
type universeSizer interface {
	DeclareUniverse(size int)
}

// DeclareUniverse declares that every item subsequently accessed on c is
// drawn from [0, size), letting supporting implementations (Marking, LRU,
// FIFO, RandomEvict) back their position maps with flat []int32 slot
// tables. It reports whether c supports the dense path; an unsupported
// cache (MIN) is left unchanged. The cache must be empty; eviction
// decisions are bit-for-bit identical in both modes.
func DeclareUniverse(c Cache, size int) bool {
	d, ok := c.(universeSizer)
	if !ok {
		return false
	}
	if c.Len() != 0 {
		panic(fmt.Sprintf("paging: DeclareUniverse on non-empty %s cache", c.Name()))
	}
	d.DeclareUniverse(size)
	return true
}
