// Package matching provides the b-matching substrate: a dynamic
// degree-capped matching structure used by the online algorithms, a full
// Edmonds-blossom maximum-weight matching implementation (the algorithm
// behind the paper's SO-BMA baseline, which used NetworkX's port of the
// same), offline maximum-weight b-matching constructions, and exact
// brute-force references for testing.
package matching

import (
	"fmt"

	"obm/internal/trace"
)

// BMatching is a dynamic b-matching over n nodes: a set of node pairs such
// that every node has at most b incident pairs. It is the structure M that
// the online algorithms reconfigure.
//
// The representation is fully array-backed — degree counts in a flat
// []int32 and per-node incidence lists of dense trace.PairIDs in
// fixed-capacity slices of one shared n·b slab — so membership tests,
// insertions and removals on the per-request hot path never touch a hash
// map, and the algorithms index their per-pair tables with incidence
// entries directly. Membership is one bit test; removal is an O(b) scan of
// each endpoint's incidence list, and b is a small constant (the number of
// optical switches per rack) in every workload this repository models.
type BMatching struct {
	n, b    int
	size    int
	idx     *trace.PairIndex // shared: PairID -> endpoints
	deg     []int32
	inc     []trace.PairID // inc[u*b : u*b+deg[u]] are the pairs incident to u
	present []uint64       // membership bitset over the dense pair index
}

// NewBMatching returns an empty b-matching over n nodes with degree cap b.
// It panics if n < 2 or b < 1.
func NewBMatching(n, b int) *BMatching {
	if n < 2 {
		panic("matching: NewBMatching requires n >= 2")
	}
	if b < 1 {
		panic("matching: NewBMatching requires b >= 1")
	}
	return &BMatching{
		n:       n,
		b:       b,
		idx:     trace.SharedPairIndex(n),
		deg:     make([]int32, n),
		inc:     make([]trace.PairID, n*b),
		present: make([]uint64, (trace.NumPairs(n)+63)/64),
	}
}

// Reset empties the matching in place, leaving it indistinguishable from a
// freshly constructed BMatching of the same dimensions. The backing slabs
// are retained (incidence entries past a node's degree are never read), so
// algorithms resetting between repetitions stop allocating once warm.
func (m *BMatching) Reset() {
	clear(m.deg)
	clear(m.present)
	m.size = 0
}

// pairBit returns the dense row-major pair index of {u, v}, u < v — the
// same enumeration as trace.PairID, computed arithmetically so membership
// is one bit test.
func (m *BMatching) pairBit(u, v int) int {
	return u*(2*m.n-u-1)/2 + (v - u - 1)
}

// B returns the degree cap.
func (m *BMatching) B() int { return m.b }

// Size returns the number of matching edges.
func (m *BMatching) Size() int { return m.size }

// Has reports whether pair k is a matching edge.
func (m *BMatching) Has(k trace.PairKey) bool {
	u, v := k.Endpoints()
	if v >= m.n {
		return false
	}
	return m.HasID(trace.PairID(m.pairBit(u, v)))
}

// HasID reports whether the pair with dense index id (trace.PairID order)
// is a matching edge: one bit test, for hot paths that already carry the
// dense index.
func (m *BMatching) HasID(id trace.PairID) bool {
	return m.present[id>>6]&(1<<(uint(id)&63)) != 0
}

// Degree returns the number of matching edges incident to node u.
func (m *BMatching) Degree(u int) int { return int(m.deg[u]) }

// Free returns the remaining capacity of node u.
func (m *BMatching) Free(u int) int { return m.b - int(m.deg[u]) }

// Add inserts pair k as a matching edge. It returns an error if k is
// already matched, an endpoint is out of range, or an endpoint is at its
// degree cap.
func (m *BMatching) Add(k trace.PairKey) error {
	u, v := k.Endpoints()
	if v >= m.n {
		return fmt.Errorf("matching: pair %v out of range [0,%d)", k, m.n)
	}
	return m.AddID(trace.PairID(m.pairBit(u, v)), u, v)
}

// AddID inserts the pair with dense index id, whose endpoints are u < v,
// as a matching edge: the hot-path twin of Add for callers that carry the
// pair's index and endpoints. It returns an error if the pair is already
// matched or an endpoint is at its degree cap.
func (m *BMatching) AddID(id trace.PairID, u, v int) error {
	if m.HasID(id) {
		return fmt.Errorf("matching: pair %v already matched", m.idx.Key(id))
	}
	if int(m.deg[u]) >= m.b {
		return fmt.Errorf("matching: node %d at degree cap %d", u, m.b)
	}
	if int(m.deg[v]) >= m.b {
		return fmt.Errorf("matching: node %d at degree cap %d", v, m.b)
	}
	m.inc[u*m.b+int(m.deg[u])] = id
	m.inc[v*m.b+int(m.deg[v])] = id
	m.deg[u]++
	m.deg[v]++
	m.present[id>>6] |= 1 << (uint(id) & 63)
	m.size++
	return nil
}

// Remove deletes pair k from the matching. It returns an error if k is not
// matched.
func (m *BMatching) Remove(k trace.PairKey) error {
	if !m.Has(k) {
		return fmt.Errorf("matching: pair %v not matched", k)
	}
	u, v := k.Endpoints()
	return m.RemoveID(trace.PairID(m.pairBit(u, v)))
}

// RemoveID deletes the pair with dense index id from the matching: the
// hot-path twin of Remove. It returns an error if the pair is not matched.
func (m *BMatching) RemoveID(id trace.PairID) error {
	if !m.HasID(id) {
		return fmt.Errorf("matching: pair %v not matched", m.idx.Key(id))
	}
	u, v := m.idx.Endpoints(id)
	m.removeIncident(u, id)
	m.removeIncident(v, id)
	m.present[id>>6] &^= 1 << (uint(id) & 63)
	m.size--
	return nil
}

// removeIncident deletes id from node w's incidence list (swap with last).
func (m *BMatching) removeIncident(w int, id trace.PairID) {
	base := w * m.b
	last := int(m.deg[w]) - 1
	for i := 0; i <= last; i++ {
		if m.inc[base+i] == id {
			m.inc[base+i] = m.inc[base+last]
			m.deg[w]--
			return
		}
	}
	panic(fmt.Sprintf("matching: edge %v missing from node %d incidence", m.idx.Key(id), w))
}

// IncidentIDs returns the dense indices of the matching edges incident to
// node u as a view into the matching's backing array, in unspecified
// order. The view is read-only and valid only until the next insertion or
// removal.
func (m *BMatching) IncidentIDs(u int) []trace.PairID {
	return m.inc[u*m.b : u*m.b+int(m.deg[u])]
}

// Edges returns all matching edges in unspecified order.
func (m *BMatching) Edges() []trace.PairKey {
	out := make([]trace.PairKey, 0, m.size)
	for u := 0; u < m.n; u++ {
		for _, id := range m.IncidentIDs(u) {
			if lo, _ := m.idx.Endpoints(id); lo == u {
				out = append(out, m.idx.Key(id))
			}
		}
	}
	return out
}

// CheckInvariants verifies internal consistency (degree counts match
// incidence lists, both endpoints list every edge, no node exceeds the cap,
// no duplicates). Intended for tests.
func (m *BMatching) CheckInvariants() error {
	edges := 0
	for u := 0; u < m.n; u++ {
		if int(m.deg[u]) > m.b {
			return fmt.Errorf("matching: node %d degree %d exceeds cap %d", u, m.deg[u], m.b)
		}
		view := m.IncidentIDs(u)
		for i, id := range view {
			k := m.idx.Key(id)
			ku, kv := k.Endpoints()
			if ku != u && kv != u {
				return fmt.Errorf("matching: edge %v in inc[%d] is not incident to %d", k, u, u)
			}
			for _, q := range view[i+1:] {
				if q == id {
					return fmt.Errorf("matching: edge %v duplicated in inc[%d]", k, u)
				}
			}
			other := ku
			if other == u {
				other = kv
			}
			found := false
			for _, q := range m.IncidentIDs(other) {
				if q == id {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("matching: edge %v missing from inc[%d]", k, other)
			}
			if ku == u {
				if !m.HasID(id) {
					return fmt.Errorf("matching: edge %v in incidence lists but not in bitset", k)
				}
				edges++
			}
		}
	}
	if edges != m.size {
		return fmt.Errorf("matching: %d edges in incidence lists, recorded size %d", edges, m.size)
	}
	bits := 0
	for _, w := range m.present {
		for ; w != 0; w &= w - 1 {
			bits++
		}
	}
	if bits != m.size {
		return fmt.Errorf("matching: %d bits set in membership bitset, recorded size %d", bits, m.size)
	}
	return nil
}
