package matching

import (
	"io"

	"obm/internal/snap"
	"obm/internal/trace"
)

// Snapshot writes the matching's full dynamic state — per-node degrees
// and incidence-list prefixes; the membership bitset is derivable — as a
// section of an enclosing snapshot stream. The encoding restores the
// incidence lists in their exact order, so a restored instance is
// indistinguishable from the original, not merely equal as an edge set.
func (m *BMatching) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.U32(uint32(m.n))
	sw.U32(uint32(m.b))
	sw.I32s(m.deg)
	for u := 0; u < m.n; u++ {
		for _, id := range m.IncidentIDs(u) {
			sw.U64(uint64(m.idx.Key(id)))
		}
	}
	return sw.Err()
}

// Restore loads state written by Snapshot into this instance, which must
// have the same dimensions (n, b) — restore targets are constructed from
// the run's own configuration, never from the snapshot, so a corrupt
// stream can fail validation but can never size an allocation. Every field
// is validated: degrees against the cap, endpoints against the universe,
// and the cross-listing of each edge at both endpoints; the membership
// bitset and size are rebuilt rather than trusted. On error the matching
// is left in an unspecified state and must be Reset before reuse.
func (m *BMatching) Restore(r io.Reader) error {
	sr := snap.NewReader(r)
	if n := sr.U32(); sr.Err() == nil && int(n) != m.n {
		return snap.Corruptf("matching: snapshot for n=%d, have n=%d", n, m.n)
	}
	if b := sr.U32(); sr.Err() == nil && int(b) != m.b {
		return snap.Corruptf("matching: snapshot for b=%d, have b=%d", b, m.b)
	}
	sr.I32s(m.deg)
	if sr.Err() != nil {
		return sr.Err()
	}
	total := 0
	for u := 0; u < m.n; u++ {
		if m.deg[u] < 0 || int(m.deg[u]) > m.b {
			return snap.Corruptf("matching: node %d degree %d outside [0,%d]", u, m.deg[u], m.b)
		}
		total += int(m.deg[u])
	}
	clear(m.present)
	m.size = 0
	// The degrees fix how many keys follow, so they are read a block at a
	// time.
	var blk [128]uint64
	next, have, left := 0, 0, total
	for u := 0; u < m.n; u++ {
		base := u * m.b
		for i := 0; i < int(m.deg[u]); i++ {
			if next == have {
				have, next = min(len(blk), left), 0
				left -= have
				sr.U64s(blk[:have])
				if sr.Err() != nil {
					return sr.Err()
				}
			}
			k := trace.PairKey(blk[next])
			next++
			lo, hi := k.Endpoints()
			if lo < 0 || lo >= hi || hi >= m.n || (lo != u && hi != u) {
				return snap.Corruptf("matching: edge %v in node %d incidence is invalid", k, u)
			}
			id := trace.PairID(m.pairBit(lo, hi))
			m.inc[base+i] = id
			if lo == u {
				// Count and set membership once per edge, at its low
				// endpoint; the high endpoint's copy is checked below.
				if m.HasID(id) {
					return snap.Corruptf("matching: edge %v duplicated", k)
				}
				m.present[id>>6] |= 1 << (uint(id) & 63)
				m.size++
			}
		}
	}
	// Cross-validate: every edge listed at a node must be a member (set at
	// its low endpoint), and the total incidence must be 2·size — together
	// these force each edge to appear exactly once per endpoint.
	for u := 0; u < m.n; u++ {
		for _, id := range m.IncidentIDs(u) {
			if !m.HasID(id) {
				return snap.Corruptf("matching: edge %v listed at node %d but not a member", m.idx.Key(id), u)
			}
		}
	}
	if total != 2*m.size {
		return snap.Corruptf("matching: %d incidence entries for %d edges", total, m.size)
	}
	return nil
}
