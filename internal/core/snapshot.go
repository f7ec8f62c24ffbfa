package core

import (
	"fmt"
	"io"
	"math"
	"math/bits"

	"obm/internal/snap"
	"obm/internal/trace"
)

// Snapshot/restore for algorithm state. Every Algorithm in this package
// implements Snapshotter with a tagged binary section: a snapshot captures
// exactly the mutable per-instance state (paging caches, RNG streams,
// per-pair counters, the b-matching), never the immutable configuration —
// restore targets are always constructed from the run's own parameters
// first and then loaded, so decoding validates shape against an instance
// it already trusts and a corrupt stream can never size an allocation.
//
// The contract, verified by sim's equivalence suite: restoring a snapshot
// taken after k requests into a freshly built instance and replaying the
// tail produces bit-identical costs to replaying the whole stream.

// Snapshotter is implemented by algorithms whose dynamic state can be
// serialized and restored. Restore must only be called on an instance
// constructed with the same parameters (n, b, cost model, seed layout) as
// the snapshotted one; on error the instance is left in an unspecified
// state and must be Reset before reuse.
type Snapshotter interface {
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

// Section tags: one byte, first in every algorithm section, so a snapshot
// restored into the wrong algorithm type fails loudly instead of
// misparsing.
const (
	snapTagRBMA      = 1
	snapTagBMA       = 2
	snapTagOblivious = 3
	snapTagStatic    = 4
	snapTagSharded   = 5
)

var (
	_ Snapshotter = (*RBMA)(nil)
	_ Snapshotter = (*BMA)(nil)
	_ Snapshotter = (*Oblivious)(nil)
	_ Snapshotter = (*Static)(nil)
	_ Snapshotter = (*Sharded)(nil)
)

// expectTag reads and checks an algorithm section's leading tag byte.
func expectTag(sr *snap.Reader, want uint8, alg string) error {
	got := sr.U8()
	if sr.Err() != nil {
		return sr.Err()
	}
	if got != want {
		return snap.Corruptf("core: snapshot section tag %d is not %s (tag %d)", got, alg, want)
	}
	return nil
}

// Snapshot implements Snapshotter. Only the default slab-backed marking
// bank is supported; instances with a substituted cache factory (the
// ablation variants) return an error, since arbitrary paging.Cache
// implementations carry no serialization contract.
func (r *RBMA) Snapshot(w io.Writer) error {
	if r.bank == nil {
		return fmt.Errorf("core: snapshot unsupported for %s: substituted cache factory", r.name)
	}
	sw := snap.NewWriter(w)
	sw.U8(snapTagRBMA)
	sw.U32(uint32(r.n))
	sw.U32(uint32(r.b))
	if r.lazy {
		sw.U8(1)
	} else {
		sw.U8(0)
	}
	if err := r.bank.Snapshot(sw); err != nil {
		return err
	}
	if err := r.m.Snapshot(sw); err != nil {
		return err
	}
	sw.U64s(r.marked)
	sw.I32s(r.counter)
	sw.I64(int64(r.ForwardedRequests))
	return sw.Err()
}

// Restore implements Snapshotter. The per-node marked counts and the
// global marked total are rebuilt from the bitset rather than trusted, and
// every marked pair must be a current matching edge — the lazy-removal
// invariant — so a corrupt snapshot cannot smuggle in a state the
// algorithm could never reach on its own.
func (r *RBMA) Restore(rd io.Reader) error {
	if r.bank == nil {
		return fmt.Errorf("core: restore unsupported for %s: substituted cache factory", r.name)
	}
	sr := snap.NewReader(rd)
	if err := expectTag(sr, snapTagRBMA, "r-bma"); err != nil {
		return err
	}
	if n := sr.U32(); sr.Err() == nil && int(n) != r.n {
		return snap.Corruptf("core: r-bma snapshot for n=%d, have n=%d", n, r.n)
	}
	if b := sr.U32(); sr.Err() == nil && int(b) != r.b {
		return snap.Corruptf("core: r-bma snapshot for b=%d, have b=%d", b, r.b)
	}
	lazy := sr.U8()
	if sr.Err() != nil {
		return sr.Err()
	}
	if (lazy == 1) != r.lazy {
		return snap.Corruptf("core: r-bma snapshot lazy=%d, instance lazy=%v", lazy, r.lazy)
	}
	if err := r.bank.Restore(sr); err != nil {
		return err
	}
	if err := r.m.Restore(sr); err != nil {
		return err
	}
	sr.U64s(r.marked)
	sr.I32s(r.counter)
	fwd := sr.I64()
	if sr.Err() != nil {
		return sr.Err()
	}
	np := r.idx.NumPairs()
	clear(r.markedAt)
	r.nMarked = 0
	for wi, word := range r.marked {
		for rest := word; rest != 0; rest &= rest - 1 {
			id := trace.PairID(wi<<6 + bits.TrailingZeros64(rest))
			if int(id) >= np {
				return snap.Corruptf("core: r-bma marked bit %d beyond pair universe %d", id, np)
			}
			if !r.m.HasID(id) {
				return snap.Corruptf("core: r-bma marked pair %d is not a matching edge", id)
			}
			u, v := r.idx.Endpoints(id)
			r.markedAt[u]++
			r.markedAt[v]++
			r.nMarked++
		}
	}
	for id, c := range r.counter {
		if c < 0 || c >= r.kePair[id] {
			return snap.Corruptf("core: r-bma counter[%d] = %d outside [0,%d)", id, c, r.kePair[id])
		}
	}
	if fwd < 0 {
		return snap.Corruptf("core: r-bma negative forwarded-request count %d", fwd)
	}
	r.ForwardedRequests = int(fwd)
	if err := r.CheckCacheInvariant(); err != nil {
		return snap.Corruptf("core: r-bma restored state inconsistent: %v", err)
	}
	return nil
}

// Snapshot implements Snapshotter.
func (a *BMA) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.U8(snapTagBMA)
	sw.U32(uint32(a.n))
	sw.U32(uint32(a.b))
	if err := a.m.Snapshot(sw); err != nil {
		return err
	}
	// The section keeps a rent and a defense table: the one counter
	// table split by side, zero on the other.
	for _, matched := range [2]bool{false, true} {
		for id, c := range a.counter {
			if a.m.HasID(trace.PairID(id)) != matched {
				c = 0
			}
			sw.F64(c)
		}
	}
	return sw.Err()
}

// Restore implements Snapshotter. Counters are range-checked against the
// scheme's own invariants: rents are non-negative and finite, defenses lie
// in [0, α] and are never −0, which no run produces and which the victim
// scan's bitwise order would rank above every positive defense. A pair
// keeps one counter, so a blob with rent on a matching edge or defense on
// an unmatched pair is refused.
func (a *BMA) Restore(rd io.Reader) error {
	sr := snap.NewReader(rd)
	if err := expectTag(sr, snapTagBMA, "bma"); err != nil {
		return err
	}
	if n := sr.U32(); sr.Err() == nil && int(n) != a.n {
		return snap.Corruptf("core: bma snapshot for n=%d, have n=%d", n, a.n)
	}
	if b := sr.U32(); sr.Err() == nil && int(b) != a.b {
		return snap.Corruptf("core: bma snapshot for b=%d, have b=%d", b, a.b)
	}
	if err := a.m.Restore(sr); err != nil {
		return err
	}
	// The rent table lands in counter; the defense table is read a block
	// at a time and folded in on the matched side.
	sr.F64s(a.counter)
	if sr.Err() != nil {
		return sr.Err()
	}
	for id, v := range a.counter {
		if !(v >= 0) || v > 1e18 {
			return snap.Corruptf("core: bma rent[%d] = %v out of range", id, v)
		}
		if v != 0 && a.m.HasID(trace.PairID(id)) {
			return snap.Corruptf("core: bma rent[%d] = %v on a matching edge", id, v)
		}
	}
	var block [128]float64
	for base := 0; base < len(a.counter); base += len(block) {
		defense := block[:min(len(block), len(a.counter)-base)]
		sr.F64s(defense)
		if sr.Err() != nil {
			return sr.Err()
		}
		for i, v := range defense {
			id := base + i
			if !(v >= 0) || v > a.model.Alpha || math.Signbit(v) {
				return snap.Corruptf("core: bma defense[%d] = %v outside [0,%v]", id, v, a.model.Alpha)
			}
			if a.m.HasID(trace.PairID(id)) {
				a.counter[id] = v
			} else if v != 0 {
				return snap.Corruptf("core: bma defense[%d] = %v on an unmatched pair", id, v)
			}
		}
	}
	return nil
}

// Snapshot implements Snapshotter: the oblivious baseline has no dynamic
// state, so its section is just the tag.
func (o *Oblivious) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.U8(snapTagOblivious)
	return sw.Err()
}

// Restore implements Snapshotter.
func (o *Oblivious) Restore(rd io.Reader) error {
	sr := snap.NewReader(rd)
	return expectTag(sr, snapTagOblivious, "oblivious")
}

// Snapshot implements Snapshotter. A static matching never changes after
// construction, so the section records the edge set only for restore-time
// verification.
func (s *Static) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.U8(snapTagStatic)
	sw.U32(uint32(s.n))
	sw.U32(uint32(s.b))
	sw.U32(uint32(s.size))
	sw.U64s(s.edges)
	return sw.Err()
}

// Restore implements Snapshotter: it verifies that this instance (built
// offline from the same trace) carries the snapshotted matching, rather
// than loading edges from untrusted bytes. A mismatch means the restore
// target was built from a different trace or b — a configuration error
// worth failing loudly on.
func (s *Static) Restore(rd io.Reader) error {
	sr := snap.NewReader(rd)
	if err := expectTag(sr, snapTagStatic, "so-bma"); err != nil {
		return err
	}
	if n := sr.U32(); sr.Err() == nil && int(n) != s.n {
		return snap.Corruptf("core: so-bma snapshot for n=%d, have n=%d", n, s.n)
	}
	if b := sr.U32(); sr.Err() == nil && int(b) != s.b {
		return snap.Corruptf("core: so-bma snapshot for b=%d, have b=%d", b, s.b)
	}
	if size := sr.U32(); sr.Err() == nil && int(size) != s.size {
		return snap.Corruptf("core: so-bma snapshot has %d edges, instance has %d", size, s.size)
	}
	got := make([]uint64, len(s.edges))
	sr.U64s(got)
	if sr.Err() != nil {
		return sr.Err()
	}
	for i := range got {
		if got[i] != s.edges[i] {
			return snap.Corruptf("core: so-bma snapshot matching differs from this instance's (built from a different trace?)")
		}
	}
	return nil
}

// Snapshot implements Snapshotter: plane sections in ascending shard
// order. Every plane must itself be a Snapshotter.
func (sh *Sharded) Snapshot(w io.Writer) error {
	sw := snap.NewWriter(w)
	sw.U8(snapTagSharded)
	sw.U32(uint32(sh.part.shards))
	if sw.Err() != nil {
		return sw.Err()
	}
	for s, alg := range sh.subs {
		ss, ok := alg.(Snapshotter)
		if !ok {
			return fmt.Errorf("core: shard %d algorithm %s does not support snapshots", s, alg.Name())
		}
		if err := ss.Snapshot(sw); err != nil {
			return fmt.Errorf("core: snapshotting shard %d: %w", s, err)
		}
	}
	return sw.Err()
}

// Restore implements Snapshotter.
func (sh *Sharded) Restore(rd io.Reader) error {
	sr := snap.NewReader(rd)
	if err := expectTag(sr, snapTagSharded, "sharded"); err != nil {
		return err
	}
	if n := sr.U32(); sr.Err() == nil && int(n) != sh.part.shards {
		return snap.Corruptf("core: sharded snapshot for %d planes, have %d", n, sh.part.shards)
	}
	if sr.Err() != nil {
		return sr.Err()
	}
	for s, alg := range sh.subs {
		ss, ok := alg.(Snapshotter)
		if !ok {
			return fmt.Errorf("core: shard %d algorithm %s does not support snapshots", s, alg.Name())
		}
		if err := ss.Restore(sr); err != nil {
			return fmt.Errorf("core: restoring shard %d: %w", s, err)
		}
	}
	return nil
}
