package sim

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"obm/internal/core"
	"obm/internal/trace"
)

// The snapshot equivalence checker: the seed-reproducibility contract
// gives snapshot/restore a free verifier — replaying a stream's tail on a
// restored instance must produce exactly the cost stream an uninterrupted
// replay produces, bit for bit. CheckSnapshotEquivalence asserts that for
// one (algorithm, source, snapshot point) triple; snapshot_equiv_test.go
// sweeps it over the paper's trace families × algorithms × shard counts ×
// snapshot points.

// CheckSnapshotEquivalence verifies the snapshot/restore equivalence
// contract:
//
//  1. replay src fully through a fresh instance, sampling cumulative costs
//     at every checkpoint (the reference);
//  2. replay the first snapAt requests through a second fresh instance and
//     snapshot it;
//  3. restore the snapshot into a third fresh instance, require its
//     counters and a re-snapshot to match bit-for-bit, then replay the
//     remaining requests on it;
//  4. require every checkpoint sample, the final counters and the final
//     matching size from phases 2+3 to equal the reference exactly
//     (Float64bits, not epsilon).
//
// build must return a freshly constructed, identically configured
// algorithm on every call (same parameters and seed — construction is
// deterministic, so instances are interchangeable). checkpoints are
// ascending request counts ≤ src.Len(); snapAt may fall anywhere in
// [0, src.Len()].
func CheckSnapshotEquivalence(build func() (core.Algorithm, error), src trace.Source, alpha float64, checkpoints []int, snapAt int) error {
	total := src.Len()
	if snapAt < 0 || snapAt > total {
		return fmt.Errorf("sim: snapshot point %d outside [0,%d]", snapAt, total)
	}
	if err := validateCheckpoints(checkpoints, total); err != nil {
		return err
	}
	cpIdx := make(map[int]int, len(checkpoints))
	for i, c := range checkpoints {
		cpIdx[c] = i
	}
	sampler := func(in *Incremental, routing, reconfig []float64) func(int) {
		return func(count int) {
			if i, ok := cpIdx[count]; ok {
				routing[i] = in.tot.Routing
				reconfig[i] = in.tot.Reconfig
			}
		}
	}

	// Phase 1: the uninterrupted reference replay.
	refIn, err := buildIncremental(build, alpha)
	if err != nil {
		return err
	}
	refR := make([]float64, len(checkpoints))
	refC := make([]float64, len(checkpoints))
	if err := replaySpan(refIn, src, 0, total, sampler(refIn, refR, refC)); err != nil {
		return err
	}

	// Phase 2: replay to the snapshot point and serialize.
	partIn, err := buildIncremental(build, alpha)
	if err != nil {
		return err
	}
	gotR := make([]float64, len(checkpoints))
	gotC := make([]float64, len(checkpoints))
	if err := replaySpan(partIn, src, 0, snapAt, sampler(partIn, gotR, gotC)); err != nil {
		return err
	}
	var blob bytes.Buffer
	if err := partIn.Snapshot(&blob); err != nil {
		return fmt.Errorf("sim: snapshotting %s at %d: %w", partIn.alg.Name(), snapAt, err)
	}

	// Phase 3: restore into a fresh instance and replay the tail.
	restIn, err := buildIncremental(build, alpha)
	if err != nil {
		return err
	}
	if err := restIn.Restore(bytes.NewReader(blob.Bytes())); err != nil {
		return fmt.Errorf("sim: restoring %s at %d: %w", restIn.alg.Name(), snapAt, err)
	}
	if err := sameCounters(partIn.Counters(), restIn.Counters()); err != nil {
		return fmt.Errorf("sim: counters after restore at %d: %w", snapAt, err)
	}
	var reblob bytes.Buffer
	if err := restIn.Snapshot(&reblob); err != nil {
		return fmt.Errorf("sim: re-snapshotting after restore at %d: %w", snapAt, err)
	}
	if !bytes.Equal(blob.Bytes(), reblob.Bytes()) {
		return fmt.Errorf("sim: re-snapshot after restore at %d is not byte-identical (%d vs %d bytes)",
			snapAt, blob.Len(), reblob.Len())
	}
	if err := replaySpan(restIn, src, snapAt, total, sampler(restIn, gotR, gotC)); err != nil {
		return err
	}

	// Phase 4: bit-exact comparison against the reference.
	for i, cp := range checkpoints {
		if math.Float64bits(gotR[i]) != math.Float64bits(refR[i]) ||
			math.Float64bits(gotC[i]) != math.Float64bits(refC[i]) {
			return fmt.Errorf("sim: %s on %s: snapshot at %d diverges at checkpoint %d: (%v, %v) != reference (%v, %v)",
				restIn.alg.Name(), src.Name(), snapAt, cp, gotR[i], gotC[i], refR[i], refC[i])
		}
	}
	if err := sameCounters(refIn.Counters(), restIn.Counters()); err != nil {
		return fmt.Errorf("sim: %s on %s: final counters after snapshot at %d: %w",
			restIn.alg.Name(), src.Name(), snapAt, err)
	}
	if ref, got := refIn.MatchingSize(), restIn.MatchingSize(); ref != got {
		return fmt.Errorf("sim: %s on %s: final matching size %d != reference %d after snapshot at %d",
			restIn.alg.Name(), src.Name(), got, ref, snapAt)
	}
	return nil
}

// buildIncremental constructs a fresh algorithm and wraps it in a stepper.
func buildIncremental(build func() (core.Algorithm, error), alpha float64) (*Incremental, error) {
	alg, err := build()
	if err != nil {
		return nil, err
	}
	return NewIncremental(alg, alpha), nil
}

// replaySpan feeds src's requests with global indices [from, to) into in,
// whose algorithm state must already correspond to the first `from`
// requests. The source is reset and its prefix drained without feeding —
// the chunked twin of seeking. onServed is called with the global request
// count after each fed request.
func replaySpan(in *Incremental, src trace.Source, from, to int, onServed func(count int)) error {
	src.Reset()
	chunk := trace.NewChunk(0)
	i := 0
	for i < to {
		n, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		for _, req := range chunk.Reqs[:n] {
			if i >= to {
				break
			}
			if i >= from {
				in.Feed(req)
				if onServed != nil {
					onServed(i + 1)
				}
			}
			i++
		}
	}
	if i < to {
		return fmt.Errorf("sim: source %q ended at %d requests, wanted %d", src.Name(), i, to)
	}
	return nil
}

// sameCounters compares two counter snapshots bit-exactly.
func sameCounters(want, got Counters) error {
	if want.Served != got.Served ||
		math.Float64bits(want.Routing) != math.Float64bits(got.Routing) ||
		math.Float64bits(want.Reconfig) != math.Float64bits(got.Reconfig) ||
		want.Adds != got.Adds || want.Removals != got.Removals {
		return fmt.Errorf("counters %+v != %+v", got, want)
	}
	return nil
}
