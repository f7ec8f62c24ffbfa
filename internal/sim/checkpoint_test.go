package sim

import (
	"context"
	"math"
	"testing"

	"obm/internal/trace"
)

// ckEnv builds the fixtures for one checkpointed-replay test: a scenario
// source, a fresh algorithm and the reference outcome of a replay without
// checkpoint hooks.
func ckEnv(t *testing.T, shards int) (ScenarioSpec, []int, RunResult) {
	t.Helper()
	spec := equivSpec("uniform", shards)
	checkpoints := Checkpoints(equivRequests, 5)
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	alg, err := spec.BuildAlgorithm("r-bma", equivB, 3)
	if err != nil {
		t.Fatal(err)
	}
	var ref RunResult
	if err := runSourceInto(context.Background(), new(replay), &ref, alg, src, equivAlpha, checkpoints, trace.NewChunk(512), ckHooks{}, nil); err != nil {
		t.Fatal(err)
	}
	return spec, checkpoints, ref
}

// sameSeries compares two run results bit-exactly (everything but the
// wall-clock fields).
func sameSeries(t *testing.T, want, got *RunResult) {
	t.Helper()
	if len(want.Series.X) != len(got.Series.X) {
		t.Fatalf("series lengths %d != %d", len(got.Series.X), len(want.Series.X))
	}
	for i := range want.Series.X {
		if want.Series.X[i] != got.Series.X[i] ||
			math.Float64bits(want.Series.Routing[i]) != math.Float64bits(got.Series.Routing[i]) ||
			math.Float64bits(want.Series.Reconfig[i]) != math.Float64bits(got.Series.Reconfig[i]) {
			t.Fatalf("series diverges at point %d: (%d, %v, %v) != (%d, %v, %v)",
				i, got.Series.X[i], got.Series.Routing[i], got.Series.Reconfig[i],
				want.Series.X[i], want.Series.Routing[i], want.Series.Reconfig[i])
		}
	}
	if want.Adds != got.Adds || want.Removals != got.Removals || want.FinalMatchingSize != got.FinalMatchingSize {
		t.Fatalf("final state (adds=%d removals=%d matching=%d) != (adds=%d removals=%d matching=%d)",
			got.Adds, got.Removals, got.FinalMatchingSize, want.Adds, want.Removals, want.FinalMatchingSize)
	}
}

// TestCheckpointedReplayMatchesPlain runs the checkpointed path end to end
// (saving but never resuming) and requires bit-identical results to the
// plain path, plus a dropped checkpoint at the end.
func TestCheckpointedReplayMatchesPlain(t *testing.T) {
	for _, shards := range []int{1, 3} {
		spec, checkpoints, ref := ckEnv(t, shards)
		src, err := spec.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		alg, err := spec.BuildAlgorithm("r-bma", equivB, 3)
		if err != nil {
			t.Fatal(err)
		}
		saves, drops := 0, 0
		ck := ckHooks{
			every: 3000,
			save:  func([]byte) error { saves++; return nil },
			drop:  func() { drops++ },
		}
		var res RunResult
		if err := runSourceInto(context.Background(), new(replay), &res, alg, src, equivAlpha, checkpoints, trace.NewChunk(512), ck, nil); err != nil {
			t.Fatal(err)
		}
		sameSeries(t, &ref, &res)
		if saves == 0 {
			t.Fatal("no checkpoint was saved")
		}
		if drops != 1 {
			t.Fatalf("drop hook called %d times, want 1", drops)
		}
	}
}

// TestCheckpointedReplayResumes interrupts a checkpointed replay (save
// hook retains the blob), then resumes from the retained checkpoint and
// requires the finished outcome to match the uninterrupted reference bit
// for bit — the grid-level form of the snapshot equivalence contract.
func TestCheckpointedReplayResumes(t *testing.T) {
	spec, checkpoints, ref := ckEnv(t, 2)

	// Phase 1: replay with checkpointing, cancelling via a save hook that
	// stops the run after the second checkpoint lands.
	var kept []byte
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	saves := 0
	ck := ckHooks{
		every: 4000,
		save: func(blob []byte) error {
			kept = append(kept[:0], blob...)
			if saves++; saves == 2 {
				cancel()
			}
			return nil
		},
	}
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	alg, err := spec.BuildAlgorithm("r-bma", equivB, 3)
	if err != nil {
		t.Fatal(err)
	}
	var partial RunResult
	if err := runSourceInto(ctx, new(replay), &partial, alg, src, equivAlpha, checkpoints, trace.NewChunk(512), ck, nil); err == nil {
		t.Fatal("cancelled replay reported success")
	}
	if kept == nil {
		t.Fatal("no checkpoint retained")
	}

	// Phase 2: fresh everything, resume from the retained blob.
	src2, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	alg2, err := spec.BuildAlgorithm("r-bma", equivB, 3)
	if err != nil {
		t.Fatal(err)
	}
	loaded := false
	dropped := false
	ck2 := ckHooks{
		load: func() ([]byte, bool) { loaded = true; return kept, true },
		drop: func() { dropped = true },
	}
	var res RunResult
	if err := runSourceInto(context.Background(), new(replay), &res, alg2, src2, equivAlpha, checkpoints, trace.NewChunk(512), ck2, nil); err != nil {
		t.Fatal(err)
	}
	if !loaded || !dropped {
		t.Fatalf("loaded=%v dropped=%v, want both", loaded, dropped)
	}
	sameSeries(t, &ref, &res)
}

// TestCheckpointedReplayCorruptFallback flips one byte in every position
// of a saved checkpoint and requires each damaged blob to degrade to a
// fresh replay with a bit-identical outcome — never an error, never a
// silently wrong result.
func TestCheckpointedReplayCorruptFallback(t *testing.T) {
	spec, checkpoints, ref := ckEnv(t, 1)
	var kept []byte
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	alg, err := spec.BuildAlgorithm("r-bma", equivB, 3)
	if err != nil {
		t.Fatal(err)
	}
	ck := ckHooks{
		every: equivRequests / 2,
		save:  func(blob []byte) error { kept = append(kept[:0], blob...); return nil },
	}
	var res RunResult
	if err := runSourceInto(context.Background(), new(replay), &res, alg, src, equivAlpha, checkpoints, trace.NewChunk(512), ck, nil); err != nil {
		t.Fatal(err)
	}
	if kept == nil {
		t.Fatal("no checkpoint retained")
	}

	// Sample corruption positions (every byte would be slow at 20k
	// requests of replay per position).
	stride := len(kept)/64 + 1
	for pos := 0; pos < len(kept); pos += stride {
		bad := append([]byte(nil), kept...)
		bad[pos] ^= 0x40
		src2, err := spec.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		alg2, err := spec.BuildAlgorithm("r-bma", equivB, 3)
		if err != nil {
			t.Fatal(err)
		}
		var got RunResult
		ck2 := ckHooks{load: func() ([]byte, bool) { return bad, true }}
		if err := runSourceInto(context.Background(), new(replay), &got, alg2, src2, equivAlpha, checkpoints, trace.NewChunk(512), ck2, nil); err != nil {
			t.Fatalf("corrupt byte %d: replay failed: %v", pos, err)
		}
		sameSeries(t, &ref, &got)
	}

	// Truncations likewise.
	for _, cut := range []int{0, 1, len(kept) / 2, len(kept) - 1} {
		src2, err := spec.NewSource()
		if err != nil {
			t.Fatal(err)
		}
		alg2, err := spec.BuildAlgorithm("r-bma", equivB, 3)
		if err != nil {
			t.Fatal(err)
		}
		var got RunResult
		ck2 := ckHooks{load: func() ([]byte, bool) { return kept[:cut], true }}
		if err := runSourceInto(context.Background(), new(replay), &got, alg2, src2, equivAlpha, checkpoints, trace.NewChunk(512), ck2, nil); err != nil {
			t.Fatalf("truncation to %d: replay failed: %v", cut, err)
		}
		sameSeries(t, &ref, &got)
	}
}
