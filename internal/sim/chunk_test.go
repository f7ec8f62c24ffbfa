package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"obm/internal/core"
	"obm/internal/stats"
	"obm/internal/trace"
)

// TestFeedChunkMatchesPerRequestServe is the chunk path's fold-order
// property: for every registered algorithm, one plane and three, at
// α = 30.1 (where a reordered sum shows in the last bits), a replay fed in
// random chunk splits with random curve checkpoints must produce exactly
// the totals and curve of per-request Serve(u, v) folded with
// core.ShardStep.Add — Float64bits for the costs, exact adds and removals.
func TestFeedChunkMatchesPerRequestServe(t *testing.T) {
	const alpha = 30.1
	rng := stats.NewRand(24)
	families := []string{"uniform", "microsoft", "facebook-database", "phase-shift"}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	for trial := 0; trial < trials; trial++ {
		spec := ScenarioSpec{
			Name: "chunk", Family: families[trial%len(families)],
			Racks: 6 + rng.Intn(35), Requests: 3000 + rng.Intn(3000),
			Seed: rng.Uint64(), Alpha: alpha, Bs: []int{1 + rng.Intn(4)},
		}
		ct := compileSpec(t, spec)
		for _, shards := range []int{1, 3} {
			spec.Shards = shards
			for _, name := range Algorithms() {
				if Offline(name) && shards > 1 {
					continue
				}
				t.Run(fmt.Sprintf("%s/racks=%d/shards=%d/%s", spec.Family, spec.Racks, shards, name), func(t *testing.T) {
					checkChunkFold(t, spec, name, ct, rng)
				})
			}
		}
	}
}

// compileSpec materializes the spec's trace as compiled requests.
func compileSpec(t *testing.T, spec ScenarioSpec) []trace.CompiledReq {
	t.Helper()
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	var reqs []trace.CompiledReq
	chunk := trace.NewChunk(0)
	src.Reset()
	for {
		n, err := src.Next(chunk)
		if n == 0 || err != nil {
			break
		}
		reqs = append(reqs, chunk.Reqs[:n]...)
	}
	if len(reqs) != spec.Requests {
		t.Fatalf("compiled %d requests, spec has %d", len(reqs), spec.Requests)
	}
	return reqs
}

// checkChunkFold replays reqs through two fresh instances of one
// algorithm, per request through Serve and in random chunks through the
// replay loop, and compares their curves and totals bit for bit.
func checkChunkFold(t *testing.T, spec ScenarioSpec, name string, reqs []trace.CompiledReq, rng *stats.Rand) {
	build := func() core.Algorithm {
		alg, err := spec.BuildAlgorithm(name, spec.Bs[0], 2)
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	var checkpoints []int
	for x := 1; x <= len(reqs); x++ {
		if rng.Intn(300) == 0 || x == len(reqs) {
			checkpoints = append(checkpoints, x)
		}
	}

	// Reference: per-request Serve folded with ShardStep.Add.
	ref := build()
	var want core.ShardStep
	var wantCurve [][2]float64
	for i, req := range reqs {
		want.Add(ref.Serve(int(req.U), int(req.V)), spec.Alpha)
		if slices.Contains(checkpoints, i+1) {
			wantCurve = append(wantCurve, [2]float64{want.Routing, want.Reconfig})
		}
	}

	alg := build()
	if _, ok := alg.(core.CompiledServer); !ok && (name == "r-bma" || name == "bma") {
		t.Fatalf("%s has no ServeChunk", name)
	}
	var res RunResult
	var r replay
	if err := r.begin(&res, alg, len(reqs), spec.Alpha, checkpoints, ckHooks{}, nil); err != nil {
		t.Fatal(err)
	}
	for rest := reqs; len(rest) > 0; {
		n := min(len(rest), 1+rng.Intn(700))
		if err := r.feed(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if err := r.end(name); err != nil {
		t.Fatal(err)
	}
	got := r.m.inc.tot
	if math.Float64bits(got.Routing) != math.Float64bits(want.Routing) ||
		math.Float64bits(got.Reconfig) != math.Float64bits(want.Reconfig) ||
		got.Adds != want.Adds || got.Removals != want.Removals {
		t.Fatalf("chunked totals %+v, per-request %+v", got, want)
	}
	if len(res.Series.X) != len(checkpoints) {
		t.Fatalf("curve has %d points, want %d", len(res.Series.X), len(checkpoints))
	}
	for i, x := range checkpoints {
		if res.Series.X[i] != x ||
			math.Float64bits(res.Series.Routing[i]) != math.Float64bits(wantCurve[i][0]) ||
			math.Float64bits(res.Series.Reconfig[i]) != math.Float64bits(wantCurve[i][1]) {
			t.Fatalf("curve point %d at %d: (%v, %v), per-request (%v, %v) at %d",
				i, res.Series.X[i], res.Series.Routing[i], res.Series.Reconfig[i], wantCurve[i][0], wantCurve[i][1], x)
		}
	}
}
