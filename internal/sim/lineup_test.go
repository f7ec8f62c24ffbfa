package sim

import (
	"math"
	"slices"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/trace"
)

// lineUpSpec is a small single-plane scenario every registered algorithm
// runs on.
func lineUpSpec() ScenarioSpec {
	return ScenarioSpec{
		Name: "line-up", Family: "facebook-hadoop",
		Racks: 16, Requests: 4000, Seed: 5,
		Bs: []int{2, 3}, Reps: 2,
	}
}

// TestGridRunsEveryAlgorithm runs the whole registry through RunGrid, on
// one plane and (all but so-bma, which refuses) on two.
func TestGridRunsEveryAlgorithm(t *testing.T) {
	spec := lineUpSpec()
	spec.Algs = Algorithms()
	res, err := RunGrid([]ScenarioSpec{spec}, GridOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2*len(spec.Algs) - 1; len(res.Rows) != want { // oblivious has one b
		t.Fatalf("%d cells, want %d", len(res.Rows), want)
	}
	spec.Shards = 2
	if _, err := PlanGrid([]ScenarioSpec{spec}); err == nil || !strings.Contains(err.Error(), "so-bma") {
		t.Fatalf("so-bma on 2 planes: err = %v, want a refusal", err)
	}
	spec.Algs = slices.DeleteFunc(spec.Algs, Offline)
	if _, err := RunGrid([]ScenarioSpec{spec}, GridOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestStaticFromStreamMatchesTrace: the registry's so-bma counts pairs
// over the scenario's stream, and builds the matching that
// core.NewStaticFromTrace builds from the same requests materialized.
func TestStaticFromStreamMatchesTrace(t *testing.T) {
	for _, family := range []string{"facebook-database", "microsoft", "phase-shift"} {
		spec := lineUpSpec()
		spec.Family = family
		model := spec.Model()
		st, err := spec.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 3} {
			want, err := core.NewStaticFromTrace(trace.Collect(st), b, model)
			if err != nil {
				t.Fatal(err)
			}
			got, err := spec.NewAlgorithm(model, "so-bma", b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.(*core.Static).Edges(), want.Edges()) {
				t.Errorf("%s b=%d: so-bma from the stream differs from the trace's", family, b)
			}
		}
	}
}

// TestAlgSpecReuseMatchesFresh: the figure runner's AlgSpec re-seeds or
// resets one instance per b, and every repetition replays exactly like a
// fresh instance built with that repetition's seed.
func TestAlgSpecReuseMatchesFresh(t *testing.T) {
	spec := lineUpSpec()
	model := spec.Model()
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	seed := func(rep uint64, b int) uint64 { return 7*rep + uint64(b) }
	cps := []int{spec.Requests}
	for _, name := range Algorithms() {
		as, err := spec.AlgSpec(model, name, seed)
		if err != nil {
			t.Fatal(err)
		}
		for rep := uint64(0); rep < 3; rep++ {
			reused, err := as.New(3, rep)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunSource(reused, src, model.Alpha, cps, 0)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := spec.NewAlgorithm(model, name, 3, seed(rep, 3))
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunSource(fresh, src, model.Alpha, cps, 0)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Series.Routing[0]) != math.Float64bits(want.Series.Routing[0]) ||
				math.Float64bits(got.Series.Reconfig[0]) != math.Float64bits(want.Series.Reconfig[0]) {
				t.Errorf("%s rep %d: reused instance costs %v/%v, fresh %v/%v", name, rep,
					got.Series.Routing[0], got.Series.Reconfig[0], want.Series.Routing[0], want.Series.Reconfig[0])
			}
		}
	}
	spec.Shards = 2
	if _, err := spec.AlgSpec(model, "r-bma", seed); err == nil {
		t.Fatal("AlgSpec accepted a multi-plane scenario")
	}
}
