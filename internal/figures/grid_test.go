package figures

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"obm/internal/sim"
)

// TestFig4cGridMatchesFigure: the best-of line-up, SO-BMA included, is
// made of grid algorithms, so fig4c's scenario run through RunGrid gives
// every curve's final routing cost bit for bit. With one repetition the
// grid's mean and the figure's average are both that repetition's cost.
func TestFig4cGridMatchesFigure(t *testing.T) {
	const scale, seed = 0.01, 3
	f, err := ByID("fig4c")
	if err != nil {
		t.Fatal(err)
	}
	cfg, specs, err := f.Build(scale, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	finals := res.FinalRouting()

	spec, err := f.spec(scale, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"r-bma", "bma", "so-bma"}; !slices.Equal(spec.Algs, want) || !slices.Equal(spec.Bs, []int{9}) {
		t.Fatalf("fig4c scenario runs %v at b=%v, want %v at the best b, 9", spec.Algs, spec.Bs, want)
	}
	grid, err := sim.RunGrid([]sim.ScenarioSpec{spec}, sim.GridOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Rows) != len(finals) {
		t.Fatalf("grid has %d cells, figure %d curves", len(grid.Rows), len(finals))
	}
	for _, row := range grid.Rows {
		key := fmt.Sprintf("%s(b=%d)", row.Alg, row.B)
		want, ok := finals[key]
		if !ok {
			t.Fatalf("grid cell %s has no figure curve (have %v)", key, finals)
		}
		if math.Float64bits(row.Routing.Mean) != math.Float64bits(want) {
			t.Errorf("%s: grid routing %v, figure %v", key, row.Routing.Mean, want)
		}
	}
}
