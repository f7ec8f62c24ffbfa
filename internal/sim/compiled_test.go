package sim

import (
	"testing"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

// serveOnly hides an algorithm's core.CompiledServer fast path, so a
// replay of it falls back to Serve(u, v).
type serveOnly struct{ core.Algorithm }

// A replay through ServeChunk must produce exactly the curves a replay
// through Serve(u, v) produces, for algorithms with the dense fast path
// (R-BMA, eager R-BMA, BMA, oblivious, SO-BMA) and for a fallback
// algorithm that has none (rotor).
func TestRunCompiledMatchesRun(t *testing.T) {
	const n = 20
	top := graph.FatTreeRacks(n)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	tr, err := trace.FacebookStyle(trace.FacebookPreset(trace.Database, n, 3))
	if err != nil {
		t.Fatal(err)
	}
	tr = tr.Prefix(20000)
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := Checkpoints(tr.Len(), 7)

	algs := map[string]func() (core.Algorithm, error){
		"r-bma": func() (core.Algorithm, error) { return core.NewRBMA(n, 4, model, 5) },
		"r-bma-eager": func() (core.Algorithm, error) {
			return core.NewRBMA(n, 4, model, 5, core.WithEagerRemoval())
		},
		"bma":       func() (core.Algorithm, error) { return core.NewBMA(n, 4, model) },
		"oblivious": func() (core.Algorithm, error) { return core.NewOblivious(model) },
		"so-bma":    func() (core.Algorithm, error) { return core.NewStaticFromTrace(tr, 4, model) },
		"rotor":     func() (core.Algorithm, error) { return core.NewRotor(n, 4, model, 100) },
	}
	for name, mk := range algs {
		t.Run(name, func(t *testing.T) {
			a1, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			plain, err := RunSource(serveOnly{a1}, ct.Source(), model.Alpha, checkpoints, 0)
			if err != nil {
				t.Fatal(err)
			}
			a2, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			if _, fast := a2.(core.CompiledServer); !fast && name != "rotor" {
				t.Errorf("%s lost its ServeChunk fast path", name)
			}
			compiled, err := RunSource(a2, ct.Source(), model.Alpha, checkpoints, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Series.X) != len(checkpoints) || len(compiled.Series.X) != len(checkpoints) {
				t.Fatalf("curves have %d and %d points, want %d", len(plain.Series.X), len(compiled.Series.X), len(checkpoints))
			}
			if plain.Adds != compiled.Adds || plain.Removals != compiled.Removals ||
				plain.FinalMatchingSize != compiled.FinalMatchingSize {
				t.Fatalf("step totals diverged: plain %+v, compiled %+v", plain, compiled)
			}
			for i := range plain.Series.X {
				if plain.Series.X[i] != compiled.Series.X[i] ||
					plain.Series.Routing[i] != compiled.Series.Routing[i] ||
					plain.Series.Reconfig[i] != compiled.Series.Reconfig[i] {
					t.Fatalf("checkpoint %d diverged: plain (%d,%v,%v), compiled (%d,%v,%v)",
						i, plain.Series.X[i], plain.Series.Routing[i], plain.Series.Reconfig[i],
						compiled.Series.X[i], compiled.Series.Routing[i], compiled.Series.Reconfig[i])
				}
			}
		})
	}
}

// The one-worker and four-worker runs of RunExperiment must agree curve
// for curve on a second workload and line-up: R-BMA and BMA swept over b
// on a Microsoft-style trace.
func TestRunExperimentParallelMatchesSequentialCompiled(t *testing.T) {
	const n = 16
	model := core.CostModel{Metric: graph.FatTreeRacks(n).Metric(), Alpha: 30}
	ct, err := trace.MicrosoftStyle(n, 12000, 9).Compile(model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Name: "parity", Trace: ct, Model: model,
		Bs: []int{2, 4}, Reps: 2, Checkpoints: Checkpoints(ct.Len(), 5),
	}
	specs := []AlgSpec{
		{
			Name: "r-bma", FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewRBMA(n, b, model, rep*7+uint64(b))
			},
		},
		{
			Name: "bma", FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) { return core.NewBMA(n, b, model) },
		},
	}
	requireWorkerParity(t, cfg, specs, 4)
}
