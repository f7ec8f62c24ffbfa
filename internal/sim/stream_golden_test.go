package sim

import (
	"reflect"
	"testing"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

// The streamed-replay golden suite: replaying a generator-backed streaming
// source must yield cost curves bit-identical to replaying the
// materialized trace ((*trace.Compiled).Source) on every golden trace
// family, for every chunk size, and so must the materialized adapter read
// in other chunk sizes. Together with core's golden table (which pins the
// algorithms on materialized traces to the seed implementations) this
// pins the streamed path to the paper's exact costs.

const streamGoldenAlpha = 30

// goldenStreams mirrors core's golden trace families, each as a stream
// constructor plus its materialized twin.
func goldenStreams(t *testing.T) []struct {
	name   string
	stream func() (trace.Stream, error)
	mat    func() (*trace.Trace, error)
} {
	t.Helper()
	fb := trace.FacebookPreset(trace.Database, 40, 7)
	fb.Requests = 20000
	return []struct {
		name   string
		stream func() (trace.Stream, error)
		mat    func() (*trace.Trace, error)
	}{
		{
			name:   "facebook",
			stream: func() (trace.Stream, error) { return trace.NewFacebookStream(fb) },
			mat:    func() (*trace.Trace, error) { return trace.FacebookStyle(fb) },
		},
		{
			name:   "microsoft",
			stream: func() (trace.Stream, error) { return trace.NewMicrosoftStream(30, 20000, 3) },
			mat:    func() (*trace.Trace, error) { return trace.MicrosoftStyle(30, 20000, 3), nil },
		},
		{
			name:   "uniform",
			stream: func() (trace.Stream, error) { return trace.NewUniformStream(30, 16000, 5) },
			mat:    func() (*trace.Trace, error) { return trace.Uniform(30, 16000, 5), nil },
		},
		{
			name:   "phaseshift",
			stream: func() (trace.Stream, error) { return trace.NewPhaseShiftStream(30, 16000, 4, 11) },
			mat:    func() (*trace.Trace, error) { return trace.PhaseShift(30, 16000, 4, 11) },
		},
	}
}

// sameCurves compares everything that must be bit-identical between two
// replays (wall time excepted).
func sameCurves(t *testing.T, label string, got, want *RunResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Series.X, want.Series.X) ||
		!reflect.DeepEqual(got.Series.Routing, want.Series.Routing) ||
		!reflect.DeepEqual(got.Series.Reconfig, want.Series.Reconfig) {
		t.Errorf("%s: cost curves differ from materialized replay", label)
	}
	if got.Adds != want.Adds || got.Removals != want.Removals {
		t.Errorf("%s: reconfiguration counts (%d,%d) != (%d,%d)",
			label, got.Adds, got.Removals, want.Adds, want.Removals)
	}
	if got.FinalMatchingSize != want.FinalMatchingSize {
		t.Errorf("%s: final matching size %d != %d", label, got.FinalMatchingSize, want.FinalMatchingSize)
	}
}

func TestStreamedReplayMatchesMaterialized(t *testing.T) {
	newAlg := func(name string, n int, model core.CostModel) core.Algorithm {
		t.Helper()
		var (
			alg core.Algorithm
			err error
		)
		switch name {
		case "rbma":
			alg, err = core.NewRBMA(n, 6, model, 1)
		case "bma":
			alg, err = core.NewBMA(n, 6, model)
		}
		if err != nil {
			t.Fatal(err)
		}
		return alg
	}
	for _, fam := range goldenStreams(t) {
		t.Run(fam.name, func(t *testing.T) {
			mat, err := fam.mat()
			if err != nil {
				t.Fatal(err)
			}
			n := mat.NumRacks
			model := core.CostModel{Metric: graph.FatTreeRacks(n).Metric(), Alpha: streamGoldenAlpha}
			ct, err := mat.Compile(model.Metric.Dist)
			if err != nil {
				t.Fatal(err)
			}
			cps := Checkpoints(mat.Len(), 8)
			for _, algName := range []string{"rbma", "bma"} {
				want, err := RunSource(newAlg(algName, n, model), ct.Source(), model.Alpha, cps, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunkSize := range []int{1, 997, 8192, mat.Len() + 1} {
					// Generator-backed streaming source: trace generated,
					// compiled and replayed chunk by chunk.
					st, err := fam.stream()
					if err != nil {
						t.Fatal(err)
					}
					src, err := trace.NewSource(st, model.Metric.Dist)
					if err != nil {
						t.Fatal(err)
					}
					got, err := RunSource(newAlg(algName, n, model), src, model.Alpha, cps, chunkSize)
					if err != nil {
						t.Fatal(err)
					}
					label := fam.name + "/" + algName + "/stream"
					sameCurves(t, label, &got, &want)

					// Materialized adapter: same compiled trace read as a
					// source.
					got, err = RunSource(newAlg(algName, n, model), ct.Source(), model.Alpha, cps, chunkSize)
					if err != nil {
						t.Fatal(err)
					}
					sameCurves(t, fam.name+"/"+algName+"/adapter", &got, &want)
				}
			}
		})
	}
}

// TestRunAveragedSourceMatchesCompiled pins the repetition-averaged
// streamed path (one generator-backed source, Reset per repetition) to
// RunExperiment's averaged curve on the compiled trace, bit for bit.
func TestRunAveragedSourceMatchesCompiled(t *testing.T) {
	fb := trace.FacebookPreset(trace.Database, 20, 9)
	fb.Requests = 8000
	mat, err := trace.FacebookStyle(fb)
	if err != nil {
		t.Fatal(err)
	}
	model := core.CostModel{Metric: graph.FatTreeRacks(20).Metric(), Alpha: streamGoldenAlpha}
	ct, err := mat.Compile(model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	const reps = 3
	cps := Checkpoints(mat.Len(), 5)
	newAlg := func(b int, rep uint64) (core.Algorithm, error) {
		return core.NewRBMA(20, b, model, rep)
	}
	cfg := Config{Name: "avg", Trace: ct, Model: model, Bs: []int{4}, Reps: reps, Checkpoints: cps}
	res, err := RunExperiment(cfg, []AlgSpec{{Name: "r-bma", FixedB: -1, New: newAlg}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Curves[0].Avg

	st, err := trace.NewFacebookStream(fb)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewSource(st, model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	routing, reconfig := meanOfReplays(t, func(rep uint64) (core.Algorithm, error) { return newAlg(4, rep) },
		src, model.Alpha, cps, reps, 4096)
	if !reflect.DeepEqual(want.X, cps) || !reflect.DeepEqual(routing, want.Routing) ||
		!reflect.DeepEqual(reconfig, want.Reconfig) {
		t.Fatal("averaged streamed curves differ from materialized")
	}
}
