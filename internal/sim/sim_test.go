package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

func testSetup(n int) (core.CostModel, *trace.Compiled) {
	top := graph.FatTreeRacks(n)
	model := core.CostModel{Metric: top.Metric(), Alpha: 30}
	tr, _ := trace.FacebookStyle(trace.FacebookPreset(trace.Database, n, 5))
	ct, err := tr.Prefix(20000).Compile(model.Metric.Dist)
	if err != nil {
		panic(err)
	}
	return model, ct
}

func TestCheckpoints(t *testing.T) {
	cps := Checkpoints(100, 4)
	want := []int{25, 50, 75, 100}
	for i := range want {
		if cps[i] != want[i] {
			t.Fatalf("Checkpoints = %v", cps)
		}
	}
	if got := Checkpoints(3, 10); len(got) != 3 {
		t.Fatalf("Checkpoints should clamp num to total: %v", got)
	}
}

func TestCheckpointsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Checkpoints(0, 5)
}

func TestRunProducesMonotoneCurves(t *testing.T) {
	model, ct := testSetup(12)
	alg, err := core.NewRBMA(12, 3, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSource(alg, ct.Source(), model.Alpha, Checkpoints(ct.Len(), 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series.X) != 10 {
		t.Fatalf("got %d checkpoints", len(res.Series.X))
	}
	for i := 1; i < len(res.Series.X); i++ {
		if res.Series.Routing[i] < res.Series.Routing[i-1] {
			t.Fatal("routing cost must be non-decreasing")
		}
		if res.Series.Reconfig[i] < res.Series.Reconfig[i-1] {
			t.Fatal("reconfig cost must be non-decreasing")
		}
	}
	if res.Adds == 0 {
		t.Fatal("R-BMA should reconfigure on a skewed trace")
	}
	if res.FinalMatchingSize == 0 {
		t.Fatal("final matching empty")
	}
}

func TestRunRejectsBadCheckpoints(t *testing.T) {
	model, ct := testSetup(10)
	alg, _ := core.NewOblivious(model)
	for _, tc := range []struct {
		name        string
		checkpoints []int
	}{
		{"non-ascending", []int{10, 10}},
		{"beyond trace", []int{ct.Len() + 1}},
		// No replay ever reaches request 0, so sampling would stop there
		// and return an empty curve.
		{"below 1", []int{0, ct.Len() / 2, ct.Len()}},
		{"negative", []int{-5}},
	} {
		if _, err := RunSource(alg, ct.Source(), model.Alpha, tc.checkpoints, 0); err == nil {
			t.Errorf("%s checkpoints %v accepted", tc.name, tc.checkpoints)
		}
	}
}

// meanOfReplays replays newAlg(rep) through src once per repetition, in
// repetition order, and returns the mean routing and reconfiguration
// curves. It fails the test when every repetition pays the same final
// cost, since then the seeds do not vary.
func meanOfReplays(t *testing.T, newAlg func(rep uint64) (core.Algorithm, error), src trace.Source,
	alpha float64, cps []int, reps, chunkSize int) (routing, reconfig []float64) {
	t.Helper()
	routing = make([]float64, len(cps))
	reconfig = make([]float64, len(cps))
	finals := map[float64]bool{}
	for rep := 0; rep < reps; rep++ {
		alg, err := newAlg(uint64(rep))
		if err != nil {
			t.Fatal(err)
		}
		one, err := RunSource(alg, src, alpha, cps, chunkSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cps {
			routing[i] += one.Series.Routing[i]
			reconfig[i] += one.Series.Reconfig[i]
		}
		finals[one.Series.Routing[len(cps)-1]] = true
	}
	if len(finals) < 2 {
		t.Fatal("every repetition paid the same cost; the seeds do not vary")
	}
	for i := range cps {
		routing[i] /= float64(reps)
		reconfig[i] /= float64(reps)
	}
	return routing, reconfig
}

// RunExperiment averages each cell's repetitions in repetition order: its
// curve is bit-identical to the mean of the individual replays of the
// compiled trace.
func TestRunAveragedAveragesOverSeeds(t *testing.T) {
	model, ct := testSetup(10)
	const reps = 3
	cps := Checkpoints(ct.Len(), 5)
	newAlg := func(b int, rep uint64) (core.Algorithm, error) {
		return core.NewRBMA(10, b, model, rep)
	}
	cfg := Config{Name: "avg", Trace: ct, Model: model, Bs: []int{3}, Reps: reps, Checkpoints: cps}
	res, err := RunExperiment(cfg, []AlgSpec{{Name: "r-bma", FixedB: -1, New: newAlg}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Curves[0].Avg
	if got.Reps != reps || got.Label != "r-bma" || len(got.Routing) != len(cps) {
		t.Fatalf("averaged curve = %+v", got)
	}
	if got.Routing[len(cps)-1] <= 0 {
		t.Fatal("averaged routing cost should be positive")
	}
	routing, reconfig := meanOfReplays(t, func(rep uint64) (core.Algorithm, error) { return newAlg(3, rep) },
		ct.Source(), model.Alpha, cps, reps, 0)
	if !reflect.DeepEqual(got.X, cps) || !reflect.DeepEqual(got.Routing, routing) ||
		!reflect.DeepEqual(got.Reconfig, reconfig) {
		t.Fatalf("averaged curve differs from the mean of the repetitions:\n got %v / %v\nwant %v / %v",
			got.Routing, got.Reconfig, routing, reconfig)
	}
}

func TestRunExperimentAndCSV(t *testing.T) {
	model, ct := testSetup(10)
	cfg := Config{
		Name:        "unit",
		Trace:       ct,
		Model:       model,
		Bs:          []int{2, 4},
		Reps:        2,
		Checkpoints: Checkpoints(ct.Len(), 4),
	}
	specs := []AlgSpec{
		{
			Name:   "r-bma",
			FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewRBMA(10, b, model, rep)
			},
		},
		{
			Name:   "oblivious",
			FixedB: 0,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewOblivious(model)
			},
		},
	}
	res, err := RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// r-bma at b=2 and b=4, oblivious once.
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d, want 3", len(res.Curves))
	}
	finals := res.FinalRouting()
	if finals["r-bma(b=4)"] >= finals["oblivious(b=0)"] {
		t.Fatalf("r-bma (%v) should beat oblivious (%v)",
			finals["r-bma(b=4)"], finals["oblivious(b=0)"])
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "experiment,alg,b,requests") {
		t.Fatal("CSV header missing")
	}
	if lines := strings.Count(out, "\n"); lines != 1+3*4 {
		t.Fatalf("CSV has %d lines, want 13", lines)
	}
	if rows := res.SummaryRows(); len(rows) != 3 {
		t.Fatalf("summary rows = %d", len(rows))
	}
}

// requireWorkerParity runs cfg on one worker and on four and fails unless
// both produce wantCurves curves that agree in job order, bit for bit.
func requireWorkerParity(t *testing.T, cfg Config, specs []AlgSpec, wantCurves int) {
	t.Helper()
	seq, err := RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunExperiment(cfg, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Curves) != wantCurves || len(par.Curves) != len(seq.Curves) {
		t.Fatalf("curve counts %d (1 worker) and %d (4 workers), want %d", len(seq.Curves), len(par.Curves), wantCurves)
	}
	for i := range seq.Curves {
		s, p := seq.Curves[i], par.Curves[i]
		if s.Alg != p.Alg || s.B != p.B || s.Avg.Label != p.Avg.Label || s.Avg.Reps != p.Avg.Reps {
			t.Fatalf("curve %d identity differs: %s(b=%d) vs %s(b=%d)", i, s.Alg, s.B, p.Alg, p.B)
		}
		if !reflect.DeepEqual(s.Avg.X, p.Avg.X) || !reflect.DeepEqual(s.Avg.Routing, p.Avg.Routing) ||
			!reflect.DeepEqual(s.Avg.Reconfig, p.Avg.Reconfig) {
			t.Fatalf("curve %s(b=%d) differs between 1 and 4 workers", s.Alg, s.B)
		}
	}
}

// RunExperiment's cost curves must not depend on the worker count, also
// for a spec pinned to one b (FixedB) beside a b sweep.
func TestParallelMatchesSequential(t *testing.T) {
	model, ct := testSetup(10)
	cfg := Config{
		Name: "par", Trace: ct, Model: model,
		Bs: []int{2, 4}, Reps: 2, Checkpoints: Checkpoints(ct.Len(), 4),
	}
	specs := []AlgSpec{
		{
			Name: "r-bma", FixedB: -1,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewRBMA(10, b, model, rep+uint64(b)<<16)
			},
		},
		{
			Name: "oblivious", FixedB: 0,
			New: func(b int, rep uint64) (core.Algorithm, error) {
				return core.NewOblivious(model)
			},
		},
	}
	requireWorkerParity(t, cfg, specs, 3)
}

// requireExperimentValidation checks that RunExperiment on the given
// worker count rejects a config without repetitions, b sweep or trace.
func requireExperimentValidation(t *testing.T, workers int) {
	t.Helper()
	model, ct := testSetup(10)
	if _, err := RunExperiment(Config{Name: "x", Trace: ct, Model: model, Bs: []int{2}}, nil, workers); err == nil {
		t.Fatalf("workers=%d: Reps=0 accepted", workers)
	}
	if _, err := RunExperiment(Config{Name: "x", Trace: ct, Model: model, Reps: 1}, nil, workers); err == nil {
		t.Fatalf("workers=%d: empty b sweep accepted", workers)
	}
	if _, err := RunExperiment(Config{Name: "x", Model: model, Bs: []int{2}, Reps: 1}, nil, workers); err == nil {
		t.Fatalf("workers=%d: missing trace accepted", workers)
	}
}

func TestRunExperimentValidation(t *testing.T) {
	requireExperimentValidation(t, 1)
}

// The same validation holds on a multi-worker pool, including the
// GOMAXPROCS default (workers <= 0).
func TestParallelValidation(t *testing.T) {
	for _, workers := range []int{0, 2, 4} {
		requireExperimentValidation(t, workers)
	}
}

func TestASCIIChartRenders(t *testing.T) {
	model, ct := testSetup(10)
	cfg := Config{
		Name: "chart", Trace: ct, Model: model,
		Bs: []int{2}, Reps: 1, Checkpoints: Checkpoints(ct.Len(), 6),
	}
	specs := []AlgSpec{{
		Name:   "r-bma",
		FixedB: -1,
		New: func(b int, rep uint64) (core.Algorithm, error) {
			return core.NewRBMA(10, b, model, rep)
		},
	}}
	res, err := RunExperiment(cfg, specs, 1)
	if err != nil {
		t.Fatal(err)
	}
	chart := ASCIIChart("routing", res.Curves, 40, 10)
	if !strings.Contains(chart, "r-bma(b=2)") {
		t.Fatalf("chart missing legend:\n%s", chart)
	}
	if !strings.Contains(chart, "*") {
		t.Fatalf("chart missing data points:\n%s", chart)
	}
	empty := ASCIIChart("empty", nil, 40, 10)
	if !strings.Contains(empty, "no data") {
		t.Fatal("empty chart should say so")
	}
}
