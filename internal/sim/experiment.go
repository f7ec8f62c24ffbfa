package sim

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"obm/internal/core"
	"obm/internal/trace"
)

// AlgSpec names an algorithm family and knows how to instantiate it for a
// given degree cap b and repetition seed.
type AlgSpec struct {
	Name string
	// New builds the instance; rep differs per repetition so randomized
	// algorithms get fresh seeds.
	New func(b int, rep uint64) (core.Algorithm, error)
	// FixedB, when >= 0, pins the algorithm to one b regardless of the
	// sweep (used for Oblivious, which has no b).
	FixedB int
}

// AlgSpec returns the figure runner's spec of the named registered
// algorithm for the scenario, deciding under model and seeded by
// seed(rep, b). It memoizes one instance per b: a later call re-seeds it
// (core.Reseeder) or resets it in place, which is exactly equivalent to
// a fresh construction, so repeated runs stop allocating per-pair state
// once warm. A b's repetitions therefore run one at a time, as
// RunExperiment runs them, and the scenario must have one plane.
func (s ScenarioSpec) AlgSpec(model core.CostModel, name string, seed func(rep uint64, b int) uint64) (AlgSpec, error) {
	a, err := algFor(name)
	if err != nil {
		return AlgSpec{}, fmt.Errorf("sim: %w", err)
	}
	if s.Shards > 1 {
		return AlgSpec{}, fmt.Errorf("sim: scenario %q: the figure runner replays one plane, not shards = %d", s.Name, s.Shards)
	}
	s = s.withDefaults()
	var mu sync.Mutex
	memo := make(map[int]core.Algorithm)
	return AlgSpec{Name: name, FixedB: a.fixedB, New: func(b int, rep uint64) (core.Algorithm, error) {
		sd := seed(rep, b)
		mu.Lock()
		defer mu.Unlock()
		if alg, ok := memo[b]; ok {
			if r, ok := alg.(core.Reseeder); ok {
				r.Reseed(sd)
			} else {
				alg.Reset()
			}
			return alg, nil
		}
		alg, err := a.build(s, model, b, sd)
		if err != nil {
			return nil, err
		}
		memo[b] = alg
		return alg, nil
	}}, nil
}

// Config describes one experiment: a trace replayed by several algorithm
// families across a sweep of b values, averaged over Reps repetitions.
type Config struct {
	Name string
	// Trace is the workload compiled against Model's metric
	// ((*trace.Trace).Compile), shared read-only by every replay.
	Trace       *trace.Compiled
	Model       core.CostModel
	Bs          []int
	Reps        int
	Checkpoints []int
}

// Curve is an averaged result annotated with its configuration.
type Curve struct {
	Alg string
	B   int
	Avg Averaged
}

// Result collects every curve of an experiment.
type Result struct {
	Name   string
	Curves []Curve
}

// RunExperiment executes cfg for each algorithm spec and each b on a pool
// of workers (<= 0 selects GOMAXPROCS). One (algorithm, b) cell is one
// job: its repetitions replay in order inside the job, because specs may
// re-seed one memoized instance per b in place. Each worker replays a
// zero-copy view of the shared trace through one recycled chunk and
// result buffer, so the per-run cost is the decision loops themselves.
// Cost curves are identical for every worker count; wall-clock Elapsed
// values can inflate under CPU contention, so the execution-time figures
// run on one worker.
//
// On failure every job error is reported (joined with errors.Join, in job
// order), not just the first: after the first failure no further jobs are
// started, but already-running jobs finish and their errors are collected
// too.
func RunExperiment(cfg Config, specs []AlgSpec, workers int) (*Result, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("sim: experiment %q has no trace", cfg.Name)
	}
	if cfg.Reps < 1 {
		return nil, fmt.Errorf("sim: experiment %q needs Reps >= 1", cfg.Name)
	}
	if len(cfg.Bs) == 0 {
		return nil, fmt.Errorf("sim: experiment %q needs a b sweep", cfg.Name)
	}
	type job struct {
		spec AlgSpec
		b    int
	}
	var jobs []job
	for _, spec := range specs {
		bs := cfg.Bs
		if spec.FixedB >= 0 {
			bs = []int{spec.FixedB}
		}
		for _, b := range bs {
			jobs = append(jobs, job{spec: spec, b: b})
		}
	}
	curves := make([]Curve, len(jobs))
	err := runPool(context.Background(), len(jobs), workers, func() func(int) error {
		src := cfg.Trace.Source()
		chunk := trace.NewChunk(0)
		var rp replay
		var res RunResult
		return func(ji int) error {
			j := jobs[ji]
			avg := Averaged{Reps: cfg.Reps}
			var elapsed time.Duration
			for rep := 0; rep < cfg.Reps; rep++ {
				alg, err := j.spec.New(j.b, uint64(rep))
				if err == nil {
					err = runSourceInto(context.Background(), &rp, &res, alg, src, cfg.Model.Alpha, cfg.Checkpoints, chunk, ckHooks{}, nil)
				}
				if err != nil {
					return fmt.Errorf("sim: %s/%s(b=%d): %w", cfg.Name, j.spec.Name, j.b, err)
				}
				if rep == 0 {
					avg.Label = res.Series.Label
					avg.X = append([]int(nil), res.Series.X...)
					avg.Routing = make([]float64, len(res.Series.Routing))
					avg.Reconfig = make([]float64, len(res.Series.Reconfig))
				}
				for i := range res.Series.Routing {
					avg.Routing[i] += res.Series.Routing[i]
					avg.Reconfig[i] += res.Series.Reconfig[i]
				}
				elapsed += res.Elapsed
			}
			for i := range avg.Routing {
				avg.Routing[i] /= float64(cfg.Reps)
				avg.Reconfig[i] /= float64(cfg.Reps)
			}
			avg.Elapsed = elapsed / time.Duration(cfg.Reps)
			curves[ji] = Curve{Alg: j.spec.Name, B: j.b, Avg: avg}
			return nil
		}
	})
	if err != nil {
		return nil, err
	}
	return &Result{Name: cfg.Name, Curves: curves}, nil
}

// WriteCSV emits the experiment result as tidy CSV:
// experiment,alg,b,requests,routing_cost,reconfig_cost,total_cost,elapsed_ms
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "experiment,alg,b,requests,routing_cost,reconfig_cost,total_cost,elapsed_ms"); err != nil {
		return err
	}
	for _, c := range r.Curves {
		for i, x := range c.Avg.X {
			total := c.Avg.Routing[i] + c.Avg.Reconfig[i]
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.1f,%.1f,%.1f,%.3f\n",
				r.Name, c.Alg, c.B, x, c.Avg.Routing[i], c.Avg.Reconfig[i], total,
				float64(c.Avg.Elapsed)/float64(time.Millisecond)); err != nil {
				return err
			}
		}
	}
	return nil
}

// FinalRouting returns each curve's final cumulative routing cost, keyed
// "alg(b=?)", for summary tables.
func (r *Result) FinalRouting() map[string]float64 {
	out := make(map[string]float64, len(r.Curves))
	for _, c := range r.Curves {
		if len(c.Avg.Routing) == 0 {
			continue
		}
		out[fmt.Sprintf("%s(b=%d)", c.Alg, c.B)] = c.Avg.Routing[len(c.Avg.Routing)-1]
	}
	return out
}

// SummaryRows renders "alg b final_routing elapsed_ms" rows sorted by
// algorithm then b, for terminal output.
func (r *Result) SummaryRows() []string {
	curves := append([]Curve(nil), r.Curves...)
	sort.Slice(curves, func(i, j int) bool {
		if curves[i].Alg != curves[j].Alg {
			return curves[i].Alg < curves[j].Alg
		}
		return curves[i].B < curves[j].B
	})
	rows := make([]string, 0, len(curves))
	for _, c := range curves {
		final := 0.0
		if n := len(c.Avg.Routing); n > 0 {
			final = c.Avg.Routing[n-1]
		}
		rows = append(rows, fmt.Sprintf("%-22s b=%-3d routing=%.3e  time=%8.2fms",
			c.Alg, c.B, final, float64(c.Avg.Elapsed)/float64(time.Millisecond)))
	}
	return rows
}
