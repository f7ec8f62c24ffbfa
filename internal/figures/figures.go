// Package figures defines the reproduction of every figure in the paper's
// evaluation (§3, Figures 1–4). Each sub-figure is a sim.ScenarioSpec
// template plus the registered algorithms it plots; cmd/experiments and
// the repository-root benchmarks both draw from these definitions so "the
// experiment" exists in exactly one place, and the workloads and
// algorithms are the ones the scenario grid runs under the same names.
//
// Paper setup reproduced here (§3.1):
//   - fat-tree topology; 100 racks for the Facebook clusters, 50 for
//     Microsoft;
//   - Facebook workloads with spatial skew and temporal structure
//     (synthesized; see README.md for the substitution rationale);
//   - Microsoft workload sampled i.i.d. from a skewed traffic matrix;
//   - request cost = shortest-path length, or 1 over a matching edge;
//   - five repetitions, averaged.
//
// α is not stated in the paper; we use 30 (so k_e ∈ {8, 15} on fat-tree
// distances {4, 2}), swept in the ext-alpha extension.
package figures

import (
	"fmt"

	"obm/internal/sim"
	"obm/internal/trace"
)

// DefaultAlpha is the reconfiguration cost used by all figures.
const DefaultAlpha = 30

// Metric says which quantity a sub-figure plots.
type Metric string

const (
	// RoutingCost: cumulative routing cost vs number of requests
	// (sub-figures a and c).
	RoutingCost Metric = "routing-cost"
	// ExecutionTime: wall-clock time of the decision loop (sub-figures b).
	ExecutionTime Metric = "execution-time"
)

// Figure is one reproducible sub-figure.
type Figure struct {
	ID     string // e.g. "fig1a"
	Title  string
	Metric Metric

	// scenario is the workload at scale 1 with the figure's b sweep; its
	// name names the experiment in the output.
	scenario sim.ScenarioSpec
	// minRequests floors the scaled request count.
	minRequests int
	// algs is the line-up, in plotting order.
	algs []entry
	// seed maps a repetition and a degree cap to an algorithm seed.
	seed func(rep uint64, b int) uint64
}

// entry is one plotted algorithm: a registered name, shown as label when
// that is set, and deciding under alpha when that is set (the figure's α
// otherwise; the cost meter always charges the figure's α).
type entry struct {
	alg, label string
	alpha      float64
}

// algs lists registered algorithms plotted under their own names.
func algs(names ...string) []entry {
	out := make([]entry, len(names))
	for i, n := range names {
		out[i] = entry{alg: n}
	}
	return out
}

// paper lists the workloads of Figures 1–4 at the paper's request counts,
// with each figure's b sweep; the last b is the best-of figure's.
var paper = []sim.ScenarioSpec{
	{Name: "facebook-database", Family: "facebook-database", Racks: 100, Requests: 350000, Bs: []int{6, 12, 18}},
	{Name: "facebook-webservice", Family: "facebook-webservice", Racks: 100, Requests: 400000, Bs: []int{6, 12, 18}},
	{Name: "facebook-hadoop", Family: "facebook-hadoop", Racks: 100, Requests: 185000, Bs: []int{6, 12, 18}},
	{Name: "microsoft", Family: "microsoft", Racks: 50, Requests: 1750000, Bs: []int{3, 6, 9}},
}

// spec is the figure's scenario at the given scale, repetitions and
// trace seed, with the line-up's algorithms: the grid-runnable form of
// the figure (labels and per-entry α are the figure runner's alone).
func (f Figure) spec(scale float64, reps int, seed uint64) (sim.ScenarioSpec, error) {
	if scale <= 0 || scale > 1 {
		return sim.ScenarioSpec{}, fmt.Errorf("figures: scale %v out of (0,1]", scale)
	}
	s := f.scenario
	s.Alpha = DefaultAlpha
	s.Requests = max(int(float64(s.Requests)*scale), f.minRequests)
	s.Seed, s.Reps = seed, reps
	s.Algs = nil
	for _, e := range f.algs {
		s.Algs = append(s.Algs, e.alg)
	}
	return s, nil
}

// Build assembles the experiment. scale in (0,1] shrinks the request
// count (benchmarks use small scales; the full runs use 1.0). reps is the
// number of averaged repetitions (paper: 5). The scenario's workload is
// materialized and compiled once against its metric, and every line-up
// entry memoizes one instance per b (sim.ScenarioSpec.AlgSpec).
func (f Figure) Build(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
	spec, err := f.spec(scale, reps, seed)
	if err != nil {
		return sim.Config{}, nil, err
	}
	st, err := spec.NewStream()
	if err != nil {
		return sim.Config{}, nil, err
	}
	tr := trace.Collect(st)
	model := spec.Model()
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		return sim.Config{}, nil, err
	}
	specs := make([]sim.AlgSpec, len(f.algs))
	for i, e := range f.algs {
		m := model
		if e.alpha != 0 {
			m.Alpha = e.alpha
		}
		if specs[i], err = spec.AlgSpec(m, e.alg, f.seed); err != nil {
			return sim.Config{}, nil, err
		}
		if e.label != "" {
			specs[i].Name = e.label
		}
	}
	cfg := sim.Config{
		Name:        spec.Name,
		Trace:       ct,
		Model:       model,
		Bs:          spec.Bs,
		Reps:        reps,
		Checkpoints: sim.Checkpoints(tr.Len(), 10),
	}
	return cfg, specs, nil
}

// All returns every sub-figure of the paper, in order.
func All() []Figure {
	var figs []Figure
	for i, w := range paper {
		n := i + 1
		best := w
		best.Bs = w.Bs[len(w.Bs)-1:]
		fig := func(sub, title string, metric Metric, s sim.ScenarioSpec, line ...string) Figure {
			return Figure{
				ID:          fmt.Sprintf("fig%d%s", n, sub),
				Title:       fmt.Sprintf("Figure %d(%s): %s %s", n, sub, w.Name, title),
				Metric:      metric,
				scenario:    s,
				minRequests: 1000,
				algs:        algs(line...),
				seed:        sim.AlgSeed,
			}
		}
		figs = append(figs,
			fig("a", "routing cost", RoutingCost, w, "r-bma", "bma", "oblivious"),
			fig("b", "execution time", ExecutionTime, w, "r-bma", "bma"),
			fig("c", fmt.Sprintf("best-of comparison (b=%d)", best.Bs[0]), RoutingCost, best, "r-bma", "bma", "so-bma"),
		)
	}
	return figs
}

// ByID returns the figure (paper figure or extension experiment) with the
// given id.
func ByID(id string) (Figure, error) {
	for _, f := range AllWithExtras() {
		if f.ID == id {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("figures: unknown figure %q", id)
}
