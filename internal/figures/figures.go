// Package figures defines the reproduction of every figure in the paper's
// evaluation (§3, Figures 1–4). Each sub-figure maps to a sim.Config plus
// the algorithm line-up it plots; cmd/experiments and the repository-root
// benchmarks both draw from these definitions so "the experiment" exists in
// exactly one place.
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
// distances {4, 2}), swept in the ablation benchmarks.
package figures

import (
	"fmt"
	"sync"

	"obm/internal/core"
	"obm/internal/graph"
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
	// Build assembles the experiment. scale in (0,1] shrinks the request
	// count (benchmarks use small scales; the full runs use 1.0). reps is
	// the number of averaged repetitions (paper: 5).
	Build func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error)
}

type workload struct {
	name     string
	racks    int
	requests int
	bs       []int
	bestB    int
	make     func(racks, requests int, seed uint64) (*trace.Trace, error)
}

var workloads = []workload{
	{
		name: "facebook-database", racks: 100, requests: 350000,
		bs: []int{6, 12, 18}, bestB: 18,
		make: func(racks, requests int, seed uint64) (*trace.Trace, error) {
			p := trace.FacebookPreset(trace.Database, racks, seed)
			p.Requests = requests
			return trace.FacebookStyle(p)
		},
	},
	{
		name: "facebook-webservice", racks: 100, requests: 400000,
		bs: []int{6, 12, 18}, bestB: 18,
		make: func(racks, requests int, seed uint64) (*trace.Trace, error) {
			p := trace.FacebookPreset(trace.WebService, racks, seed)
			p.Requests = requests
			return trace.FacebookStyle(p)
		},
	},
	{
		name: "facebook-hadoop", racks: 100, requests: 185000,
		bs: []int{6, 12, 18}, bestB: 18,
		make: func(racks, requests int, seed uint64) (*trace.Trace, error) {
			p := trace.FacebookPreset(trace.Hadoop, racks, seed)
			p.Requests = requests
			return trace.FacebookStyle(p)
		},
	},
	{
		name: "microsoft", racks: 50, requests: 1750000,
		bs: []int{3, 6, 9}, bestB: 9,
		make: func(racks, requests int, seed uint64) (*trace.Trace, error) {
			return trace.MicrosoftStyle(racks, requests, seed), nil
		},
	},
}

// buildConfig materializes topology, trace and model for a workload. The
// trace is compiled once against the model's metric; the raw trace is
// returned too, for SO-BMA's offline construction.
func (w workload) buildConfig(scale float64, reps int, seed uint64) (sim.Config, core.CostModel, *trace.Trace, error) {
	if scale <= 0 || scale > 1 {
		return sim.Config{}, core.CostModel{}, nil, fmt.Errorf("figures: scale %v out of (0,1]", scale)
	}
	requests := int(float64(w.requests) * scale)
	if requests < 1000 {
		requests = 1000
	}
	model := core.CostModel{Metric: graph.FatTreeMetric(w.racks), Alpha: DefaultAlpha}
	tr, err := w.make(w.racks, requests, seed)
	if err != nil {
		return sim.Config{}, core.CostModel{}, nil, err
	}
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		return sim.Config{}, core.CostModel{}, nil, err
	}
	cfg := sim.Config{
		Name:        w.name,
		Trace:       ct,
		Model:       model,
		Bs:          w.bs,
		Reps:        reps,
		Checkpoints: sim.Checkpoints(tr.Len(), 10),
	}
	return cfg, model, tr, nil
}

// RBMASpec is the paper's algorithm. One instance per b is memoized and
// re-seeded in place across repetitions and repeated experiment runs
// (core.Reseeder makes that exactly equivalent to fresh construction), so
// the figure drivers stop allocating per-pair state tables once warm —
// figures_alloc_test.go pins the steady state.
func RBMASpec(n int, model core.CostModel) sim.AlgSpec {
	var mu sync.Mutex
	cache := make(map[int]*core.RBMA)
	return sim.AlgSpec{
		Name:   "r-bma",
		FixedB: -1,
		New: func(b int, rep uint64) (core.Algorithm, error) {
			seed := rep*0x9e3779b9 + uint64(b)
			mu.Lock()
			defer mu.Unlock()
			if r, ok := cache[b]; ok {
				r.Reseed(seed)
				return r, nil
			}
			r, err := core.NewRBMA(n, b, model, seed)
			if err != nil {
				return nil, err
			}
			cache[b] = r
			return r, nil
		},
	}
}

// BMASpec is the deterministic baseline, with the same per-b instance
// memoization as RBMASpec (Reset restores the initial state in place).
func BMASpec(n int, model core.CostModel) sim.AlgSpec {
	var mu sync.Mutex
	cache := make(map[int]*core.BMA)
	return sim.AlgSpec{
		Name:   "bma",
		FixedB: -1,
		New: func(b int, rep uint64) (core.Algorithm, error) {
			mu.Lock()
			defer mu.Unlock()
			if a, ok := cache[b]; ok {
				a.Reset()
				return a, nil
			}
			a, err := core.NewBMA(n, b, model)
			if err != nil {
				return nil, err
			}
			cache[b] = a
			return a, nil
		},
	}
}

// ObliviousSpec is the static-network-only baseline. The algorithm is
// stateless, so a single instance serves every repetition.
func ObliviousSpec(model core.CostModel) sim.AlgSpec {
	var (
		once sync.Once
		inst *core.Oblivious
		ierr error
	)
	return sim.AlgSpec{
		Name:   "oblivious",
		FixedB: 0,
		New: func(b int, rep uint64) (core.Algorithm, error) {
			once.Do(func() { inst, ierr = core.NewOblivious(model) })
			return inst, ierr
		},
	}
}

// StaticSpec is SO-BMA, built offline from the full trace. A Static
// instance is immutable once built (Serve is read-only and Reset is a
// no-op), so the spec memoizes one instance per b: repetitions and repeated
// experiment runs skip the expensive iterated-blossom construction.
func StaticSpec(tr *trace.Trace, model core.CostModel) sim.AlgSpec {
	var mu sync.Mutex
	cache := make(map[int]*core.Static)
	return sim.AlgSpec{
		Name:   "so-bma",
		FixedB: -1,
		New: func(b int, rep uint64) (core.Algorithm, error) {
			mu.Lock()
			defer mu.Unlock()
			if s, ok := cache[b]; ok {
				return s, nil
			}
			s, err := core.NewStaticFromTrace(tr, b, model)
			if err != nil {
				return nil, err
			}
			cache[b] = s
			return s, nil
		},
	}
}

// All returns every sub-figure of the paper, in order.
func All() []Figure {
	var figs []Figure
	for i, w := range workloads {
		w := w
		figNum := i + 1
		figs = append(figs,
			Figure{
				ID:     fmt.Sprintf("fig%da", figNum),
				Title:  fmt.Sprintf("Figure %d(a): %s routing cost", figNum, w.name),
				Metric: RoutingCost,
				Build: func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
					cfg, model, _, err := w.buildConfig(scale, reps, seed)
					if err != nil {
						return sim.Config{}, nil, err
					}
					specs := []sim.AlgSpec{
						RBMASpec(w.racks, model),
						BMASpec(w.racks, model),
						ObliviousSpec(model),
					}
					return cfg, specs, nil
				},
			},
			Figure{
				ID:     fmt.Sprintf("fig%db", figNum),
				Title:  fmt.Sprintf("Figure %d(b): %s execution time", figNum, w.name),
				Metric: ExecutionTime,
				Build: func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
					cfg, model, _, err := w.buildConfig(scale, reps, seed)
					if err != nil {
						return sim.Config{}, nil, err
					}
					specs := []sim.AlgSpec{
						RBMASpec(w.racks, model),
						BMASpec(w.racks, model),
					}
					return cfg, specs, nil
				},
			},
			Figure{
				ID:     fmt.Sprintf("fig%dc", figNum),
				Title:  fmt.Sprintf("Figure %d(c): %s best-of comparison (b=%d)", figNum, w.name, w.bestB),
				Metric: RoutingCost,
				Build: func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
					cfg, model, tr, err := w.buildConfig(scale, reps, seed)
					if err != nil {
						return sim.Config{}, nil, err
					}
					cfg.Bs = []int{w.bestB}
					specs := []sim.AlgSpec{
						RBMASpec(w.racks, model),
						BMASpec(w.racks, model),
						StaticSpec(tr, model),
					}
					return cfg, specs, nil
				},
			},
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
