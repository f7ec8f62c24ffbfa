package figures

import (
	"fmt"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/paging"
	"obm/internal/sim"
	"obm/internal/trace"
)

// Extras returns the extension experiments that go beyond the paper's
// figures: the reproduction's ablation experiments, runnable from
// cmd/experiments exactly like the paper figures ("ext-…" ids).
func Extras() []Figure {
	return []Figure{
		extCachePolicy(),
		extLazyEager(),
		extAlpha(),
		extRotor(),
		extShift(),
	}
}

// AllWithExtras returns the paper figures followed by the extensions.
func AllWithExtras() []Figure {
	return append(All(), Extras()...)
}

// extConfig compiles tr against the model's metric into an extension's
// experiment config.
func extConfig(name string, tr *trace.Trace, model core.CostModel, bs []int, reps int) (sim.Config, error) {
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		return sim.Config{}, err
	}
	return sim.Config{
		Name:        name,
		Trace:       ct,
		Model:       model,
		Bs:          bs,
		Reps:        reps,
		Checkpoints: sim.Checkpoints(tr.Len(), 10),
	}, nil
}

// extWorkload is the workload most extensions share: a 50-rack
// Facebook-webservice trace on a fat-tree.
func extWorkload(name string, bs []int, scale float64, reps int, seed uint64) (sim.Config, core.CostModel, error) {
	const racks = 50
	model := core.CostModel{Metric: graph.FatTreeRacks(racks).Metric(), Alpha: DefaultAlpha}
	p := trace.FacebookPreset(trace.WebService, racks, seed)
	p.Requests = max(int(200000*scale), 1000)
	tr, err := trace.FacebookStyle(p)
	if err != nil {
		return sim.Config{}, core.CostModel{}, err
	}
	cfg, err := extConfig(name, tr, model, bs, reps)
	return cfg, model, err
}

func extCachePolicy() Figure {
	return Figure{
		ID:     "ext-policy",
		Title:  "Extension: paging policy inside R-BMA (marking vs LRU/FIFO/random)",
		Metric: RoutingCost,
		Build: func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
			cfg, model, err := extWorkload("ext-policy", []int{2}, scale, reps, seed)
			if err != nil {
				return sim.Config{}, nil, err
			}
			n := cfg.Trace.NumRacks
			policies := []struct {
				name string
				f    paging.Factory
			}{
				{"marking", paging.NewMarkingFactory},
				{"lru", paging.NewLRUFactory},
				{"fifo", paging.NewFIFOFactory},
				{"random", paging.NewRandomEvictFactory},
			}
			var specs []sim.AlgSpec
			for _, p := range policies {
				p := p
				specs = append(specs, sim.AlgSpec{
					Name:   "r-bma-" + p.name,
					FixedB: -1,
					New: func(b int, rep uint64) (core.Algorithm, error) {
						return core.NewRBMA(n, b, model, rep, core.WithCacheFactory(p.f, p.name))
					},
				})
			}
			return cfg, specs, nil
		},
	}
}

func extLazyEager() Figure {
	return Figure{
		ID:     "ext-lazy",
		Title:  "Extension: lazy pruning (paper footnote 2) vs eager removal",
		Metric: RoutingCost,
		Build: func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
			cfg, model, err := extWorkload("ext-lazy", []int{2}, scale, reps, seed)
			if err != nil {
				return sim.Config{}, nil, err
			}
			n := cfg.Trace.NumRacks
			specs := []sim.AlgSpec{
				{Name: "r-bma-lazy", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
					return core.NewRBMA(n, b, model, rep)
				}},
				{Name: "r-bma-eager", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
					return core.NewRBMA(n, b, model, rep, core.WithEagerRemoval())
				}},
			}
			return cfg, specs, nil
		},
	}
}

func extAlpha() Figure {
	return Figure{
		ID:     "ext-alpha",
		Title:  "Extension: sensitivity to the reconfiguration cost α",
		Metric: RoutingCost,
		Build: func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
			cfg, _, err := extWorkload("ext-alpha", []int{6}, scale, reps, seed)
			if err != nil {
				return sim.Config{}, nil, err
			}
			n := cfg.Trace.NumRacks
			top := graph.FatTreeRacks(n)
			var specs []sim.AlgSpec
			for _, alpha := range []float64{5, 30, 120} {
				model := core.CostModel{Metric: top.Metric(), Alpha: alpha}
				alpha := alpha
				specs = append(specs, sim.AlgSpec{
					Name:   fmt.Sprintf("r-bma-a%g", alpha),
					FixedB: -1,
					New: func(b int, rep uint64) (core.Algorithm, error) {
						return core.NewRBMA(n, b, model, rep)
					},
				})
			}
			return cfg, specs, nil
		},
	}
}

func extRotor() Figure {
	return Figure{
		ID:     "ext-rotor",
		Title:  "Extension: demand-aware R-BMA vs demand-oblivious rotor",
		Metric: RoutingCost,
		Build: func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
			cfg, model, err := extWorkload("ext-rotor", []int{3, 6}, scale, reps, seed)
			if err != nil {
				return sim.Config{}, nil, err
			}
			n := cfg.Trace.NumRacks
			specs := []sim.AlgSpec{
				{Name: "r-bma", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
					return core.NewRBMA(n, b, model, rep)
				}},
				{Name: "rotor", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
					return core.NewRotor(n, b, model, 100)
				}},
				ObliviousSpec(model),
			}
			return cfg, specs, nil
		},
	}
}

func extShift() Figure {
	return Figure{
		ID:     "ext-shift",
		Title:  "Extension: adaptation to phase-shifting demand",
		Metric: RoutingCost,
		Build: func(scale float64, reps int, seed uint64) (sim.Config, []sim.AlgSpec, error) {
			const racks = 50
			model := core.CostModel{Metric: graph.FatTreeRacks(racks).Metric(), Alpha: DefaultAlpha}
			tr, err := trace.PhaseShift(racks, max(int(200000*scale), 2000), 8, seed)
			if err != nil {
				return sim.Config{}, nil, err
			}
			cfg, err := extConfig("ext-shift", tr, model, []int{2}, reps)
			if err != nil {
				return sim.Config{}, nil, err
			}
			specs := []sim.AlgSpec{
				{Name: "r-bma", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
					return core.NewRBMA(racks, b, model, rep)
				}},
				{Name: "greedy-noevict", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
					return core.NewGreedyNoEvict(racks, b, model)
				}},
				{Name: "so-bma", FixedB: -1, New: func(b int, rep uint64) (core.Algorithm, error) {
					return core.NewStaticFromTrace(tr, b, model)
				}},
				ObliviousSpec(model),
			}
			return cfg, specs, nil
		},
	}
}
