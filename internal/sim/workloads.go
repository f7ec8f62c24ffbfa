package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"obm/internal/core"
	"obm/internal/trace"
)

// Workloads holds, for each scenario of one spec list, what every grid
// job of the scenario replays against: the cost model and a prototype of
// the workload stream whose setup (the tables over the rack pairs and the
// state after the setup draws, see trace.Forker) is computed once, on
// first use. A grid reads one source per group of a scenario's jobs (see
// group.go), and each source reads a fork of the prototype, so the groups
// — the shards of one job, say — share that setup instead of each
// rebuilding it; a fork starts from exactly the state a fresh stream's
// Reset computes, so outcomes are unchanged. Families whose streams do
// not fork get a fresh stream per source.
//
// A Workloads is safe for concurrent use. Its memory is each scenario's
// cost model and generator tables, racks² in size, held for as long as
// the Workloads is: a caller keeps one per live job and drops it when
// the job is done.
type Workloads struct {
	key       []byte // JSON encoding of the normalized specs
	scenarios map[string]*scenarioWorkload
}

// scenarioWorkload is one scenario's lazily built model and prototype.
type scenarioWorkload struct {
	spec ScenarioSpec // normalized

	modelOnce sync.Once
	model     core.CostModel

	protoOnce sync.Once
	proto     trace.Forker // nil when the family's stream does not fork
	protoErr  error
}

// NewWorkloads returns the workloads of specs. It keeps normalized copies
// of the specs and builds nothing.
func NewWorkloads(specs []ScenarioSpec) *Workloads {
	w := newWorkloads(specs)
	w.key, _ = specsKey(specs) // nil on error: then no spec list matches
	return w
}

// newWorkloads is NewWorkloads without the key that a Workloads handed
// to a grid is checked against: a grid run's private one needs none.
func newWorkloads(specs []ScenarioSpec) *Workloads {
	w := &Workloads{scenarios: make(map[string]*scenarioWorkload, len(specs))}
	for _, s := range specs {
		w.scenarios[s.Name] = &scenarioWorkload{spec: s.Normalize()}
	}
	return w
}

// specsKey is the JSON encoding of the normalized specs, the form a run
// store's spec hash covers, so specs that went through a manifest round
// trip (a nil or an empty Params, say) still encode the same.
func specsKey(specs []ScenarioSpec) ([]byte, error) {
	norm := make([]ScenarioSpec, len(specs))
	for i, s := range specs {
		norm[i] = s.Normalize()
	}
	return json.Marshal(norm)
}

// check reports whether w was built for specs.
func (w *Workloads) check(specs []ScenarioSpec) error {
	key, err := specsKey(specs)
	if err != nil {
		return fmt.Errorf("sim: encoding specs: %w", err)
	}
	if w.key == nil || !bytes.Equal(key, w.key) {
		return fmt.Errorf("sim: GridOptions.Workloads was built for other specs")
	}
	return nil
}

func (w *Workloads) scenario(name string) (*scenarioWorkload, error) {
	sw, ok := w.scenarios[name]
	if !ok {
		return nil, fmt.Errorf("sim: no scenario %q in these workloads", name)
	}
	return sw, nil
}

// Model returns the scenario's cost model, built on first use.
func (w *Workloads) Model(scenario string) (core.CostModel, error) {
	sw, err := w.scenario(scenario)
	if err != nil {
		return core.CostModel{}, err
	}
	return sw.costModel(), nil
}

func (sw *scenarioWorkload) costModel() core.CostModel {
	sw.modelOnce.Do(func() { sw.model = sw.spec.Model() })
	return sw.model
}

// Source returns a new compiled source of the scenario's workload: a
// fork of the scenario's prototype, which the first call builds, or a
// fresh stream when the family's stream does not fork. Each call returns
// an independent source, safe to hand to a parallel worker.
func (w *Workloads) Source(scenario string) (trace.Source, error) {
	sw, err := w.scenario(scenario)
	if err != nil {
		return nil, err
	}
	st, err := sw.stream()
	if err != nil {
		return nil, err
	}
	return trace.NewSource(st, sw.costModel().Metric.Dist)
}

// stream returns a stream at request 0 of the scenario's workload. The
// first call builds the stream and, if it forks, sets it up as the
// prototype; if it does not, that call replays the stream itself, so a
// family without tables still builds exactly one stream per source.
func (sw *scenarioWorkload) stream() (trace.Stream, error) {
	var own trace.Stream
	sw.protoOnce.Do(func() {
		st, err := sw.spec.NewStream()
		if err != nil {
			sw.protoErr = err
			return
		}
		f, ok := st.(trace.Forker)
		if !ok {
			own = st
			return
		}
		st.Reset()
		sw.proto = f
	})
	switch {
	case sw.protoErr != nil:
		return nil, sw.protoErr
	case own != nil:
		return own, nil
	case sw.proto != nil:
		return sw.proto.Fork(), nil
	}
	return sw.spec.NewStream()
}
