package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/paging"
	"obm/internal/trace"
)

// ScenarioSpec is one named, JSON-encodable experiment scenario: a workload
// family with its parameters, the cost model, the algorithm line-up, the
// b sweep and the repetition count. The grid scheduler expands a list of
// specs into a (scenario × algorithm × b × rep) job grid.
//
// Workloads are built as streaming trace.Sources, so a spec with 10⁸
// requests replays under O(chunk) memory. The trace seed is Seed (fixed
// across repetitions, like the figure experiments); algorithm seeds vary
// per repetition.
type ScenarioSpec struct {
	Name     string `json:"name"`
	Family   string `json:"family"`
	Racks    int    `json:"racks"`
	Requests int    `json:"requests"`
	Seed     uint64 `json:"seed"`
	// Alpha is the reconfiguration cost (default 30, the figures' value).
	Alpha float64 `json:"alpha,omitempty"`
	// Bs is the degree-cap sweep.
	Bs []int `json:"bs"`
	// Reps is the repetition count (algorithm seeds differ per rep).
	Reps int `json:"reps"`
	// Shards, when > 1, runs every algorithm as that many independent
	// switch planes over a node-row partition of the pair universe
	// (core.Sharded): each plane keeps its own degree-b matching over the
	// pairs it owns, so a rack can hold up to Shards·b optical edges in
	// total — the multi-layer reconfigurable fabrics of the rotor-switch
	// literature. Shard count is part of the experiment's identity
	// (results for S planes differ from one plane); a multi-plane job
	// replays through the grid like any other, its planes serving the
	// requests in trace order. 0 and 1 both mean the classic single-plane
	// algorithm and hash identically (omitempty), so existing persisted
	// runs stay valid.
	Shards int `json:"shards,omitempty"`
	// Algs names the algorithm line-up (see Algorithms); default
	// ["r-bma", "bma", "oblivious"].
	Algs []string `json:"algs,omitempty"`
	// Params carries family-specific knobs (see each family's docs);
	// unknown keys are rejected by the family builder.
	Params map[string]float64 `json:"params,omitempty"`
}

// Normalize returns the spec with every optional field filled with its
// default (alpha, algorithm line-up, repetition count). Persisted run
// manifests store normalized specs, so a spec hash does not depend on
// whether defaults were spelled out or omitted.
func (s ScenarioSpec) Normalize() ScenarioSpec { return s.withDefaults() }

// withDefaults fills the optional fields.
func (s ScenarioSpec) withDefaults() ScenarioSpec {
	if s.Alpha == 0 {
		s.Alpha = 30
	}
	if len(s.Algs) == 0 {
		s.Algs = []string{"r-bma", "bma", "oblivious"}
	}
	if s.Reps == 0 {
		s.Reps = 1
	}
	return s
}

// Bounds on the spec values that size allocations.
const (
	// MaxRacks bounds a scenario's rack count: trace.MaxRacks, the one
	// rack bound of the stack.
	MaxRacks = trace.MaxRacks
	// MaxGridJobs bounds the jobs one spec list plans, so a huge Reps or
	// sweep is refused before the job list is allocated.
	MaxGridJobs = 1 << 20
)

// Validate reports whether the spec is runnable: everything PlanGrid
// checks, plus the family parameters. The family builder checks those by
// constructing the workload stream, which builds no table sized by the
// rack count, so Validate costs microseconds and O(racks) memory.
func (s ScenarioSpec) Validate() error {
	if _, err := s.checkPlan(); err != nil {
		return err
	}
	if _, err := s.NewStream(); err != nil {
		return fmt.Errorf("sim: scenario %q: %w", s.Name, err)
	}
	return nil
}

// checkPlan checks the fields planning reads, plus what costs a registry
// lookup: the name, the rack count's upper bound, the sweep, alpha, the
// plane count, that the family and algorithms are registered, and that
// the spec plans at most MaxGridJobs jobs. It returns that job count. It
// builds nothing, so its cost does not depend on the rack count.
func (s ScenarioSpec) checkPlan() (jobs int, err error) {
	s = s.withDefaults()
	if s.Name == "" {
		return 0, fmt.Errorf("sim: scenario without a name")
	}
	if s.Racks > MaxRacks {
		return 0, fmt.Errorf("sim: scenario %q: racks = %d, at most %d", s.Name, s.Racks, MaxRacks)
	}
	if len(s.Bs) == 0 {
		return 0, fmt.Errorf("sim: scenario %q needs a b sweep", s.Name)
	}
	if s.Reps < 1 {
		return 0, fmt.Errorf("sim: scenario %q needs Reps >= 1", s.Name)
	}
	if s.Alpha < 1 {
		return 0, fmt.Errorf("sim: scenario %q: alpha = %v, need >= 1", s.Name, s.Alpha)
	}
	if strings.ContainsAny(s.Name, ",\"\n") {
		return 0, fmt.Errorf("sim: scenario name %q must not contain commas, quotes or newlines (it names CSV rows)", s.Name)
	}
	if s.Shards < 0 || s.Shards > s.Racks {
		return 0, fmt.Errorf("sim: scenario %q: shards = %d out of [0, racks = %d]", s.Name, s.Shards, s.Racks)
	}
	cells := 0
	for _, a := range s.Algs {
		e, err := algFor(a)
		if err != nil {
			return 0, fmt.Errorf("sim: scenario %q: %w (have %v)", s.Name, err, Algorithms())
		}
		if e.offline && s.Shards > 1 {
			return 0, fmt.Errorf("sim: scenario %q: %s is built from the whole workload and runs on one plane, not shards = %d", s.Name, a, s.Shards)
		}
		if e.fixedB >= 0 {
			cells++
		} else {
			cells += len(s.Bs)
		}
	}
	if cells > MaxGridJobs/s.Reps {
		return 0, fmt.Errorf("sim: scenario %q plans %d cells × %d reps, more than %d jobs", s.Name, cells, s.Reps, MaxGridJobs)
	}
	if _, err := familyFor(s.Family); err != nil {
		return 0, fmt.Errorf("sim: scenario %q: %w", s.Name, err)
	}
	return cells * s.Reps, nil
}

// Model returns the scenario's cost model: a fat-tree over Racks with the
// spec's alpha — the same construction as the paper's figures. The metric
// is the closed-form graph.FatTreeMetric, so a model costs one racks²
// table fill and no graph search.
func (s ScenarioSpec) Model() core.CostModel {
	s = s.withDefaults()
	return core.CostModel{Metric: graph.FatTreeMetric(s.Racks), Alpha: s.Alpha}
}

// NewStream builds the scenario's raw workload stream from its family.
func (s ScenarioSpec) NewStream() (trace.Stream, error) {
	b, err := familyFor(s.Family)
	if err != nil {
		return nil, err
	}
	return b(s.withDefaults())
}

// familyFor looks up a workload family's builder under the registry lock.
func familyFor(name string) (FamilyBuilder, error) {
	registryMu.RLock()
	b, ok := familyBuilders[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown family %q (have %v)", name, Families())
	}
	return b, nil
}

// NewSource builds the scenario's compiled streaming source: the workload
// stream compiled chunk by chunk against the scenario's metric. Each call
// returns an independent source, safe to hand to a parallel worker.
func (s ScenarioSpec) NewSource() (trace.Source, error) {
	st, err := s.NewStream()
	if err != nil {
		return nil, err
	}
	return trace.NewSource(st, s.Model().Metric.Dist)
}

// FamilyBuilder constructs a workload stream from a (defaults-filled) spec.
type FamilyBuilder func(spec ScenarioSpec) (trace.Stream, error)

// algEntry is one registered algorithm: the degree it is pinned to,
// which planning reads without a cost model, and its constructor.
type algEntry struct {
	// fixedB, when >= 0, pins the algorithm to one b regardless of the
	// sweep (oblivious routing has no b); -1 follows the sweep.
	fixedB int
	// offline marks an algorithm built from the scenario's whole workload
	// before its first request (so-bma). It runs on one plane, and a live
	// session, whose requests arrive one batch at a time, cannot run it.
	offline bool
	// planes marks a constructor that runs one instance per plane when
	// the spec asks for several (see planes), so a job's live state is
	// counted once per plane (jobStateBytes).
	planes bool
	build  func(spec ScenarioSpec, model core.CostModel, b int, seed uint64) (core.Algorithm, error)
	// state bounds the bytes one instance (one plane) at racks racks and
	// degree cap b keeps live: what the grid's live-state budget counts
	// (see jobStateBytes).
	state func(racks, b int) int64
}

var (
	registryMu     sync.RWMutex
	familyBuilders = map[string]FamilyBuilder{}
	algorithms     = map[string]algEntry{}
	scenarioReg    = map[string]ScenarioSpec{}
	scenarioOrder  []string
)

// RegisterFamily adds (or replaces) a workload family under name.
func RegisterFamily(name string, b FamilyBuilder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	familyBuilders[name] = b
}

// Families returns the registered workload family names, sorted.
func Families() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(familyBuilders))
	for name := range familyBuilders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// RegisterScenario adds (or replaces) a named scenario preset.
func RegisterScenario(spec ScenarioSpec) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, ok := scenarioReg[spec.Name]; !ok {
		scenarioOrder = append(scenarioOrder, spec.Name)
	}
	scenarioReg[spec.Name] = spec
}

// Scenarios returns the registered scenario presets in registration order.
func Scenarios() []ScenarioSpec {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]ScenarioSpec, 0, len(scenarioOrder))
	for _, name := range scenarioOrder {
		out = append(out, scenarioReg[name])
	}
	return out
}

// ScenarioByName returns the registered scenario preset with that name.
func ScenarioByName(name string) (ScenarioSpec, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	spec, ok := scenarioReg[name]
	if !ok {
		return ScenarioSpec{}, fmt.Errorf("sim: unknown scenario %q", name)
	}
	return spec, nil
}

// Algorithms returns the algorithm names the grid runner knows, sorted.
func Algorithms() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(algorithms))
	for name := range algorithms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// algFor looks up a registered algorithm under the registry lock.
func algFor(name string) (algEntry, error) {
	registryMu.RLock()
	a, ok := algorithms[name]
	registryMu.RUnlock()
	if !ok {
		return algEntry{}, fmt.Errorf("unknown algorithm %q", name)
	}
	return a, nil
}

// Offline reports whether the named algorithm is built from its
// scenario's whole workload before the first request (so-bma), which a
// live session does not have.
func Offline(name string) bool {
	a, err := algFor(name)
	return err == nil && a.offline
}

// AlgSeed is the algorithm seed of repetition rep at degree cap b: the
// seed rule of grid jobs, engine sessions and the paper figures.
func AlgSeed(rep uint64, b int) uint64 { return rep*0x9e3779b9 + uint64(b) }

// BuildAlgorithm instantiates one named algorithm from the registry for
// this spec's cost model, degree cap b and repetition — exactly the
// instance a grid job for (spec, name, b, rep) would replay with, shard
// planes and per-plane seeding included. Algorithms with a pinned degree
// (oblivious) ignore b. The live engine builds its per-session instances
// through this path (BuildAlgorithmWith, passing the model it compiles
// requests against), so an engine session and an offline grid job with
// the same parameters are seeded identically.
func (s ScenarioSpec) BuildAlgorithm(name string, b int, rep uint64) (core.Algorithm, error) {
	return s.BuildAlgorithmWith(s.Model(), name, b, rep)
}

// BuildAlgorithmWith is BuildAlgorithm against a cost model the caller
// has already built with Model, for callers that also need the model.
func (s ScenarioSpec) BuildAlgorithmWith(model core.CostModel, name string, b int, rep uint64) (core.Algorithm, error) {
	if a, err := algFor(name); err == nil && a.fixedB >= 0 {
		b = a.fixedB
	}
	return s.NewAlgorithm(model, name, b, AlgSeed(rep, b))
}

// NewAlgorithm builds the named algorithm from the registry for the
// spec's racks and planes, deciding under model with degree cap b, and
// seeds it with seed itself: the caller applies its own seed rule
// (BuildAlgorithm applies AlgSeed). Algorithms with a pinned degree
// ignore b.
func (s ScenarioSpec) NewAlgorithm(model core.CostModel, name string, b int, seed uint64) (core.Algorithm, error) {
	a, err := algFor(name)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if a.fixedB >= 0 {
		b = a.fixedB
	}
	return a.build(s.withDefaults(), model, b, seed)
}

// param reads a family knob with a default.
func param(spec ScenarioSpec, key string, def float64) float64 {
	if v, ok := spec.Params[key]; ok {
		return v
	}
	return def
}

// planes registers a constructor that follows the sweep and, when the
// spec asks for multiple planes, runs one instance per plane inside a
// core.Sharded, seeding plane k with core.ShardSeed(seed, k); Shards <= 1
// builds the plain single-plane algorithm directly (no wrapper, so
// classic scenarios are untouched).
func planes(state func(racks, b int) int64, build func(spec ScenarioSpec, model core.CostModel, b int, seed uint64) (core.Algorithm, error)) algEntry {
	return algEntry{fixedB: -1, planes: true, state: state, build: func(spec ScenarioSpec, model core.CostModel, b int, seed uint64) (core.Algorithm, error) {
		if spec.Shards <= 1 {
			return build(spec, model, b, seed)
		}
		part, err := core.NewPartition(spec.Racks, spec.Shards)
		if err != nil {
			return nil, err
		}
		return core.NewSharded(part, func(shard int) (core.Algorithm, error) {
			return build(spec, model, b, core.ShardSeed(seed, shard))
		})
	}}
}

// The registry's live-state bounds, one instance at n racks and degree
// cap b, from what each constructor allocates. Tables shared across
// instances (the cost model, R-BMA's k_e table) belong to the scenario,
// not to a job, and are left out. TestAlgStateBoundsLiveHeap measures
// every registered algorithm against its bound.

// pairBytes is size bytes for each of n racks' pairs.
func pairBytes(n int, size float64) int64 {
	return int64(size * float64(trace.NumPairs(n)))
}

// matchingBytes bounds a b-matching: degree and incidence slabs (a
// 4-byte PairID per slot) and a bit per pair.
func matchingBytes(n, b int) int64 {
	return 4*int64(n) + 4*int64(n)*int64(b) + pairBytes(n, 1.0/8) + 256
}

// rbmaBytes bounds R-BMA: the matching, a counter and a mark bit per
// pair, and the uniform layer. The default layer is a marking bank with
// a slot per rack pair in each direction; with cache, every rack has a
// paging.Cache of b items that also holds a dense slot table over all
// pairs while n times the pair count is at most
// core.MaxDenseCacheEntries: 4·n bytes a pair, against BMA's 16.
func rbmaBytes(n, b int, cache bool) int64 {
	bytes := matchingBytes(n, b) + pairBytes(n, 4+1.0/8) + 4*int64(n)
	if !cache {
		return bytes + 4*int64(n)*int64(n) + 4*int64(n)*int64(b) + 48*int64(n)
	}
	perCache := 96*int64(b) + 512
	if n*trace.NumPairs(n) <= core.MaxDenseCacheEntries {
		perCache += pairBytes(n, 4)
	}
	return bytes + int64(n)*perCache
}

// newStatic builds SO-BMA for the scenario from the pair counts of one
// pass of its own workload: the counts core.NewStaticFromTrace takes
// from the same requests materialized, so the matching is the same.
func newStatic(spec ScenarioSpec, model core.CostModel, b int) (core.Algorithm, error) {
	st, err := spec.NewStream()
	if err != nil {
		return nil, err
	}
	idx := trace.SharedPairIndex(spec.Racks)
	counts := make([]int64, idx.NumPairs())
	var buf [4096]trace.Request
	for n := st.Next(buf[:]); n > 0; n = st.Next(buf[:]) {
		for _, r := range buf[:n] {
			counts[idx.ID(int(r.Src), int(r.Dst))]++
		}
	}
	return core.NewStatic(spec.Racks, counts, b, model)
}

// checkParams rejects unknown knobs, the classic silent-typo failure of
// stringly-typed JSON configs.
func checkParams(spec ScenarioSpec, known ...string) error {
	for key := range spec.Params {
		ok := false
		for _, k := range known {
			if key == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("family %q: unknown param %q (known: %v)", spec.Family, key, known)
		}
	}
	return nil
}

func init() {
	// Workload families. Paper-era families first; each maps the generic
	// spec knobs onto its generator's parameters.
	for _, c := range []trace.Cluster{trace.Database, trace.WebService, trace.Hadoop} {
		c := c
		RegisterFamily(c.String(), func(spec ScenarioSpec) (trace.Stream, error) {
			if err := checkParams(spec); err != nil {
				return nil, err
			}
			p := trace.FacebookPreset(c, spec.Racks, spec.Seed)
			p.Requests = spec.Requests
			return trace.NewFacebookStream(p)
		})
	}
	RegisterFamily("uniform", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		return trace.NewUniformStream(spec.Racks, spec.Requests, spec.Seed)
	})
	RegisterFamily("microsoft", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		return trace.NewMicrosoftStream(spec.Racks, spec.Requests, spec.Seed)
	})
	RegisterFamily("phase-shift", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec, "phases"); err != nil {
			return nil, err
		}
		return trace.NewPhaseShiftStream(spec.Racks, spec.Requests, int(param(spec, "phases", 4)), spec.Seed)
	})
	RegisterFamily("permutation", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec); err != nil {
			return nil, err
		}
		return trace.NewPermutationStream(spec.Racks, spec.Requests, spec.Seed)
	})
	RegisterFamily("diurnal", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec, "period", "peak_skew", "off_skew"); err != nil {
			return nil, err
		}
		return trace.NewDiurnalStream(trace.DiurnalParams{
			Racks:    spec.Racks,
			Requests: spec.Requests,
			Seed:     spec.Seed,
			Period:   int(param(spec, "period", 0)),
			PeakSkew: param(spec, "peak_skew", 0),
			OffSkew:  param(spec, "off_skew", 0),
		})
	})
	RegisterFamily("hotspot", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec, "hotspots", "hot_prob", "migrate_every"); err != nil {
			return nil, err
		}
		return trace.NewHotspotStream(trace.HotspotParams{
			Racks:        spec.Racks,
			Requests:     spec.Requests,
			Seed:         spec.Seed,
			Hotspots:     int(param(spec, "hotspots", 0)),
			HotProb:      param(spec, "hot_prob", 0),
			MigrateEvery: int(param(spec, "migrate_every", 0)),
		})
	})
	RegisterFamily("tenant-mix", func(spec ScenarioSpec) (trace.Stream, error) {
		if err := checkParams(spec, "tenants", "tenant_skew", "pair_skew", "cross_prob"); err != nil {
			return nil, err
		}
		return trace.NewTenantMixStream(trace.TenantMixParams{
			Racks:      spec.Racks,
			Requests:   spec.Requests,
			Seed:       spec.Seed,
			Tenants:    int(param(spec, "tenants", 0)),
			TenantSkew: param(spec, "tenant_skew", 0),
			PairSkew:   param(spec, "pair_skew", 0),
			CrossProb:  param(spec, "cross_prob", 0),
		})
	})

	// Algorithms: the paper's line-up, SO-BMA and the figures' ablation
	// variants. A constructor takes the seed itself, so each caller keeps
	// its own seed rule. In multi-plane scenarios each plane derives its
	// own seed from it via core.ShardSeed (plane 0 keeps it, so shards = 1
	// is seeded exactly like the classic single-plane run).
	rbma := func(cache bool, opts ...core.RBMAOption) algEntry {
		return planes(func(n, b int) int64 { return rbmaBytes(n, b, cache) }, func(spec ScenarioSpec, model core.CostModel, b int, seed uint64) (core.Algorithm, error) {
			return core.NewRBMA(spec.Racks, b, model, seed, opts...)
		})
	}
	algorithms["r-bma"] = rbma(false)
	algorithms["r-bma-eager"] = rbma(false, core.WithEagerRemoval())
	for _, p := range []struct {
		name string
		f    paging.Factory
	}{
		{"marking", paging.NewMarkingFactory},
		{"lru", paging.NewLRUFactory},
		{"fifo", paging.NewFIFOFactory},
		{"random", paging.NewRandomEvictFactory},
	} {
		algorithms["r-bma-"+p.name] = rbma(true, core.WithCacheFactory(p.f, p.name))
	}
	// BMA: the matching plus one counter float per pair (its rent while
	// unmatched, its defense while matched).
	algorithms["bma"] = planes(func(n, b int) int64 { return matchingBytes(n, b) + pairBytes(n, 8) }, func(spec ScenarioSpec, model core.CostModel, b int, _ uint64) (core.Algorithm, error) {
		return core.NewBMA(spec.Racks, b, model)
	})
	algorithms["greedy-noevict"] = planes(matchingBytes, func(spec ScenarioSpec, model core.CostModel, b int, _ uint64) (core.Algorithm, error) {
		return core.NewGreedyNoEvict(spec.Racks, b, model)
	})
	// Rotor: its round-robin schedule, every pair once in slices grown by
	// append, and a map of the b·n/2 live pairs.
	algorithms["rotor"] = planes(func(n, b int) int64 { return pairBytes(n, 16) + 32*int64(n) + 48*int64(n)*int64(b) + 512 }, func(spec ScenarioSpec, model core.CostModel, b int, _ uint64) (core.Algorithm, error) {
		return core.NewRotor(spec.Racks, b, model, 100)
	})
	algorithms["oblivious"] = algEntry{fixedB: 0, state: func(int, int) int64 { return 256 }, build: func(_ ScenarioSpec, model core.CostModel, _ int, _ uint64) (core.Algorithm, error) {
		// Stateless: planes would all behave identically, so the
		// oblivious baseline never shards.
		return core.NewOblivious(model)
	}}
	// SO-BMA keeps a bit per pair; its construction's pass over the
	// workload and matching solve are garbage once it is built.
	algorithms["so-bma"] = algEntry{fixedB: -1, offline: true, state: func(n, _ int) int64 { return pairBytes(n, 1.0/8) + 256 }, build: func(spec ScenarioSpec, model core.CostModel, b int, _ uint64) (core.Algorithm, error) {
		return newStatic(spec, model, b)
	}}

	// Scenario presets: one per new family (the widened workload coverage)
	// plus classic baselines, all modest sizes so the full preset grid runs
	// in seconds at scale 1. Larger studies load specs from JSON.
	RegisterScenario(ScenarioSpec{
		Name: "diurnal-swing", Family: "diurnal",
		Racks: 48, Requests: 120000, Seed: 1,
		Bs: []int{4, 8}, Reps: 3,
	})
	RegisterScenario(ScenarioSpec{
		Name: "hotspot-migration", Family: "hotspot",
		Racks: 48, Requests: 120000, Seed: 2,
		Bs: []int{4, 8}, Reps: 3,
		Params: map[string]float64{"hotspots": 12, "migrate_every": 4000},
	})
	RegisterScenario(ScenarioSpec{
		Name: "tenant-mix", Family: "tenant-mix",
		Racks: 64, Requests: 120000, Seed: 3,
		Bs: []int{4, 8}, Reps: 3,
		Params: map[string]float64{"tenants": 8},
	})
	RegisterScenario(ScenarioSpec{
		Name: "facebook-database-small", Family: "facebook-database",
		Racks: 50, Requests: 100000, Seed: 4,
		Bs: []int{6, 12}, Reps: 3,
	})
	RegisterScenario(ScenarioSpec{
		Name: "uniform-baseline", Family: "uniform",
		Racks: 48, Requests: 100000, Seed: 5,
		Bs: []int{4, 8}, Reps: 3,
	})
	RegisterScenario(ScenarioSpec{
		Name: "phase-shift", Family: "phase-shift",
		Racks: 48, Requests: 100000, Seed: 6,
		Bs: []int{4, 8}, Reps: 3,
		Params: map[string]float64{"phases": 5},
	})
}
