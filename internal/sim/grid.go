package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"time"

	"obm/internal/core"
	"obm/internal/stats"
)

// The scenario-grid scheduler: a list of ScenarioSpecs is expanded into a
// (scenario × algorithm × b × rep) job grid and executed in groups (see
// group.go). A job's requests depend only on its scenario, so the jobs of
// one scenario that a run executes form a group that reads one streaming
// source — a fork of the scenario's prototype stream (see Workloads) —
// and every chunk it generates is fed to every job of the group, each
// through its own algorithm and cost meter. The trace is generated once
// per group instead of once per job, memory is the workers' chunk
// buffers plus the live jobs' algorithm state regardless of trace
// lengths, and jobs share nothing mutable: a job's outcome is exactly
// what a replay of a fresh source computes. Repetitions of one (scenario,
// algorithm, b) cell are aggregated into a stats.Summary row.
//
// The grid supports durable execution through three orthogonal hooks, all
// built on the fact that a job's outcome is a pure function of its
// identity (the spec seed and the rep-derived algorithm seed):
//
//   - Lookup short-circuits jobs whose outcome is already known (resume);
//   - Persist records each finished job (a run store appends it to a log);
//   - Shard/Shards statically partitions the job grid across processes.
//
// internal/report combines them into a crash-safe, shardable run store.

// GridJob identifies one cell-repetition of the grid. Job identity is
// stable across runs: it depends only on the specs, never on scheduling,
// worker count or sharding — which is what makes outcomes persistable and
// grids resumable.
type GridJob struct {
	Scenario string
	Alg      string
	B        int
	Rep      int
}

func (j GridJob) String() string {
	return fmt.Sprintf("%s/%s(b=%d)/rep=%d", j.Scenario, j.Alg, j.B, j.Rep)
}

// JobOutcome is the persistable result of one grid job: the final
// cumulative costs, the decision-loop wall time, and (when
// GridOptions.CurvePoints > 0) the checkpointed cost curve. Routing and
// Reconfig are deterministic given the job identity; ElapsedMS is not.
type JobOutcome struct {
	Routing   float64 `json:"routing"`
	Reconfig  float64 `json:"reconfig"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Checkpointed curve, present when the grid ran with CurvePoints > 0:
	// after X[i] requests the job had paid RoutingCurve[i] routing and
	// ReconfigCurve[i] reconfiguration cost.
	X             []int     `json:"x,omitempty"`
	RoutingCurve  []float64 `json:"routing_curve,omitempty"`
	ReconfigCurve []float64 `json:"reconfig_curve,omitempty"`
}

// GridOptions tunes the grid scheduler.
type GridOptions struct {
	// Workers is the number of worker goroutines (at most one per job);
	// <= 0 selects GOMAXPROCS. Any worker feeds any job whose next chunk
	// is ready, generates the next chunk of a group's source, or admits
	// the next group, so two workers share one group's jobs and its one
	// generator. One worker runs on the caller's goroutine.
	Workers int
	// ChunkSize is the capacity of the grid's chunk buffers, one per
	// worker (trace.DefaultChunkSize if <= 0): a group holds a generated
	// chunk until every live job of the group has fed it.
	ChunkSize int
	// CurvePoints, when > 0, records that many evenly spaced cost-curve
	// checkpoints in every JobOutcome (0 keeps only the final costs).
	CurvePoints int
	// Shard/Shards statically partition the job grid: only the jobs of
	// GridPlan.ShardSlice(Shard, Shards), one run of consecutive plan
	// jobs, are executed, so independent processes (or machines) running
	// distinct shards of the same spec list own disjoint job slices.
	// Shards <= 1 disables sharding. Cells with no jobs in this shard are
	// dropped from the result; a merged full-grid view is assembled by
	// internal/report.
	Shard, Shards int
	// Lookup, when non-nil, is consulted once per job before execution;
	// returning (outcome, true) marks the job complete without running it.
	// This is the resume path: a run store replays its log through Lookup
	// and only the missing jobs execute.
	Lookup func(GridJob) (JobOutcome, bool)
	// Persist, when non-nil, is called exactly once per executed job,
	// serialized, after the job finishes successfully (jobs resolved via
	// Lookup are not re-persisted). A Persist error aborts the grid like a
	// job failure.
	Persist func(GridJob, JobOutcome) error
	// Progress, when non-nil, is called after every executed job with the
	// completion count (jobs resolved via Lookup are not reported).
	// Callbacks are serialized; err is the job's error (nil on success).
	Progress func(done, total int, job GridJob, err error)
	// CheckpointEvery, when > 0 with SaveCheckpoint set, snapshots each
	// in-flight job's algorithm state plus partial curve at the first
	// chunk boundary after every that many requests the job fed, every
	// plane of a multi-plane job included. Each job of a group saves its
	// own checkpoints, and on resume fast-forwards to its own off the
	// group's one source. A killed run resumed through LoadCheckpoint
	// then restarts *inside* a job rather than at its start. Checkpoints
	// are an optimization, never part of job identity: a missing, stale
	// or corrupt checkpoint just means a fresh replay, and determinism
	// makes the outcome identical.
	CheckpointEvery int
	// SaveCheckpoint persists one job's mid-flight checkpoint blob,
	// replacing any previous one. The blob is the hook's to keep: the
	// replay never writes it again. Errors abort the grid like a Persist
	// failure (a broken checkpoint store is a broken store).
	SaveCheckpoint func(GridJob, []byte) error
	// LoadCheckpoint returns a job's previously saved checkpoint blob, if
	// any, consulted once before the job replays from scratch.
	LoadCheckpoint func(GridJob) ([]byte, bool)
	// DropCheckpoint discards a job's checkpoint once the job completes.
	DropCheckpoint func(GridJob)
	// Metrics, when non-nil, receives replay observability (request/chunk
	// throughput, executed jobs, checkpoint timings). Purely
	// observational: instrumented runs produce bit-identical outcomes.
	Metrics *Metrics
	// Workloads, when non-nil, supplies each scenario's cost model and
	// prototype stream, so grid runs handed the same Workloads (the
	// shards of one job, say) set each scenario up once between them. It
	// must be built for exactly these specs, or the grid fails; nil gives
	// the run a private one. Like Workers, it is a throughput hook, never
	// part of job identity: a fork replays the requests a fresh stream
	// does, so outcomes are byte-identical with and without it.
	Workloads *Workloads
}

// GridRow is one aggregated cell: the final costs of one (scenario,
// algorithm, b) combination summarized over its repetitions.
type GridRow struct {
	Scenario string
	Family   string
	Alg      string
	B        int
	Requests int
	Racks    int
	// Final cumulative costs across repetitions.
	Routing  stats.Summary
	Reconfig stats.Summary
	Total    stats.Summary
	// ElapsedMS summarizes per-repetition decision-loop wall time.
	ElapsedMS stats.Summary
}

// GridResult collects every aggregated row of a grid run, in deterministic
// (spec, algorithm, b) order.
type GridResult struct {
	Rows []GridRow
}

// GridPlan is the deterministic expansion of a spec list into its job grid:
// job identities in execution order, the (scenario, algorithm, b) cells
// they aggregate into, and the job→cell mapping. The plan is a pure
// function of the specs — two processes planning the same specs see the
// same job order and the same shards, which is what sharding and run
// stores rely on.
type GridPlan struct {
	Jobs []GridJob
	// Cells carries each cell's identity fields (summaries are zero).
	Cells []GridRow
	// CellOf[i] is the index in Cells that Jobs[i] aggregates into.
	CellOf []int
	// work[i] is the request count of Jobs[:i], each job's capped at
	// maxJobWork: the running total the shard cut reads. It has
	// len(Jobs)+1 entries, or none in a plan PlanGrid did not build.
	work []uint64
}

// maxJobWork caps the request count one job adds to GridPlan.work, so
// MaxGridJobs jobs total at most 2⁶³. No runnable job comes near it.
const maxJobWork = 1 << 43

// PlanGrid expands specs into their job grid without executing anything,
// in deterministic (spec, algorithm, b, rep) order. The plan is a pure
// function of the spec fields: PlanGrid checks only what it reads (each
// scenario's name is non-empty, unique and CSV-safe; its rack count is at
// most MaxRacks; its sweep, repetitions, alpha and plane count are
// usable; its family and algorithms are registered; the whole list plans
// at most MaxGridJobs jobs) and reads each algorithm's pinned b from the
// registry. It builds no cost model and no trace generator, so its cost
// does not depend on the rack count; the family parameters are checked
// by ScenarioSpec.Validate, which RunGrid runs before any job starts.
// internal/report plans the grid a run store was created from to know
// which jobs a log is missing and to aggregate records in canonical order.
func PlanGrid(specs []ScenarioSpec) (*GridPlan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: grid with no scenarios")
	}
	seen := make(map[string]bool, len(specs))
	total := 0
	for _, spec := range specs {
		jobs, err := spec.checkPlan()
		if err != nil {
			return nil, err
		}
		if seen[spec.Name] {
			return nil, fmt.Errorf("sim: duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
		if total += jobs; total > MaxGridJobs {
			return nil, fmt.Errorf("sim: grid plans more than %d jobs", MaxGridJobs)
		}
	}
	p := &GridPlan{
		Jobs:   make([]GridJob, 0, total),
		CellOf: make([]int, 0, total),
		work:   make([]uint64, 1, total+1),
	}
	for _, spec := range specs {
		spec := spec.withDefaults()
		work := uint64(min(max(spec.Requests, 0), maxJobWork))
		for _, algName := range spec.Algs {
			a, err := algFor(algName)
			if err != nil {
				return nil, err
			}
			bs := spec.Bs
			if a.fixedB >= 0 {
				bs = []int{a.fixedB}
			}
			for _, b := range bs {
				p.Cells = append(p.Cells, GridRow{
					Scenario: spec.Name,
					Family:   spec.Family,
					Alg:      algName,
					B:        b,
					Requests: spec.Requests,
					Racks:    spec.Racks,
				})
				for rep := 0; rep < spec.Reps; rep++ {
					p.Jobs = append(p.Jobs, GridJob{Scenario: spec.Name, Alg: algName, B: b, Rep: rep})
					p.CellOf = append(p.CellOf, len(p.Cells)-1)
					p.work = append(p.work, p.work[len(p.work)-1]+work)
				}
			}
		}
	}
	return p, nil
}

// The shard rule. Shard k of count is one run of consecutive plan jobs:
// it starts at the first job whose running request total (work) reaches
// k·W/count, W the plan's total, so every shard replays about W/count
// requests. Plan order is scenario-major, so a scenario's jobs land in as
// few shards as its share of W allows, and a shard's groups generate each
// of its scenarios' traces once for all of its jobs of that scenario.
//
// When count <= len(Jobs) no shard is empty: a cut that would leave the
// shard before it empty (one job spanning several k·W/count marks) moves
// right by one job, and one that would leave too few jobs for the shards
// after it moves left. Each shard then either holds one job or lies
// within its uncorrected run, so it replays at most W/count requests plus
// the largest job's.
//
// ShardCuts, ShardSlice, the GridOptions.Shard/Shards filter, a sharded
// run store's ownership and the experiment service's shard table all read
// this one cut.

// ShardCuts returns where each of count shards starts: shard k owns
// Jobs[cuts[k]:cuts[k+1]], so cuts has count+1 entries, cuts[0] = 0 and
// cuts[count] = len(Jobs). A count <= 1 is one shard of every job.
func (p *GridPlan) ShardCuts(count int) []int {
	count = max(count, 1)
	n := len(p.Jobs)
	cuts := make([]int, count+1)
	cuts[count] = n
	for k := 1; k < count && n > 0; k++ {
		// The first job whose running total reaches the mark k·W/count,
		// rounded up and computed in 128 bits (W <= 2⁶³).
		hi, lo := bits.Mul64(uint64(k), p.work[n])
		mark, rem := bits.Div64(hi, lo, uint64(count))
		if rem > 0 {
			mark++
		}
		c := sort.Search(n, func(i int) bool { return p.work[i] >= mark })
		if count <= n {
			c = min(max(c, cuts[k-1]+1), n-(count-k))
		}
		cuts[k] = c
	}
	return cuts
}

// ShardSlice returns the plan jobs owned by shard (index, count), in plan
// order: a subslice of Jobs, capped so that an append copies. A count <=
// 1 returns every job, an index outside [0, count) none. It is the
// partition the GridOptions.Shard/Shards hooks execute and the unit the
// experiment service leases to fleet workers.
func (p *GridPlan) ShardSlice(index, count int) []GridJob {
	if count <= 1 {
		index = 0
	} else if index < 0 || index >= count {
		return nil
	}
	cuts := p.ShardCuts(count)
	lo, hi := cuts[index], cuts[index+1]
	return p.Jobs[lo:hi:hi]
}

// Aggregate folds job outcomes into the plan's cells: repetition values are
// summarized in plan order, so the result is independent of where the
// outcomes came from (live execution, a resumed log, merged shard logs).
// Jobs without an outcome are skipped; cells with no outcomes are dropped.
func (p *GridPlan) Aggregate(outcomes map[GridJob]JobOutcome) *GridResult {
	type acc struct {
		routing, reconfig, total, elapsed []float64
	}
	accs := make([]acc, len(p.Cells))
	for i, j := range p.Jobs {
		o, ok := outcomes[j]
		if !ok {
			continue
		}
		a := &accs[p.CellOf[i]]
		a.routing = append(a.routing, o.Routing)
		a.reconfig = append(a.reconfig, o.Reconfig)
		a.total = append(a.total, o.Routing+o.Reconfig)
		a.elapsed = append(a.elapsed, o.ElapsedMS)
	}
	out := &GridResult{Rows: make([]GridRow, 0, len(p.Cells))}
	for ci, a := range accs {
		if len(a.routing) == 0 {
			continue
		}
		row := p.Cells[ci]
		row.Routing = stats.Summarize(a.routing)
		row.Reconfig = stats.Summarize(a.reconfig)
		row.Total = stats.Summarize(a.total)
		row.ElapsedMS = stats.Summarize(a.elapsed)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// RunGrid validates the specs, expands the job grid and executes it in
// groups, honoring the durability hooks in opt (Lookup-resolved jobs are
// skipped, executed jobs are handed to Persist, and sharding restricts
// execution to this process's slice). All job errors are collected and
// joined; after the first failure no new group is started (the jobs of
// groups in flight finish). On error the partial result is discarded —
// though every job Persist saw is already durable.
func RunGrid(specs []ScenarioSpec, opt GridOptions) (*GridResult, error) {
	return RunGridContext(context.Background(), specs, opt)
}

// RunGridContext is RunGrid under a context. Cancelling ctx stops the
// grid promptly: no new group is started, and in-flight jobs abort at
// their next chunk boundary instead of replaying to the end.
// Jobs that completed (and were handed to Persist) before the
// cancellation stay valid — a store-backed run is left
// partial-but-persisted, ready to be resumed. On cancellation the
// returned result aggregates exactly those completed jobs and err wraps
// ctx.Err(); job errors caused by the cancellation itself are not
// reported as failures.
func RunGridContext(ctx context.Context, specs []ScenarioSpec, opt GridOptions) (*GridResult, error) {
	plan, err := PlanGrid(specs)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
	}
	if opt.Shards > 1 && (opt.Shard < 0 || opt.Shard >= opt.Shards) {
		return nil, fmt.Errorf("sim: shard %d/%d out of range", opt.Shard, opt.Shards)
	}
	w := opt.Workloads
	if w == nil {
		w = newWorkloads(specs)
	} else if err := w.check(specs); err != nil {
		return nil, err
	}

	// Partition (sharding) and short-circuit (resume) before execution.
	outcomes := make(map[GridJob]JobOutcome, len(plan.Jobs))
	var run []runtimeJob
	for _, j := range plan.ShardSlice(opt.Shard, opt.Shards) {
		if opt.Lookup != nil {
			if o, ok := opt.Lookup(j); ok {
				outcomes[j] = o
				continue
			}
		}
		run = append(run, runtimeJob{GridJob: j})
	}
	if err := bindJobs(w, run); err != nil {
		return nil, err
	}

	s := runGroups(ctx, w, run, &opt)
	if cerr := ctx.Err(); cerr != nil {
		// A cancelled grid is not a failed grid: aggregate what finished
		// (all of it already persisted) and report the cancellation. Real
		// job failures that raced with the cancellation are subsumed — the
		// caller asked the grid to stop, and a resume will resurface them.
		for i := range run {
			if s.completed[i] {
				outcomes[run[i].GridJob] = s.results[i]
			}
		}
		return plan.Aggregate(outcomes), fmt.Errorf("sim: grid interrupted: %w", cerr)
	}
	if err := errors.Join(s.errs...); err != nil {
		return nil, err
	}
	for i := range run {
		outcomes[run[i].GridJob] = s.results[i]
	}
	return plan.Aggregate(outcomes), nil
}

// runtimeJob is a planned job bound to what executing it needs.
type runtimeJob struct {
	GridJob
	spec  ScenarioSpec
	model core.CostModel
}

// bindJobs binds the jobs left to run to their scenarios. A scenario's
// cost model (a racks² distance table) comes from w, built once and only
// if one of its jobs is left to run: a fully resumed grid builds none.
func bindJobs(w *Workloads, run []runtimeJob) error {
	for i := range run {
		j := &run[i]
		sw, err := w.scenario(j.Scenario)
		if err != nil {
			return err
		}
		j.spec, j.model = sw.spec, sw.costModel()
	}
	return nil
}

// jobOutcome snapshots a run result into a persistable outcome, copying
// the curve out of the job's result buffers.
func jobOutcome(res *RunResult, curvePoints int) JobOutcome {
	o := JobOutcome{ElapsedMS: float64(res.Elapsed) / float64(time.Millisecond)}
	if n := len(res.Series.X); n > 0 {
		o.Routing = res.Series.Routing[n-1]
		o.Reconfig = res.Series.Reconfig[n-1]
	}
	if curvePoints > 0 {
		o.X = append([]int(nil), res.Series.X...)
		o.RoutingCurve = append([]float64(nil), res.Series.Routing...)
		o.ReconfigCurve = append([]float64(nil), res.Series.Reconfig...)
	}
	return o
}

// gridCheckpoints picks a job's checkpoint list: the full curve when the
// grid records curves, otherwise the single end-of-trace checkpoint.
func gridCheckpoints(total, curvePoints int) []int {
	if total == 0 {
		return nil
	}
	if curvePoints > 0 {
		return Checkpoints(total, curvePoints)
	}
	return []int{total}
}

// gridCkHooks binds the grid's checkpoint hooks to job j.
func gridCkHooks(opt *GridOptions, j GridJob) ckHooks {
	ck := ckHooks{}
	if opt.CheckpointEvery > 0 && opt.SaveCheckpoint != nil {
		ck.every = opt.CheckpointEvery
		ck.save = func(blob []byte) error { return opt.SaveCheckpoint(j, blob) }
	}
	if opt.LoadCheckpoint != nil {
		ck.load = func() ([]byte, bool) { return opt.LoadCheckpoint(j) }
	}
	if opt.DropCheckpoint != nil {
		ck.drop = func() { opt.DropCheckpoint(j) }
	}
	return ck
}

// WriteCSV emits the grid result as tidy CSV, one row per aggregated cell.
func (g *GridResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "scenario,family,alg,b,racks,requests,reps,"+
		"routing_mean,routing_std,reconfig_mean,reconfig_std,total_mean,total_std,elapsed_ms_mean"); err != nil {
		return err
	}
	for _, r := range g.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%.3f\n",
			r.Scenario, r.Family, r.Alg, r.B, r.Racks, r.Requests, r.Routing.N,
			r.Routing.Mean, r.Routing.Std, r.Reconfig.Mean, r.Reconfig.Std,
			r.Total.Mean, r.Total.Std, r.ElapsedMS.Mean); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the grid result as JSON.
func (g *GridResult) WriteJSON(w io.Writer) error {
	type jsonRow struct {
		Scenario  string        `json:"scenario"`
		Family    string        `json:"family"`
		Alg       string        `json:"alg"`
		B         int           `json:"b"`
		Racks     int           `json:"racks"`
		Requests  int           `json:"requests"`
		Routing   stats.Summary `json:"routing_cost"`
		Reconfig  stats.Summary `json:"reconfig_cost"`
		Total     stats.Summary `json:"total_cost"`
		ElapsedMS stats.Summary `json:"elapsed_ms"`
	}
	out := struct {
		Rows []jsonRow `json:"rows"`
	}{Rows: make([]jsonRow, 0, len(g.Rows))}
	for _, r := range g.Rows {
		out.Rows = append(out.Rows, jsonRow{
			Scenario: r.Scenario, Family: r.Family, Alg: r.Alg, B: r.B,
			Racks: r.Racks, Requests: r.Requests,
			Routing: r.Routing, Reconfig: r.Reconfig, Total: r.Total,
			ElapsedMS: r.ElapsedMS,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SummaryRows renders one aligned text line per aggregated cell.
func (g *GridResult) SummaryRows() []string {
	rows := make([]string, 0, len(g.Rows))
	for _, r := range g.Rows {
		rows = append(rows, fmt.Sprintf("%-24s %-10s b=%-3d routing=%.3e±%.1e total=%.3e  time=%8.2fms",
			r.Scenario, r.Alg, r.B, r.Routing.Mean, r.Routing.Std, r.Total.Mean, r.ElapsedMS.Mean))
	}
	return rows
}

// ReadScenarios decodes a JSON scenario list ([{...}, ...]) from r.
func ReadScenarios(r io.Reader) ([]ScenarioSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var specs []ScenarioSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, fmt.Errorf("sim: decoding scenarios: %w", err)
	}
	return specs, nil
}
