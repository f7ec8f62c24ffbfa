// Package sim is the trace-driven simulation harness: it replays request
// traces through online algorithms, records checkpointed cumulative cost
// curves and wall-clock execution time (the paper's Figures 1–4 plot
// exactly these two quantities), averages repetitions, and renders results
// as CSV and quick ASCII charts.
//
// Every replay runs through one loop: a trace.Source read in fixed-size
// chunks (RunSource). A materialized trace replays through its zero-copy
// (*trace.Compiled).Source, a generated workload through a streaming
// source that holds O(chunk) requests, and the cost curves are
// bit-identical either way. Algorithms implementing core.CompiledServer
// take the dense fast path: every request pre-resolved to its PairID,
// endpoints and static distance, and each chunk (cut at the curve's
// checkpoints) served and folded by one ServeChunk call. Everything else
// falls back to Serve(u, v) per request, with identical costs. The figure runner (RunExperiment)
// compiles nothing itself: its Config carries the trace compiled once,
// and each worker replays it through every (algorithm, b) job and
// repetition with one recycled result buffer, so repeated replays
// allocate almost nothing.
//
// On top of the replay loop sits the scenario-grid scheduler
// (ScenarioSpec, RunGrid): named, JSON-encodable scenario specs expanded
// into a (scenario × algorithm × b × rep) job grid, executed in groups —
// a scenario's jobs read one streaming source, and each chunk is fed to
// every job through its own algorithm — with repetitions aggregated into
// stats.Summary rows and CSV/JSON output.
//
// Grid execution is durable-by-hook: PlanGrid exposes the deterministic
// job expansion and its shard cut (GridPlan.ShardCuts: contiguous runs of
// jobs with about equal request totals, so a shard's jobs of one scenario
// share its trace), and GridOptions' Lookup/Persist/Shard hooks let a run
// store (internal/report) skip completed jobs, log finished ones, and
// partition one grid across processes — without the scheduler knowing
// anything about persistence formats.
package sim

import (
	"fmt"
	"time"

	"obm/internal/core"
	"obm/internal/trace"
)

// Series is one cumulative-cost curve: at X[i] requests served, the
// algorithm had paid Routing[i] routing cost and Reconfig[i]
// reconfiguration cost.
type Series struct {
	Label    string
	X        []int
	Routing  []float64
	Reconfig []float64
}

// RunResult is the outcome of replaying one trace through one algorithm.
type RunResult struct {
	Series            Series
	Elapsed           time.Duration // wall-clock time of the decision loop
	Adds, Removals    int
	FinalMatchingSize int
}

// reset clears the result for reuse, truncating (not freeing) the series.
func (r *RunResult) reset(label string) {
	r.Series.Label = label
	r.Series.X = r.Series.X[:0]
	r.Series.Routing = r.Series.Routing[:0]
	r.Series.Reconfig = r.Series.Reconfig[:0]
	r.Elapsed = 0
	r.Adds, r.Removals = 0, 0
	r.FinalMatchingSize = 0
}

// Checkpoints returns num evenly spaced checkpoints ending at total.
func Checkpoints(total, num int) []int {
	if num < 1 || total < 1 {
		panic("sim: Checkpoints requires positive total and num")
	}
	if num > total {
		num = total
	}
	out := make([]int, num)
	for i := 1; i <= num; i++ {
		out[i-1] = total * i / num
	}
	return out
}

func validateCheckpoints(checkpoints []int, traceLen int) error {
	if len(checkpoints) > 0 && checkpoints[0] < 1 {
		return fmt.Errorf("sim: checkpoint %d below 1", checkpoints[0])
	}
	for i := 1; i < len(checkpoints); i++ {
		if checkpoints[i] <= checkpoints[i-1] {
			return fmt.Errorf("sim: checkpoints must be ascending")
		}
	}
	if len(checkpoints) > 0 && checkpoints[len(checkpoints)-1] > traceLen {
		return fmt.Errorf("sim: checkpoint %d beyond trace length %d",
			checkpoints[len(checkpoints)-1], traceLen)
	}
	return nil
}

// costMeter samples an Incremental's cumulative totals at checkpoints:
// the replay loop feeds chunks through the embedded stepper (the same
// accumulation path the live engine runs) and the meter appends series
// points. nextCP is the upcoming checkpoint (or -1), kept denormalized so
// the replay loop cuts a chunk at it with one integer compare.
type costMeter struct {
	res         *RunResult
	inc         Incremental
	checkpoints []int
	ci          int
	nextCP      int
}

func newCostMeter(res *RunResult, checkpoints []int, alg core.Algorithm, alpha float64) costMeter {
	m := costMeter{res: res, checkpoints: checkpoints, nextCP: -1}
	m.inc.Init(alg, alpha)
	if len(checkpoints) > 0 {
		m.nextCP = checkpoints[0]
	}
	return m
}

// feed serves reqs, which follow the first served requests, and returns
// the new served count. It cuts reqs at the next curve checkpoint and
// feeds each segment as one chunk, sampling the totals between segments.
func (c *costMeter) feed(reqs []trace.CompiledReq, served int) int {
	for len(reqs) > 0 {
		n := len(reqs)
		if c.nextCP > served && c.nextCP-served < n {
			n = c.nextCP - served
		}
		c.inc.FeedChunk(reqs[:n])
		reqs = reqs[n:]
		served += n
		if served == c.nextCP {
			c.checkpoint(served)
		}
	}
	return served
}

// checkpoint samples the running totals after served requests.
func (c *costMeter) checkpoint(served int) {
	for c.ci < len(c.checkpoints) && served == c.checkpoints[c.ci] {
		c.res.Series.X = append(c.res.Series.X, served)
		c.res.Series.Routing = append(c.res.Series.Routing, c.inc.tot.Routing)
		c.res.Series.Reconfig = append(c.res.Series.Reconfig, c.inc.tot.Reconfig)
		c.ci++
	}
	c.nextCP = -1
	if c.ci < len(c.checkpoints) {
		c.nextCP = c.checkpoints[c.ci]
	}
}

// finish folds the step totals back into the result.
func (c *costMeter) finish() {
	c.res.Adds = c.inc.tot.Adds
	c.res.Removals = c.inc.tot.Removals
}

// Averaged is the mean of several runs of the same configuration with
// different seeds (the paper averages 5 repetitions).
type Averaged struct {
	Label    string
	X        []int
	Routing  []float64 // mean cumulative routing cost
	Reconfig []float64
	Elapsed  time.Duration // mean wall-clock time
	Reps     int
}
