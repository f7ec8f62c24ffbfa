package sim

import (
	"obm/internal/core"
	"obm/internal/trace"
)

// The incremental step surface: feed compiled requests to one algorithm
// instance, one request or one chunk at a time, and observe cumulative
// costs and matching deltas as they accrue. This is the single code path
// under every consumer of an algorithm — the replay loop in this package
// (RunSource, RunExperiment and RunGrid through costMeter), the
// benchmarks, and the live matching engine (internal/engine), which ingests an unbounded
// request stream and reports cumulative costs after every batch.
//
// Sharing the accumulator matters for more than code reuse: cumulative
// costs fold through core.ShardStep.Add in request order, one += per cost
// component per step, so any two consumers fed the same request sequence
// produce bit-identical cumulative cost streams. That is the determinism
// contract the engine's acceptance test pins (engine ingest ≡ offline
// RunSource replay, byte for byte, on all four paper trace families).

// Counters is a snapshot of an Incremental's cumulative totals.
type Counters struct {
	// Served is the number of requests fed so far.
	Served int64
	// Routing and Reconfig are the cumulative cost components, folded in
	// request order (bit-identical to a sequential replay's cost meter).
	Routing  float64
	Reconfig float64
	// Adds and Removals count matching edges changed since the start.
	Adds     int
	Removals int
}

// Total returns the cumulative total cost.
func (c Counters) Total() float64 { return c.Routing + c.Reconfig }

// Incremental drives one algorithm instance request by request,
// accumulating cumulative costs with the sequential cost meter's exact
// operation order. The zero value is not usable; call Init (or
// NewIncremental). Incremental is a plain value — embedding it costs no
// allocation — and is not safe for concurrent use; callers that share one
// across goroutines (the engine's sessions) serialize externally.
type Incremental struct {
	alg      core.Algorithm
	cs       core.CompiledServer // non-nil when alg has the dense path
	compiled bool
	alpha    float64
	tot      core.ShardStep
	served   int64
}

// NewIncremental allocates an Incremental over alg. Callers on an
// allocation budget embed the struct and call Init instead.
func NewIncremental(alg core.Algorithm, alpha float64) *Incremental {
	in := &Incremental{}
	in.Init(alg, alpha)
	return in
}

// Init binds the stepper to alg with reconfiguration cost alpha and
// clears the counters. The algorithm's own state is left untouched.
func (in *Incremental) Init(alg core.Algorithm, alpha float64) {
	in.alg = alg
	in.cs, in.compiled = alg.(core.CompiledServer)
	in.alpha = alpha
	in.tot = core.ShardStep{}
	in.served = 0
}

// Algorithm returns the driven instance.
func (in *Incremental) Algorithm() core.Algorithm { return in.alg }

// Alpha returns the reconfiguration cost the totals are folded under.
func (in *Incremental) Alpha() float64 { return in.alpha }

// Feed serves one compiled request and folds its cost into the totals.
func (in *Incremental) Feed(req trace.CompiledReq) core.Step {
	var st core.Step
	if in.compiled {
		st = in.cs.ServeCompiled(req)
	} else {
		st = in.alg.Serve(int(req.U), int(req.V))
	}
	in.tot.Add(st, in.alpha)
	in.served++
	return st
}

// FeedChunk serves a chunk of compiled requests in order and reports how
// many matching edges the chunk added and removed. Cumulative totals
// advance exactly as len(reqs) Feed calls would (the dense-path branch is
// hoisted out of the loop; the fold order per request is identical).
func (in *Incremental) FeedChunk(reqs []trace.CompiledReq) (adds, removals int) {
	beforeAdds, beforeRemovals := in.tot.Adds, in.tot.Removals
	if in.compiled {
		for _, req := range reqs {
			in.tot.Add(in.cs.ServeCompiled(req), in.alpha)
		}
	} else {
		for _, req := range reqs {
			in.tot.Add(in.alg.Serve(int(req.U), int(req.V)), in.alpha)
		}
	}
	in.served += int64(len(reqs))
	return in.tot.Adds - beforeAdds, in.tot.Removals - beforeRemovals
}

// Counters snapshots the cumulative totals.
func (in *Incremental) Counters() Counters {
	return Counters{
		Served:   in.served,
		Routing:  in.tot.Routing,
		Reconfig: in.tot.Reconfig,
		Adds:     in.tot.Adds,
		Removals: in.tot.Removals,
	}
}

// MatchingSize returns the algorithm's current matching size.
func (in *Incremental) MatchingSize() int { return in.alg.MatchingSize() }

// Reset restores the algorithm to its initial state and zeroes the
// counters.
func (in *Incremental) Reset() {
	in.alg.Reset()
	in.tot = core.ShardStep{}
	in.served = 0
}
