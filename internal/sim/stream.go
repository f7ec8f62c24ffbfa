package sim

import (
	"context"
	"fmt"
	"io"
	"time"

	"obm/internal/core"
	"obm/internal/trace"
)

// The replay loop: a trace.Source delivers compiled requests in
// fixed-size chunks, so a replay of any length holds O(chunk) requests in
// memory, and a materialized trace replays through zero-copy views of
// itself ((*trace.Compiled).Source). One replay is driven step by step
// (replay: begin, feed one chunk, end): RunSource, RunExperiment and
// RunSourceParallel's non-sharded fallback drive it over a source of
// their own (runSourceInto), and RunGrid's groups drive one per job over
// the chunks of the group's one source. Cost curves are therefore
// bit-identical across every front end and source kind (pinned by
// stream_golden_test.go and lockstep_test.go).

// RunSource replays src through alg in chunks of chunkSize requests
// (trace.DefaultChunkSize if <= 0), resetting the source first. Cost
// curves are bit-identical for every chunk size and source kind.
func RunSource(alg core.Algorithm, src trace.Source, alpha float64, checkpoints []int, chunkSize int) (RunResult, error) {
	var res RunResult
	if err := runSourceInto(context.Background(), &res, alg, src, alpha, checkpoints, trace.NewChunk(chunkSize), ckHooks{}, nil); err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// runSourceInto is RunSource writing into reusable result and chunk
// buffers: a (result, chunk) pair recycled across repetitions stops
// allocating once warm, which is what keeps streamed replay O(chunk).
// Cancellation is honored at chunk boundaries — a cancelled ctx aborts
// the replay within one chunk's worth of requests, never mid-chunk, so
// costs are either complete or discarded (a partial replay is an error,
// not a shorter curve).
func runSourceInto(ctx context.Context, res *RunResult, alg core.Algorithm, src trace.Source, alpha float64, checkpoints []int, chunk *trace.CompiledChunk, ck ckHooks, met *Metrics) error {
	var r replay
	if err := r.begin(res, alg, src.Len(), alpha, checkpoints, ck, met); err != nil {
		return err
	}
	src.Reset()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := r.feed(chunk.Reqs[:n]); err != nil {
			return err
		}
	}
	return r.end(src.Name())
}

// replay is one algorithm's pass over a source of total requests, driven
// one chunk at a time: begin binds it, feed serves the next chunk of the
// source (the caller reads every chunk from the start, in order), end
// checks the count and completes the result.
//
// The zero ckHooks mean a plain replay. Otherwise begin resumes from
// ck.load's blob when one exists and is valid (anything else silently
// degrades to a fresh replay), feed saves a new checkpoint through
// ck.save at the first chunk boundary after every ck.every fed requests,
// and end calls ck.drop once the replay completes. Cost curves are
// bit-identical in every case — resumed, checkpointed or both — because
// the algorithm snapshot round-trip is exact and the source is
// deterministic under Reset.
type replay struct {
	m     costMeter
	ck    ckHooks
	met   *Metrics
	total int // requests the source declares
	start int // resumed position: the requests before it are skipped
	pos   int // requests consumed, skipped ones included
	fed   int // requests fed since the last checkpoint save
	// saving is cleared when the algorithm cannot snapshot.
	saving bool
	// elapsed covers the decision loops only — generation and chunk
	// compilation are excluded, so streamed and materialized replays time
	// the same work and stay comparable to the paper's execution-time
	// figures. The two clock reads per chunk are noise against thousands
	// of Serve calls.
	elapsed time.Duration
}

// begin binds the replay to alg and res, loading a checkpoint if ck has
// one.
func (r *replay) begin(res *RunResult, alg core.Algorithm, total int, alpha float64, checkpoints []int, ck ckHooks, met *Metrics) error {
	if err := validateCheckpoints(checkpoints, total); err != nil {
		return err
	}
	res.reset(alg.Name())
	*r = replay{
		m:      newCostMeter(res, checkpoints, alg, alpha),
		ck:     ck,
		met:    met,
		total:  total,
		saving: ck.every > 0 && ck.save != nil,
	}
	if ck.load == nil {
		return nil
	}
	lt := time.Now()
	blob, ok := ck.load()
	if !ok {
		return nil
	}
	pos, el, err := loadReplayCheckpoint(blob, &r.m, total)
	met.loadTimed(time.Since(lt))
	if err != nil {
		// A checkpoint is an optimization: a corrupt, truncated or
		// mismatched blob means a fresh replay, not a failed job. The load
		// may have partially mutated the algorithm and the series buffers,
		// so rebuild both from scratch.
		alg.Reset()
		res.reset(alg.Name())
		r.m = newCostMeter(res, checkpoints, alg, alpha)
		return nil
	}
	r.start, r.elapsed = pos, el
	return nil
}

// feed serves the next chunk. Requests inside a resumed prefix are
// drained without feeding (fast-forward), so a chunk straddling the
// boundary feeds only its suffix.
func (r *replay) feed(reqs []trace.CompiledReq) error {
	if r.pos < r.start {
		skip := min(r.start-r.pos, len(reqs))
		reqs = reqs[skip:]
		r.pos += skip
		if len(reqs) == 0 {
			return nil
		}
	}
	t0 := time.Now()
	r.pos = r.m.feed(reqs, r.pos)
	r.elapsed += time.Since(t0)
	r.fed += len(reqs)
	r.met.chunkFed(len(reqs))
	if !r.saving || r.fed < r.ck.every {
		return nil
	}
	r.fed = 0
	st := time.Now()
	blob, err := saveReplayCheckpoint(&r.m, r.pos, r.elapsed)
	if err != nil {
		// The algorithm cannot snapshot (ablation variants): run the job to
		// completion without checkpoints rather than failing a perfectly
		// computable outcome.
		r.saving = false
		return nil
	}
	if err := r.ck.save(blob); err != nil {
		return fmt.Errorf("sim: saving checkpoint at %d requests: %w", r.pos, err)
	}
	r.met.saveTimed(time.Since(st))
	return nil
}

// end completes the result once the source is drained; name identifies
// the source in the count check.
func (r *replay) end(name string) error {
	res := r.m.res
	res.Elapsed = r.elapsed
	if r.pos != r.total {
		return fmt.Errorf("sim: source %q produced %d requests, declared %d", name, r.pos, r.total)
	}
	r.m.finish()
	res.FinalMatchingSize = r.m.inc.MatchingSize()
	if r.ck.drop != nil {
		r.ck.drop()
	}
	return nil
}
