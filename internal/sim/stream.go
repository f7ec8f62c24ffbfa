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
// itself ((*trace.Compiled).Source). RunSource, RunExperiment, RunGrid and
// RunSourceParallel's non-sharded fallback all replay through
// runSourceInto, so cost curves are bit-identical across every front end
// and source kind (pinned by stream_golden_test.go).

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
//
// The zero ckHooks mean a plain replay. Otherwise the replay resumes from
// ck.load's blob when one exists and is valid (anything else silently
// degrades to a fresh replay), saves a new checkpoint through ck.save at
// the first chunk boundary after every ck.every fed requests, and calls
// ck.drop once the replay completes. Cost curves are bit-identical in
// every case — resumed, checkpointed or both — because the algorithm
// snapshot round-trip is exact and the source is deterministic under
// Reset.
func runSourceInto(ctx context.Context, res *RunResult, alg core.Algorithm, src trace.Source, alpha float64, checkpoints []int, chunk *trace.CompiledChunk, ck ckHooks, met *Metrics) error {
	if err := validateCheckpoints(checkpoints, src.Len()); err != nil {
		return err
	}
	src.Reset()
	res.reset(alg.Name())
	m := newCostMeter(res, checkpoints, alg, alpha)
	start := 0
	// Elapsed covers the decision loops only — generation and chunk
	// compilation inside src.Next are excluded, so streamed and
	// materialized replays time the same work and stay comparable to the
	// paper's execution-time figures. The two clock reads per chunk are
	// noise against thousands of Serve calls.
	var elapsed time.Duration
	if ck.load != nil {
		lt := time.Now()
		blob, ok := ck.load()
		if ok {
			pos, el, err := loadReplayCheckpoint(blob, &m, src.Len())
			met.loadTimed(time.Since(lt))
			if err != nil {
				// A checkpoint is an optimization: a corrupt, truncated or
				// mismatched blob means a fresh replay, not a failed job.
				// The load may have partially mutated the algorithm and the
				// series buffers, so rebuild both from scratch.
				alg.Reset()
				res.reset(alg.Name())
				m = newCostMeter(res, checkpoints, alg, alpha)
			} else {
				start, elapsed = pos, el
			}
		}
	}
	saving := ck.every > 0 && ck.save != nil
	fed := 0
	i := 0
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
		reqs := chunk.Reqs[:n]
		// Fast-forward: requests inside the resumed prefix are drained
		// without feeding, so a chunk straddling the boundary feeds only
		// its suffix.
		if i < start {
			skip := min(start-i, n)
			reqs = reqs[skip:]
			i += skip
			if len(reqs) == 0 {
				continue
			}
		}
		t0 := time.Now()
		for _, req := range reqs {
			m.inc.Feed(req)
			i++
			if i == m.nextCP {
				m.checkpoint(i)
			}
		}
		elapsed += time.Since(t0)
		fed += len(reqs)
		met.chunkFed(len(reqs))
		if saving && fed >= ck.every {
			st := time.Now()
			blob, serr := saveReplayCheckpoint(&m, i, elapsed)
			if serr != nil {
				// The algorithm cannot snapshot (ablation variants): run the
				// job to completion without checkpoints rather than failing
				// a perfectly computable outcome.
				saving = false
			} else if err := ck.save(blob); err != nil {
				return fmt.Errorf("sim: saving checkpoint at %d requests: %w", i, err)
			} else {
				met.saveTimed(time.Since(st))
			}
			fed = 0
		}
	}
	res.Elapsed = elapsed
	if i != src.Len() {
		return fmt.Errorf("sim: source %q produced %d requests, declared %d", src.Name(), i, src.Len())
	}
	m.finish()
	res.FinalMatchingSize = alg.MatchingSize()
	if ck.drop != nil {
		ck.drop()
	}
	return nil
}
