package sim

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"obm/internal/core"
	"obm/internal/trace"
)

// Parallel streamed replay: the multi-core twin of RunSource for sharded
// (multi-plane) algorithms. One reader goroutine (the caller) drains the
// trace.Source — sources are not concurrency-safe — and scatters each chunk
// into per-shard sub-batches; per-shard state lives in core.Sharded's
// planes, which share nothing, so the sub-batches replay concurrently.
//
// Determinism: every plane serves exactly the subsequence of requests it
// owns, in trace order (per-shard FIFO channels; one fixed worker per
// shard), with the sequential cost meter's accumulation order; checkpoint
// curves are assembled by folding per-shard samples in canonical ascending
// shard order (core.FoldShardSteps' order). The result is therefore a pure
// function of (algorithm, trace, checkpoints): the worker count, chunk
// size and goroutine scheduling never change a single bit. With one shard
// the replay is unconditionally byte-identical to sequential RunSource;
// with S > 1 it equals sequential replay of the same sharded algorithm
// whenever per-step costs are integer-valued (α integer — every preset and
// figure), because all partial cost sums are then exact in float64.
// parallel_replay_test.go pins both properties on the paper's four trace
// families.

// cpSample is one shard's cumulative cost sampled at one checkpoint.
type cpSample struct {
	routing, reconfig float64
}

// shardMark tells a worker to sample checkpoint ci after serving the first
// pos requests of the batch. Every shard receives a mark for every global
// checkpoint (its owned-subsequence position at that point), so curves
// merge by folding shard samples per checkpoint.
type shardMark struct {
	pos int32
	ci  int32
}

// shardBatch is the unit of reader→worker transfer: one chunk's requests
// owned by one shard, plus the checkpoint marks falling inside it. Batches
// are recycled through a free list, so a replay of any length allocates a
// bounded number of them.
type shardBatch struct {
	shard int
	reqs  []trace.CompiledReq
	marks []shardMark
}

// parallelScratch is the per-run working set of the parallel replay —
// per-shard accumulators, checkpoint samples (flat, s·ncp+ci), scatter
// state, the worker channels and the batch free list. It is recycled
// through a sync.Pool: a grid run executes thousands of parallel replays,
// and without reuse each one paid O(shards) allocations for this state
// plus a fresh set of batch buffers (the old code closed its channels at
// drain, so nothing survived a run). Workers now terminate on a nil
// sentinel batch instead of channel close, which is what lets the
// channels — and the recycled batches queued on the free list — live
// across runs. The alloc-growth guard in parallel_replay_test.go pins
// the effect.
type parallelScratch struct {
	finals  []core.ShardStep
	samples []cpSample
	cur     []*shardBatch
	work    []chan *shardBatch
	free    chan *shardBatch
}

var parallelPool sync.Pool

// getParallelScratch returns a scratch sized for (shards, workers, ncp),
// growing a pooled one only where capacity is short.
func getParallelScratch(shards, workers, ncp int) *parallelScratch {
	sc, _ := parallelPool.Get().(*parallelScratch)
	if sc == nil {
		sc = &parallelScratch{}
	}
	if cap(sc.finals) < shards {
		sc.finals = make([]core.ShardStep, shards)
	} else {
		sc.finals = sc.finals[:shards]
		clear(sc.finals)
	}
	if need := shards * ncp; cap(sc.samples) < need {
		sc.samples = make([]cpSample, need)
	} else {
		sc.samples = sc.samples[:need]
	}
	if cap(sc.cur) < shards {
		sc.cur = make([]*shardBatch, shards)
	} else {
		sc.cur = sc.cur[:shards]
		clear(sc.cur)
	}
	for len(sc.work) < workers {
		sc.work = append(sc.work, make(chan *shardBatch, 2))
	}
	if sc.free == nil || cap(sc.free) < 4*shards {
		// Migrate recycled batches into the bigger free list.
		old := sc.free
		sc.free = make(chan *shardBatch, 4*shards)
		for old != nil {
			select {
			case b := <-old:
				sc.free <- b
			default:
				old = nil
			}
		}
	}
	return sc
}

// RunSourceParallel replays src through alg with up to `workers` worker
// goroutines (<= 0 selects GOMAXPROCS, capped at the shard count),
// resetting the source first. alg must be a *core.Sharded for the replay
// to actually parallelize; any other algorithm falls back to the
// sequential RunSource path. The result is byte-identical for every
// worker count — parallelism is a throughput knob, never part of the
// experiment's identity.
func RunSourceParallel(alg core.Algorithm, src trace.Source, alpha float64, checkpoints []int, chunkSize, workers int) (RunResult, error) {
	var res RunResult
	if err := runSourceParallelInto(context.Background(), &res, alg, src, alpha, checkpoints, trace.NewChunk(chunkSize), workers, nil); err != nil {
		return RunResult{}, err
	}
	return res, nil
}

// runSourceParallelInto is RunSourceParallel writing into reusable result
// and chunk buffers. The chunk buffer is only read on the caller's
// goroutine (requests are copied into shard batches before workers see
// them), so a chunk from the grid scheduler's pool is safe to pass in.
func runSourceParallelInto(ctx context.Context, res *RunResult, alg core.Algorithm, src trace.Source, alpha float64, checkpoints []int, chunk *trace.CompiledChunk, workers int, met *Metrics) error {
	sh, ok := alg.(*core.Sharded)
	if !ok {
		return runSourceInto(ctx, res, alg, src, alpha, checkpoints, chunk, ckHooks{}, met)
	}
	if err := validateCheckpoints(checkpoints, src.Len()); err != nil {
		return err
	}
	shards := sh.Shards()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	src.Reset()
	res.reset(alg.Name())
	part := sh.Partition()

	// Per-shard state, recycled across runs through the scratch pool. Each
	// finals/samples entry is written by exactly one worker goroutine
	// (shard s is pinned to worker s % workers) and read only after the
	// WaitGroup barrier. samples is flat: shard s's checkpoint ci lives at
	// s*ncp + ci.
	ncp := len(checkpoints)
	sc := getParallelScratch(shards, workers, ncp)
	defer parallelPool.Put(sc)
	finals := sc.finals
	samples := sc.samples
	work := sc.work[:workers]
	// Recycled batch buffers: enough for every shard to have one batch in
	// flight per channel slot plus one being filled, without the reader
	// ever needing a fresh allocation in steady state.
	free := sc.free

	// Fold timing is per delivered batch, not per request, so the
	// histogram mutex is touched at scatter granularity; hoisted out of
	// the loop, the off path is one nil check per batch.
	foldHist := met.foldHist()

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				// nil is the termination sentinel — the channels are never
				// closed, so they (and the batches on the free list) outlive
				// the run inside the pooled scratch.
				b := <-work[w]
				if b == nil {
					return
				}
				var t0 time.Time
				if foldHist != nil {
					t0 = time.Now()
				}
				s := b.shard
				d := &finals[s]
				prev := int32(0)
				for _, mk := range b.marks {
					sh.ApplyShard(s, alpha, b.reqs[prev:mk.pos], d)
					prev = mk.pos
					samples[s*ncp+int(mk.ci)] = cpSample{d.Routing, d.Reconfig}
				}
				sh.ApplyShard(s, alpha, b.reqs[prev:], d)
				if foldHist != nil {
					foldHist.ObserveDuration(time.Since(t0))
				}
				select {
				case free <- b:
				default:
				}
			}
		}(w)
	}
	drain := func() {
		for w := range work {
			work[w] <- nil
		}
		wg.Wait()
	}

	getBatch := func(s int) *shardBatch {
		var b *shardBatch
		select {
		case b = <-free:
			b.reqs = b.reqs[:0]
			b.marks = b.marks[:0]
		default:
			b = &shardBatch{}
		}
		b.shard = s
		return b
	}

	// Scatter loop: split each chunk by owner, stamp checkpoint marks into
	// every shard's batch, hand finished batches to the owning worker.
	cur := sc.cur
	pos, ci := 0, 0
	nextCP := -1
	if len(checkpoints) > 0 {
		nextCP = checkpoints[0]
	}
	for {
		if err := ctx.Err(); err != nil {
			drain()
			return err
		}
		n, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			drain()
			return err
		}
		for _, req := range chunk.Reqs[:n] {
			s := part.OfReq(req)
			b := cur[s]
			if b == nil {
				b = getBatch(s)
				cur[s] = b
			}
			b.reqs = append(b.reqs, req)
			pos++
			if pos == nextCP {
				for s2 := 0; s2 < shards; s2++ {
					b2 := cur[s2]
					if b2 == nil {
						b2 = getBatch(s2)
						cur[s2] = b2
					}
					b2.marks = append(b2.marks, shardMark{pos: int32(len(b2.reqs)), ci: int32(ci)})
				}
				ci++
				nextCP = -1
				if ci < len(checkpoints) {
					nextCP = checkpoints[ci]
				}
			}
		}
		for s := 0; s < shards; s++ {
			if cur[s] != nil {
				work[s%workers] <- cur[s]
				cur[s] = nil
			}
		}
		met.chunkFed(n)
	}
	drain()
	// Elapsed is the wall clock of the whole scatter/serve/merge section —
	// the parallel throughput actually achieved. Unlike the sequential
	// path it includes the source's generation time (the reader overlaps
	// it with the workers), so compare parallel Elapsed against parallel,
	// not against RunSource's decision-loop-only timing.
	res.Elapsed = time.Since(start)

	if pos != src.Len() {
		return fmt.Errorf("sim: source %q produced %d requests, declared %d", src.Name(), pos, src.Len())
	}

	// Deterministic merge: per checkpoint, fold shard samples in ascending
	// shard order (the canonical FoldShardSteps order).
	for i, cp := range checkpoints {
		var routing, reconfig float64
		for s := 0; s < shards; s++ {
			routing += samples[s*ncp+i].routing
			reconfig += samples[s*ncp+i].reconfig
		}
		res.Series.X = append(res.Series.X, cp)
		res.Series.Routing = append(res.Series.Routing, routing)
		res.Series.Reconfig = append(res.Series.Reconfig, reconfig)
	}
	total := core.FoldShardSteps(finals)
	res.Adds = total.Adds
	res.Removals = total.Removals
	res.FinalMatchingSize = sh.MatchingSize()
	return nil
}
