package sim

import (
	"context"
	"os"
	"runtime"
	"testing"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/trace"
)

// The bounded-memory acceptance suite: streamed replay must hold O(chunk)
// requests, not O(T). Verified three ways: constructing a 10⁸-request
// source allocates nothing proportional to T; a warm replay loop allocates
// (almost) nothing regardless of trace length; and — behind an env gate,
// because it takes a few CPU-seconds — an actual 10⁸-request replay stays
// under a fixed heap cap.

// measureAlloc returns the heap bytes allocated while running fn.
func measureAlloc(fn func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func newUniformSource(t testing.TB, n, count int, model core.CostModel) trace.Source {
	t.Helper()
	st, err := trace.NewUniformStream(n, count, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewSource(st, model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestStreamSourceConstructionIsOofChunk: building a source over a
// 10⁸-request stream and reading its first chunks must not allocate any
// O(T) buffer (a materialized 10⁸-request trace would need ~800 MB for the
// Request slice alone, and ~1.6 GB compiled).
func TestStreamSourceConstructionIsOofChunk(t *testing.T) {
	model := core.CostModel{Metric: graph.FatTreeRacks(24).Metric(), Alpha: 30}
	const huge = 100_000_000
	var src trace.Source
	alloc := measureAlloc(func() {
		src = newUniformSource(t, 24, huge, model)
		chunk := trace.NewChunk(8192)
		for i := 0; i < 4; i++ {
			if _, err := src.Next(chunk); err != nil {
				t.Fatal(err)
			}
		}
	})
	if src.Len() != huge {
		t.Fatalf("source Len = %d", src.Len())
	}
	// Generator state + pair index + two 8192-request chunk-sized buffers:
	// well under a megabyte. An O(T) buffer would be hundreds of megabytes.
	if alloc > 8<<20 {
		t.Fatalf("constructing and reading a 1e8-request source allocated %d bytes — O(T) buffer?", alloc)
	}
}

// TestStreamedReplayAllocsIndependentOfLength: once the per-worker scratch
// (chunk + result buffer) is warm, a full streamed replay allocates a
// trace-length-independent number of bytes — the steady state is
// allocation-free, so quadrupling T must not grow allocations.
func TestStreamedReplayAllocsIndependentOfLength(t *testing.T) {
	model := core.CostModel{Metric: graph.FatTreeRacks(24).Metric(), Alpha: 30}
	replayAlloc := func(count, chunkSize int) uint64 {
		src := newUniformSource(t, 24, count, model)
		alg, err := core.NewRBMA(24, 4, model, 1)
		if err != nil {
			t.Fatal(err)
		}
		chunk := trace.NewChunk(chunkSize)
		var res RunResult
		cps := Checkpoints(count, 4)
		// Warm pass: grows the scratch buffers once.
		if err := runSourceInto(context.Background(), &res, alg, src, model.Alpha, cps, chunk, ckHooks{}, nil); err != nil {
			t.Fatal(err)
		}
		alg.Reset()
		return measureAlloc(func() {
			if err := runSourceInto(context.Background(), &res, alg, src, model.Alpha, cps, chunk, ckHooks{}, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	const chunkSize = 4096
	short := replayAlloc(100_000, chunkSize)
	long := replayAlloc(400_000, chunkSize)
	// Both should be near zero; 64 KiB of slack absorbs runtime noise
	// (stack growth, timer internals) without masking an O(T) regression,
	// which would show up as megabytes.
	const slack = 64 << 10
	if short > slack {
		t.Errorf("warm 100k-request streamed replay allocated %d bytes, want < %d", short, slack)
	}
	if long > short+slack {
		t.Errorf("allocations grew with trace length: %d bytes at 100k vs %d at 400k", short, long)
	}
}

// TestStreamHundredMillionRequests is the literal acceptance run: a
// 10⁸-request streamed scenario replayed under a fixed heap cap. It costs
// a few CPU-seconds, so it only runs when OBM_STREAM_HUGE=1 is set:
//
//	OBM_STREAM_HUGE=1 go test ./internal/sim -run TestStreamHundredMillion -v
func TestStreamHundredMillionRequests(t *testing.T) {
	if os.Getenv("OBM_STREAM_HUGE") == "" {
		t.Skip("set OBM_STREAM_HUGE=1 to run the 1e8-request replay")
	}
	model := core.CostModel{Metric: graph.FatTreeRacks(48).Metric(), Alpha: 30}
	const huge = 100_000_000
	spec := ScenarioSpec{
		Name: "huge", Family: "hotspot",
		Racks: 48, Requests: huge, Seed: 1,
		Bs: []int{4}, Reps: 1,
	}
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.NewBMA(48, 4, model)
	if err != nil {
		t.Fatal(err)
	}
	chunk := trace.NewChunk(8192)
	var res RunResult
	done := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		var max uint64
		var ms runtime.MemStats
		for {
			select {
			case <-done:
				peak <- max
				return
			default:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > max {
					max = ms.HeapAlloc
				}
			}
		}
	}()
	if err := runSourceInto(context.Background(), &res, alg, src, model.Alpha, Checkpoints(huge, 4), chunk, ckHooks{}, nil); err != nil {
		t.Fatal(err)
	}
	close(done)
	if p := <-peak; p > 256<<20 {
		t.Fatalf("1e8-request replay peaked at %d bytes of heap, want < 256 MiB", p)
	}
	if res.Series.X[len(res.Series.X)-1] != huge {
		t.Fatalf("replay ended at %d requests", res.Series.X[len(res.Series.X)-1])
	}
}
