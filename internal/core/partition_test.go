package core

import (
	"testing"

	"obm/internal/trace"
)

// testTraceCompiled compiles a small Facebook-style trace against the
// model's metric for the compiled-path tests.
func testTraceCompiled(t *testing.T, n, requests int, seed uint64, model CostModel) *trace.Compiled {
	t.Helper()
	p := trace.FacebookPreset(trace.Database, n, seed)
	p.Requests = requests
	tr, err := trace.FacebookStyle(p)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tr.Compile(model.Metric.Dist)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func newShardedRBMA(t *testing.T, n, shards, b int, model CostModel, baseSeed uint64) *Sharded {
	t.Helper()
	part, err := NewPartition(n, shards)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewSharded(part, func(shard int) (Algorithm, error) {
		return NewRBMA(n, b, model, ShardSeed(baseSeed, shard))
	})
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

func TestPartitionValidation(t *testing.T) {
	if _, err := NewPartition(1, 1); err == nil {
		t.Error("n = 1 accepted")
	}
	if _, err := NewPartition(8, 0); err == nil {
		t.Error("shards = 0 accepted")
	}
	if _, err := NewPartition(8, 9); err == nil {
		t.Error("shards > n accepted")
	}
}

// TestPartitionOwnershipConsistent pins OfRow, OfReq and OfPair to one
// another: every pair is owned by exactly the shard of its smaller
// endpoint's row.
func TestPartitionOwnershipConsistent(t *testing.T) {
	const n = 12
	idx := trace.SharedPairIndex(n)
	for _, shards := range []int{1, 2, 3, 5, n} {
		p, err := NewPartition(n, shards)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < idx.NumPairs(); id++ {
			u, v := idx.Endpoints(trace.PairID(id))
			want := p.OfRow(u)
			if got := p.OfPair(trace.PairID(id)); got != want {
				t.Fatalf("shards=%d: OfPair({%d,%d}) = %d, OfRow(%d) = %d", shards, u, v, got, u, want)
			}
			req := trace.CompiledReq{ID: trace.PairID(id), U: int32(u), V: int32(v), Dist: 1}
			if got := p.OfReq(req); got != want {
				t.Fatalf("shards=%d: OfReq({%d,%d}) = %d, want %d", shards, u, v, got, want)
			}
			if want < 0 || want >= shards {
				t.Fatalf("shards=%d: owner %d out of range", shards, want)
			}
		}
	}
}

// serveOne serves req through cs as a one-request chunk and returns what it
// folded.
func serveOne(cs CompiledServer, req trace.CompiledReq) ShardStep {
	var d ShardStep
	cs.ServeChunk([]trace.CompiledReq{req}, &d, 30)
	return d
}

// TestShardedSingleShardMatchesPlain: one shard with ShardSeed(base, 0) is
// the unsharded algorithm — identical steps, name, matching.
func TestShardedSingleShardMatchesPlain(t *testing.T) {
	const n, b = 16, 3
	model := testModel(n, 30)
	ct := testTraceCompiled(t, n, 8000, 3, model)
	plain, err := NewRBMA(n, b, model, 42)
	if err != nil {
		t.Fatal(err)
	}
	sh := newShardedRBMA(t, n, 1, b, model, 42)
	if sh.Name() != plain.Name() {
		t.Fatalf("single-shard name %q != %q", sh.Name(), plain.Name())
	}
	for i, req := range ct.Reqs {
		if got, want := serveOne(sh, req), serveOne(plain, req); got != want {
			t.Fatalf("request %d: sharded step %+v != plain %+v", i, got, want)
		}
	}
	if sh.MatchingSize() != plain.MatchingSize() {
		t.Fatalf("matching size %d != %d", sh.MatchingSize(), plain.MatchingSize())
	}
}

// TestShardedPlanesAreIndependent: each plane of a multi-shard run evolves
// exactly like a standalone instance fed only that shard's requests.
func TestShardedPlanesAreIndependent(t *testing.T) {
	const n, b, shards = 16, 3, 4
	model := testModel(n, 30)
	ct := testTraceCompiled(t, n, 8000, 7, model)
	sh := newShardedRBMA(t, n, shards, b, model, 9)
	ref := make([]*RBMA, shards)
	for s := range ref {
		alg, err := NewRBMA(n, b, model, ShardSeed(9, s))
		if err != nil {
			t.Fatal(err)
		}
		ref[s] = alg
	}
	part := sh.Partition()
	size := 0
	for i, req := range ct.Reqs {
		s := part.OfReq(req)
		if got, want := serveOne(sh, req), serveOne(ref[s], req); got != want {
			t.Fatalf("request %d (shard %d): step %+v != standalone %+v", i, s, got, want)
		}
	}
	for s := range ref {
		if sh.Shard(s).MatchingSize() != ref[s].MatchingSize() {
			t.Fatalf("shard %d size %d != standalone %d", s, sh.Shard(s).MatchingSize(), ref[s].MatchingSize())
		}
		size += ref[s].MatchingSize()
		if err := CheckDegreeInvariant(sh.Shard(s)); err != nil {
			t.Fatal(err)
		}
	}
	if sh.MatchingSize() != size {
		t.Fatalf("MatchingSize %d != plane sum %d", sh.MatchingSize(), size)
	}
}

// TestShardedServeMatchesServeCompiled pins the raw Serve delegation to the
// dense path, request by request.
func TestShardedServeMatchesServeCompiled(t *testing.T) {
	const n, b, shards = 12, 2, 3
	model := testModel(n, 30)
	ct := testTraceCompiled(t, n, 5000, 13, model)
	viaServe := newShardedRBMA(t, n, shards, b, model, 1)
	viaCompiled := newShardedRBMA(t, n, shards, b, model, 1)
	for i, req := range ct.Reqs {
		// Feed Serve the reversed endpoints to exercise canonicalization.
		var got ShardStep
		got.Add(viaServe.Serve(int(req.V), int(req.U)), 30)
		if want := serveOne(viaCompiled, req); got != want {
			t.Fatalf("request %d: Serve %+v != ServeChunk %+v", i, got, want)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if viaServe.Matched(v, u) != viaCompiled.Matched(u, v) {
				t.Fatalf("Matched(%d,%d) disagrees between paths", u, v)
			}
		}
	}
}

// TestShardedReset: after Reset the sharded run replays identically.
func TestShardedReset(t *testing.T) {
	const n, b, shards = 12, 2, 3
	model := testModel(n, 30)
	ct := testTraceCompiled(t, n, 5000, 17, model)
	sh := newShardedRBMA(t, n, shards, b, model, 21)
	run := func() ShardStep {
		var d ShardStep
		for i := range ct.Reqs {
			sh.ServeChunk(ct.Reqs[i:i+1], &d, 30)
		}
		return d
	}
	first := run()
	sh.Reset()
	if sh.MatchingSize() != 0 {
		t.Fatal("Reset left matched edges")
	}
	if second := run(); second != first {
		t.Fatalf("replay after Reset %+v != first run %+v", second, first)
	}
}

// TestReseedMatchesFreshConstruction: Reseed must leave an instance in the
// state a fresh construction with that seed produces — this is what lets
// the figure drivers recycle instances across repetitions.
func TestReseedMatchesFreshConstruction(t *testing.T) {
	const n, b = 14, 3
	model := testModel(n, 30)
	ct := testTraceCompiled(t, n, 6000, 19, model)
	run := func(alg Algorithm) ShardStep {
		var d ShardStep
		for i := range ct.Reqs {
			alg.(CompiledServer).ServeChunk(ct.Reqs[i:i+1], &d, 30)
		}
		return d
	}
	recycled, err := NewRBMA(n, b, model, 100)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(200); seed < 204; seed++ {
		fresh, err := NewRBMA(n, b, model, seed)
		if err != nil {
			t.Fatal(err)
		}
		recycled.Reseed(seed)
		if got, want := run(recycled), run(fresh); got != want {
			t.Fatalf("seed %d: reseeded run %+v != fresh run %+v", seed, got, want)
		}
	}
}
