package serve_test

import (
	"context"
	"fmt"
	"os"
	"time"

	"obm/internal/serve"
	"obm/internal/sim"
)

// ExampleNew builds the experiment service over a store root and shuts
// it down gracefully — the embedding pattern `experiments serve` uses
// (mount s.Handler() on an http.Server to expose the API).
func ExampleNew() {
	root, err := os.MkdirTemp("", "serve-root")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)

	s, err := serve.New(serve.Options{
		StoreRoot: root, // the durable queue + content-addressed result cache
		Workers:   1,    // local workers leasing shards in this process
	})
	if err != nil {
		panic(err)
	}
	// s.Handler() is the HTTP API; here we only exercise the lifecycle.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		panic(err)
	}
	fmt.Println("service drained cleanly")
	// Output:
	// service drained cleanly
}

// ExampleServer_Submit submits a grid programmatically, waits for it,
// and shows the content-addressed cache: resubmitting identical specs
// returns the finished job instead of recomputing.
func ExampleServer_Submit() {
	root, err := os.MkdirTemp("", "serve-root")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)
	s, err := serve.New(serve.Options{StoreRoot: root, Workers: 1})
	if err != nil {
		panic(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	specs := []sim.ScenarioSpec{{
		Name: "demo", Family: "uniform",
		Racks: 8, Requests: 2000, Seed: 1,
		Bs: []int{2}, Reps: 2, Algs: []string{"r-bma"},
	}}
	st, err := s.Submit(specs)
	if err != nil {
		panic(err)
	}
	fmt.Println("queued:", st.Total, "grid jobs; cached:", st.Cached)

	for st.State != serve.StateDone && st.State != serve.StateFailed {
		time.Sleep(5 * time.Millisecond)
		st, _ = s.Job(st.ID)
	}
	fmt.Println("finished:", st.State, st.Done, "of", st.Total)

	// The job id is the SHA-256 spec hash: identical specs are a cache
	// hit, served from the finished store with zero recomputation.
	again, err := s.Submit(specs)
	if err != nil {
		panic(err)
	}
	fmt.Println("resubmitted: cached =", again.Cached, "— same job:", again.ID == st.ID)
	// Output:
	// queued: 2 grid jobs; cached: false
	// finished: done 2 of 2
	// resubmitted: cached = true — same job: true
}
