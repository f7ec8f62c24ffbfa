package work_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"obm/internal/serve"
	"obm/internal/sim"
	"obm/internal/work"
)

// ExampleRunner wires a complete in-process fleet: a coordinator-only
// experiment service, one worker draining its shard leases over HTTP, and
// a submitted grid that finishes through them — the same wiring
// `experiments serve -workers 0` plus `experiments worker` gives you as
// separate processes. (With local workers, the service drains grids
// through the same leases in process, alongside any fleet.)
func ExampleRunner() {
	root, err := os.MkdirTemp("", "fleet-root")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(root)
	workdir, err := os.MkdirTemp("", "fleet-work")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(workdir)

	// A pure coordinator: Workers < 0 starts no local workers, so every
	// shard is leased by the fleet.
	coord, err := serve.New(serve.Options{StoreRoot: root, Workers: -1, ShardSize: 2})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(coord.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		coord.Shutdown(ctx)
	}()

	st, err := coord.Submit([]sim.ScenarioSpec{{
		Name: "fleet-demo", Family: "uniform",
		Racks: 8, Requests: 2000, Seed: 1,
		Bs: []int{2}, Reps: 4, Algs: []string{"r-bma"},
	}})
	if err != nil {
		panic(err)
	}
	fmt.Println("submitted:", st.Total, "grid jobs, state", st.State)

	runner, err := work.New(work.Options{
		Coordinator: ts.URL,
		Name:        "example-worker",
		Dir:         workdir,
		Poll:        10 * time.Millisecond,
	})
	if err != nil {
		panic(err)
	}
	ctx, stopWorker := context.WithCancel(context.Background())
	done := make(chan int, 1)
	go func() {
		n, _ := runner.Run(ctx)
		done <- n
	}()

	for st.State != serve.StateDone && st.State != serve.StateFailed {
		time.Sleep(5 * time.Millisecond)
		st, _ = coord.Job(st.ID)
	}
	stopWorker()
	shards := <-done
	fmt.Println("drained by the fleet:", st.State, st.Done, "of", st.Total, "in", shards, "shard leases")
	// Output:
	// submitted: 4 grid jobs, state queued
	// drained by the fleet: done 4 of 4 in 2 shard leases
}
