package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"obm/internal/work"
)

// workerMain implements the `experiments worker` subcommand: a fleet
// worker that connects to a running `experiments serve` coordinator,
// leases shards of submitted grids, executes them against local shard
// stores, and uploads the logs. Any number of workers — on any number of
// machines that can reach the coordinator — drain the same grid
// cooperatively; killing a worker at any point loses no results.
func workerMain(args []string) {
	fs := flag.NewFlagSet("experiments worker", flag.ExitOnError)
	var (
		coordinator = fs.String("coordinator", "", "base URL of the experiment service (required), e.g. http://127.0.0.1:8080")
		capacity    = fs.Int("capacity", 1, "shard leases executed concurrently by this worker")
		workdir     = fs.String("workdir", "work", "directory for in-flight shard stores (kept across restarts for resume)")
		name        = fs.String("name", "", "worker name in coordinator logs (default <hostname>-<pid>)")
		gridWorkers = fs.Int("grid-workers", 0, "sim worker pool per shard (0 = GOMAXPROCS)")
		chunk       = fs.Int("chunk", 0, "streaming chunk size in requests (0 = default)")
		parallel    = fs.Int("parallel", 1, "replay goroutines per multi-plane job (shards > 1); results are identical for every value")
		ckEvery     = fs.Int("checkpoint-every", 0, "checkpoint in-flight grid jobs every N requests so a restarted worker resumes inside them (0 = off)")
		poll        = fs.Duration("poll", 2*time.Second, "idle wait between lease attempts when nothing is leasable")
		metricsAddr = fs.String("metrics", "", "address to serve GET /metrics (obm_work_* + obm_grid_* series) and /healthz on (empty = off)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: experiments worker -coordinator URL [flags]\n\n"+
			"Runs a fleet worker against an `experiments serve` coordinator: it\n"+
			"leases shards of submitted grids (POST /api/v1/jobs/{id}/lease),\n"+
			"executes each as a local sharded run store, heartbeats to keep the\n"+
			"lease alive, and uploads the shard's jobs.log on completion.\n\n"+
			"Workers are disposable: a killed worker's lease expires and its shard\n"+
			"is re-leased to another worker; exact-agreement checks on the\n"+
			"coordinator make duplicate executions safe, so the merged summary is\n"+
			"byte-identical to a single-process run. On SIGINT/SIGTERM the worker\n"+
			"aborts in-flight shards at a chunk boundary, uploads their partial\n"+
			"logs so the coordinator requeues the shards immediately, and keeps\n"+
			"the local stores so restarting it resumes its own partial work.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *coordinator == "" {
		fs.Usage()
		fatal(fmt.Errorf("worker: -coordinator is required"))
	}

	r, err := work.New(work.Options{
		Coordinator:     *coordinator,
		Name:            *name,
		Capacity:        *capacity,
		Dir:             *workdir,
		GridWorkers:     *gridWorkers,
		ChunkSize:       *chunk,
		Parallel:        *parallel,
		CheckpointEvery: *ckEvery,
		Poll:            *poll,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", r.Registry().Handler())
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "worker: metrics on http://%s/metrics\n", ln.Addr())
		go http.Serve(ln, mux)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	completed, err := r.Run(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "worker: stopped (%d shards completed)\n", completed)
}
