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

	"obm/internal/serve"
)

// serveMain implements the `experiments serve` subcommand: the
// long-running experiment service. Clients POST the same ScenarioSpec
// JSON a `grid -scenarios` file holds and get back a job keyed by the
// run's spec hash; identical grids are served from the store root's
// content-addressed cache, interrupted ones resume on restart.
func serveMain(args []string) {
	fs := flag.NewFlagSet("experiments serve", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address")
		storeRoot   = fs.String("store-root", "runs/serve", "root directory holding one run store per job (the durable queue + result cache)")
		workers     = fs.Int("workers", 1, "local workers: shards leased and run by this process, like a fleet worker's (0 = coordinator-only: grids progress via fleet workers)")
		queueDepth  = fs.Int("queue", 16, "max queued jobs before submissions get 429")
		gridWorkers = fs.Int("grid-workers", 0, "sim worker pool per local shard run (0 = GOMAXPROCS)")
		chunk       = fs.Int("chunk", 0, "streaming chunk size in requests (0 = default)")
		parallel    = fs.Int("parallel", 1, "replay goroutines per multi-plane job (shards > 1); results are identical for every value")
		curvePts    = fs.Int("curve-points", 10, "cost-curve checkpoints per job (part of the job identity)")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "shard-lease TTL: a worker missing heartbeats this long is presumed dead and its shard requeued")
		shardSize   = fs.Int("shard-size", 16, "target grid jobs per leasable shard")
		leaseWAL    = fs.Bool("lease-wal", true, "journal lease state to a per-job WAL so a crashed (kill -9) coordinator restarts into its fleet's live leases instead of a requeued grid")
		drain       = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget before in-flight local shards are interrupted and handed back (they stay resumable)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: experiments serve [flags]\n\n"+
			"Runs the experiment service: an HTTP/JSON API that queues, caches and\n"+
			"executes scenario grids over the durable run-store layer.\n\n"+
			"  POST /api/v1/jobs                  submit a ScenarioSpec JSON list\n"+
			"  GET  /api/v1/jobs                  list jobs\n"+
			"  GET  /api/v1/jobs/{id}             job status\n"+
			"  GET  /api/v1/jobs/{id}/events      SSE progress stream\n"+
			"  GET  /api/v1/jobs/{id}/summary.csv rendered artifacts of done jobs\n"+
			"  GET  /api/v1/jobs/{id}/report.md\n"+
			"  GET  /api/v1/jobs/{id}/curves.json\n"+
			"  POST /api/v1/jobs/{id}/lease       fleet protocol (experiments worker)\n"+
			"  POST /api/v1/jobs/{id}/shards/{k}/heartbeat\n"+
			"  POST /api/v1/jobs/{id}/shards/{k}/complete\n"+
			"  GET  /api/v1/jobs/{id}/shards      shard/lease states\n"+
			"  GET  /metrics                      Prometheus text exposition (obm_serve_* + obm_grid_*)\n"+
			"  GET  /healthz\n\n"+
			"Identical spec lists dedupe onto one job (the run's SHA-256 spec hash);\n"+
			"a finished job is a cache hit, across restarts. Each grid is split into\n"+
			"shards of -shard-size grid jobs, leased under -lease-ttl by this\n"+
			"process's local workers (-workers) and by any `experiments worker`\n"+
			"fleet, both at once on one job if need be. On SIGINT/SIGTERM the\n"+
			"service lets local workers finish their shards, then interrupts them\n"+
			"at a chunk boundary and absorbs their partial logs — every completed\n"+
			"grid job is persisted, so a restart on the same -store-root resumes\n"+
			"mid-grid. Lease state is journaled per job (-lease-wal), so even a\n"+
			"kill -9'd coordinator restarts into its fleet's outstanding leases.\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}

	if *workers == 0 {
		*workers = -1 // flag 0 = coordinator-only; Options uses negative for it
	}
	s, err := serve.New(serve.Options{
		StoreRoot:   *storeRoot,
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		GridWorkers: *gridWorkers,
		ChunkSize:   *chunk,
		Parallel:    *parallel,
		CurvePoints: *curvePts,
		LeaseTTL:    *leaseTTL,
		ShardSize:   *shardSize,
		NoLeaseWAL:  !*leaseWAL,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	fmt.Fprintf(os.Stderr, "serve: listening on http://%s (store root %s)\n", ln.Addr(), *storeRoot)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "serve: %s — draining (budget %s)\n", sig, *drain)
	case err := <-errc:
		fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Service and HTTP shutdown run concurrently: the service closes its
	// stop channel first thing, which ends open SSE streams — otherwise a
	// single `curl -N .../events` client would hold srv.Shutdown (and the
	// whole drain budget) hostage.
	svcDone := make(chan error, 1)
	go func() { svcDone <- s.Shutdown(ctx) }()
	srv.Shutdown(ctx)
	if err := <-svcDone; err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "serve: stopped")
}
