// Command experiments regenerates the paper's evaluation figures
// (Figures 1–4, sub-figures a/b/c) end to end: it synthesizes the
// workloads, runs every algorithm/b combination with averaging, and emits
// tidy CSV files plus terminal summaries and ASCII charts.
//
// Usage:
//
//	experiments [-figure all|fig1a|…] [-scale 1.0] [-reps 5] [-seed 1]
//	            [-outdir results] [-chart]
//
// The full-scale run (-scale 1.0) replays up to 1.75M requests per figure;
// use -scale 0.1 for a quick pass.
//
// The grid subcommand runs named scenario specs — beyond the paper's
// figures — through the scenario-grid scheduler with streamed,
// bounded-memory trace replay. With -store the run is durable (each
// finished job appends to a run-store log), resumable (-resume skips
// completed jobs after a crash or interruption) and shardable (-shard i/n
// executes one of n disjoint job slices):
//
//	experiments grid [-list] [-scenario name,…] [-scenarios file.json]
//	                 [-scale 1.0] [-workers 0] [-outdir results] [-format csv]
//	                 [-store runs/my-grid] [-resume] [-shard i/n] [-curve-points 10]
//
// The merge subcommand folds shard (or partial) stores of the same grid
// into one full-grid store; report renders any store as Markdown plus a
// deterministic summary CSV:
//
//	experiments merge -out runs/merged runs/shard0 runs/shard1
//	experiments report -store runs/merged [-stdout]
//
// The serve subcommand runs the experiment service: an HTTP/JSON API
// that queues, deduplicates and executes submitted grids over a root of
// run stores — identical spec lists are content-addressed cache hits,
// interrupted grids resume after a restart, and per-job progress streams
// over SSE (see internal/serve):
//
//	experiments serve -addr 127.0.0.1:8080 -store-root runs/serve -workers 2
//
// The worker subcommand joins a fleet draining that service's grids: it
// leases shards (slices of a grid's job plan) from the coordinator,
// executes them locally, and uploads the shard logs; expired leases are
// requeued, so workers can be added and killed freely (see internal/work
// and docs/OPERATIONS.md):
//
//	experiments worker -coordinator http://127.0.0.1:8080 -capacity 2
//
// The engine subcommand runs the live matching engine: long-lived
// algorithm sessions served over an HTTP/JSON control plane plus a
// zero-allocation binary batch-ingest port, with cumulative costs
// bit-identical to offline replay; loadgen drives it with generated
// workload streams and (with -verify) asserts that identity end to end
// (see internal/engine):
//
//	experiments engine -addr 127.0.0.1:9090 -ingest 127.0.0.1:9091
//	experiments loadgen -family uniform -requests 1000000 -verify
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"obm/internal/figures"
	"obm/internal/sim"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "grid":
			gridMain(os.Args[2:])
			return
		case "merge":
			mergeMain(os.Args[2:])
			return
		case "report":
			reportMain(os.Args[2:])
			return
		case "serve":
			serveMain(os.Args[2:])
			return
		case "worker":
			workerMain(os.Args[2:])
			return
		case "engine":
			engineMain(os.Args[2:])
			return
		case "loadgen":
			loadgenMain(os.Args[2:])
			return
		default:
			// Anything positional that is not a known subcommand must not
			// fall through to figure mode (whose default is the full-scale
			// `-figure all` run).
			if !strings.HasPrefix(os.Args[1], "-") {
				fatal(fmt.Errorf("unknown subcommand %q (have: grid, merge, report, serve, worker, engine, loadgen; figure mode takes flags only)", os.Args[1]))
			}
		}
	}
	var (
		figureID = flag.String("figure", "all", "figure to run (fig1a…fig4c, ext-…), 'all' (paper figures), or 'extras'")
		scale    = flag.Float64("scale", 1.0, "request-count scale factor in (0,1]")
		reps     = flag.Int("reps", 5, "repetitions to average (paper: 5)")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
		outdir   = flag.String("outdir", "results", "directory for CSV output")
		chart    = flag.Bool("chart", true, "print ASCII charts")
		parallel = flag.Int("parallel", 0, "worker pool size for cost figures (0 = sequential; "+
			"execution-time figures always run sequentially for clean timings)")
	)
	flag.Parse()

	var figs []figures.Figure
	switch *figureID {
	case "all":
		figs = figures.All()
	case "extras":
		figs = figures.Extras()
	default:
		f, err := figures.ByID(*figureID)
		if err != nil {
			fatal(err)
		}
		figs = []figures.Figure{f}
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fatal(err)
	}
	for _, f := range figs {
		if err := runFigure(f, *scale, *reps, *seed, *outdir, *chart, *parallel); err != nil {
			fatal(fmt.Errorf("%s: %w", f.ID, err))
		}
	}
}

func runFigure(f figures.Figure, scale float64, reps int, seed uint64, outdir string, chart bool, parallel int) error {
	fmt.Printf("=== %s: %s ===\n", f.ID, f.Title)
	start := time.Now()
	cfg, specs, err := f.Build(scale, reps, seed)
	if err != nil {
		return err
	}
	workers := 1
	if parallel > 0 && f.Metric != figures.ExecutionTime {
		workers = parallel
	}
	res, err := sim.RunExperiment(cfg, specs, workers)
	if err != nil {
		return err
	}
	for _, row := range res.SummaryRows() {
		fmt.Println("  " + row)
	}
	if chart {
		title := "cumulative routing cost"
		if f.Metric == figures.ExecutionTime {
			// Execution time is a scalar per curve; chart routing anyway and
			// rely on the summary rows for times.
			title = "cumulative routing cost (see rows above for times)"
		}
		fmt.Println(sim.ASCIIChart(title, res.Curves, 64, 14))
	}
	if err := writeGridFile(res.WriteCSV, filepath.Join(outdir, f.ID+".csv")); err != nil {
		return err
	}
	fmt.Printf("  %s took %.1fs\n\n", f.ID, time.Since(start).Seconds())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
