package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"obm/internal/obs"
	"obm/internal/report"
	"obm/internal/sim"
)

// gridMain implements the `experiments grid` subcommand: it selects
// scenarios (registered presets, names, or a JSON file), expands the
// (scenario × algorithm × b × rep) job grid, and executes it on the worker
// pool with streamed, bounded-memory replay. With -store the run is
// durable: completed jobs append to a run-store log, -resume picks a
// crashed or partial run up where it left off, and -shard i/n executes
// only the i-th of n disjoint job slices (merged later via `experiments
// merge`).
func gridMain(args []string) {
	fs := flag.NewFlagSet("experiments grid", flag.ExitOnError)
	var (
		file      = fs.String("scenarios", "", "JSON file with a scenario list ([{...}]); empty = registered presets")
		names     = fs.String("scenario", "", "comma-separated registered scenario names (default: all presets)")
		list      = fs.Bool("list", false, "list registered scenarios, families and algorithms, then exit")
		scale     = fs.Float64("scale", 1.0, "request-count scale factor in (0,1]")
		reps      = fs.Int("reps", 0, "override repetitions per job (0 = per-spec value)")
		workers   = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		chunk     = fs.Int("chunk", 0, "streaming chunk size in requests (0 = default)")
		outdir    = fs.String("outdir", "results", "directory for grid.csv / grid.json output")
		format    = fs.String("format", "csv", "output format: csv, json, or both")
		progress  = fs.Bool("progress", true, "print per-job progress to stderr")
		storeDir  = fs.String("store", "", "run-store directory for durable execution (empty = fire-and-forget)")
		resume    = fs.Bool("resume", false, "resume an existing run store (-store), skipping completed jobs")
		shardSpec = fs.String("shard", "", "own only slice i of n disjoint job slices, as \"i/n\" (requires -store)")
		curvePts  = fs.Int("curve-points", 10, "cost-curve checkpoints recorded per job in the store (0 = final costs only)")
		parallel  = fs.Int("parallel", 1, "replay goroutines per job for multi-plane scenarios (shards > 1); results are identical for every value")
		ckEvery   = fs.Int("checkpoint-every", 0, "with -store: checkpoint in-flight jobs every N requests so -resume restarts inside them (0 = off)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU pprof profile of the grid run to this file")
		memProf   = fs.String("memprofile", "", "write a heap pprof profile (taken after the run) to this file")
		metrics   = fs.String("metrics", "", "address to serve GET /metrics (obm_grid_* series) on while the grid runs (empty = off)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "Usage: experiments grid [flags]\n\n"+
			"Runs named scenario specs through the grid scheduler with streamed,\n"+
			"bounded-memory trace replay. Scenarios come from the built-in registry\n"+
			"(-scenario name,... selects a subset) or a JSON file (-scenarios).\n\n"+
			"With -store DIR each completed job is appended to DIR/jobs.log;\n"+
			"re-invoking with -resume skips completed jobs, and -shard i/n restricts\n"+
			"this process to a disjoint slice of the grid (fold slices together with\n"+
			"`experiments merge`, render any store with `experiments report`).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		fatal(err)
	}
	if *list {
		fmt.Println("scenarios:")
		for _, s := range sim.Scenarios() {
			fmt.Printf("  %-26s family=%-18s racks=%-4d requests=%-8d bs=%v reps=%d\n",
				s.Name, s.Family, s.Racks, s.Requests, s.Bs, s.Reps)
		}
		fmt.Printf("families:   %s\n", strings.Join(sim.Families(), ", "))
		fmt.Printf("algorithms: %s\n", strings.Join(sim.Algorithms(), ", "))
		return
	}

	specs, err := selectScenarios(*file, *names)
	if err != nil {
		fatal(err)
	}
	if *scale <= 0 || *scale > 1 {
		fatal(fmt.Errorf("grid: -scale %v out of (0,1]", *scale))
	}
	for i := range specs {
		if *scale < 1 {
			// Scale down with a 1000-request floor — but never scale a
			// spec up past its own size.
			scaled := int(float64(specs[i].Requests) * *scale)
			scaled = max(scaled, min(1000, specs[i].Requests))
			specs[i].Requests = scaled
		}
		if *reps > 0 {
			specs[i].Reps = *reps
		}
	}

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	opt := sim.GridOptions{Workers: *workers, ChunkSize: *chunk, Parallel: *parallel, CheckpointEvery: *ckEvery}
	if *metrics != "" {
		reg := obs.NewRegistry()
		opt.Metrics = sim.NewMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "  grid: metrics on http://%s/metrics\n", ln.Addr())
		go http.Serve(ln, mux)
	}
	if *progress {
		opt.Progress = func(done, total int, job sim.GridJob, err error) {
			status := "ok"
			if err != nil {
				status = "FAILED"
			}
			fmt.Fprintf(os.Stderr, "  [%d/%d] %s %s\n", done, total, job, status)
		}
	}

	shard, err := parseShard(*shardSpec)
	if err != nil {
		fatal(err)
	}
	var st *report.Store
	if *storeDir != "" {
		st, err = openOrCreateStore(*storeDir, specs, *curvePts, shard, *resume)
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		opt = st.GridOptions(opt)
		if n := st.Len(); n > 0 {
			fmt.Printf("  resuming %s: %d jobs already recorded\n", *storeDir, n)
		}
		if st.Truncated() > 0 {
			fmt.Printf("  dropped %d crash-truncated record(s); the jobs will re-run\n", st.Truncated())
		}
	} else {
		if !shard.IsFull() {
			fatal(fmt.Errorf("grid: -shard requires -store (shard slices only make sense when merged from their logs)"))
		}
		if *ckEvery > 0 {
			fatal(fmt.Errorf("grid: -checkpoint-every requires -store (checkpoints live in the store's checkpoints/ directory)"))
		}
		opt.CurvePoints = 0
	}

	start := time.Now()
	res, err := sim.RunGrid(specs, opt)
	if err != nil {
		fatal(err)
	}
	if st != nil {
		if err := st.Sync(); err != nil {
			fatal(err)
		}
		missing, err := st.Missing()
		if err != nil {
			fatal(err)
		}
		if len(missing) == 0 && shard.IsFull() {
			// A complete full-grid store documents itself.
			if err := renderStore(st); err != nil {
				fatal(err)
			}
		} else if !shard.IsFull() {
			fmt.Printf("  shard %s complete: merge slices with `experiments merge -out DIR %s ...`\n",
				shard, *storeDir)
		}
	}
	for _, row := range res.SummaryRows() {
		fmt.Println("  " + row)
	}
	if err := os.MkdirAll(*outdir, 0o755); err != nil {
		fatal(err)
	}
	if *format == "csv" || *format == "both" {
		if err := writeGridFile(res.WriteCSV, filepath.Join(*outdir, "grid.csv")); err != nil {
			fatal(err)
		}
	}
	if *format == "json" || *format == "both" {
		if err := writeGridFile(res.WriteJSON, filepath.Join(*outdir, "grid.json")); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("  grid: %d rows in %.1fs\n", len(res.Rows), time.Since(start).Seconds())
}

// selectScenarios resolves the -scenarios / -scenario flags into specs.
func selectScenarios(file, names string) ([]sim.ScenarioSpec, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return sim.ReadScenarios(f)
	}
	if names == "" {
		return sim.Scenarios(), nil
	}
	var specs []sim.ScenarioSpec
	for _, name := range strings.Split(names, ",") {
		spec, err := sim.ScenarioByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	return specs, nil
}

// writeGridFile writes one result file and reports it. A failed Close is
// an error too, so a short write never reads as success.
func writeGridFile(write func(w io.Writer) error, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}
