// Command obmbench is the repository benchmark. It drives the three ways
// the system serves the paper's online b-matching — the live engine over
// a loopback socket, the experiment service's grid, and the leased worker
// fleet — through their public Go APIs on fixed-work workloads, checks
// every output against an offline replay, and prints the end-to-end
// metrics or, with --trace 1, the per-layer ledger. The last line of
// standard output is a JSON summary. See README.md in this directory.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"obm/internal/sim"
)

// path is one way the system serves work, prepared with its inputs.
type path interface {
	// rep sets the system up fresh, runs the fixed work once and checks
	// every output; with rc.tr set it also derives per-layer metrics.
	rep(rc *repCtx) (repResult, error)
	// stages replays the latest traced repetition's inputs and artifacts
	// through single layers, adding their metrics to layers.
	stages(tr *tracer, layers map[string]float64) error
}

// workload is a native path — the one its end-to-end metrics measure —
// plus probes: the other paths driven once with the same inputs in the
// traced run, so every layer of the ledger is measured on every workload.
type workload struct {
	name  string
	build func(seed uint64) (native path, probes []func() (path, error), err error)
}

// The paper's request counts per trace family (internal/figures).
var paperFamilies = []struct {
	family   string
	racks    int
	requests int
	bs       []int
}{
	// Largest jobs first, so the makespan tail on two workers is short.
	{"microsoft", 50, 1750000, []int{3, 6, 9}},
	{"facebook-webservice", 100, 400000, []int{6, 12, 18}},
	{"facebook-database", 100, 350000, []int{6, 12, 18}},
	{"facebook-hadoop", 100, 185000, []int{6, 12, 18}},
}

// familySpecs builds one scenario per paper family at 1/div of paper size.
func familySpecs(seed uint64, div, reps int) []sim.ScenarioSpec {
	specs := make([]sim.ScenarioSpec, len(paperFamilies))
	for i, f := range paperFamilies {
		specs[i] = sim.ScenarioSpec{
			Name: f.family, Family: f.family, Racks: f.racks,
			Requests: f.requests / div, Seed: seed, Bs: f.bs, Reps: reps,
		}
	}
	return specs
}

const (
	ingestRequests = 4000000
	ratioB         = 18
	fleetDiv       = 100
	fleetReps      = 4
)

var workloads = []workload{
	// The engine's line-rate path: one session fed 1024-request batches
	// 8 deep over loopback TCP, split between decode and the R-BMA fold.
	{
		name: "ingest-bulk",
		build: func(seed uint64) (path, []func() (path, error), error) {
			spec := sim.ScenarioSpec{
				Name: "ingest", Family: "facebook-database", Racks: 100,
				Requests: ingestRequests, Seed: seed, Bs: []int{ratioB},
			}
			native, err := newEnginePath(spec, ratioB, seed)
			var in *gridInputs
			grid := func() (*gridInputs, error) {
				var err error
				if in == nil {
					in, err = newGridInputs([]sim.ScenarioSpec{spec}, spec.Name, ratioB)
				}
				return in, err
			}
			return native, []func() (path, error){
				func() (path, error) {
					in, err := grid()
					if err != nil {
						return nil, err
					}
					return &gridPath{in: in}, nil
				},
				func() (path, error) {
					in, err := grid()
					if err != nil {
						return nil, err
					}
					return &fleetPath{in: in, shardSize: 1}, nil
				},
			}, err
		},
	},
	// The paper's evaluation grid at paper request counts on a 2-worker
	// service: few big jobs, so trace generation and decisions dominate.
	{
		name: "grid-paper",
		build: func(seed uint64) (path, []func() (path, error), error) {
			specs := familySpecs(seed, 1, 1)
			in, err := newGridInputs(specs, "facebook-database", ratioB)
			if err != nil {
				return nil, nil, err
			}
			return &gridPath{in: in}, []func() (path, error){
				func() (path, error) { return newEnginePath(specs[2], ratioB, 0) },
				func() (path, error) { return &fleetPath{in: in, shardSize: 4}, nil },
			}, nil
		},
	},
	// The four families at 1/100 of paper size, 4 repetitions, 4 jobs per
	// shard, drained by one leasing worker: many tiny jobs, so shard
	// coordination dominates.
	{
		name: "fleet-drain",
		build: func(seed uint64) (path, []func() (path, error), error) {
			specs := familySpecs(seed, fleetDiv, fleetReps)
			in, err := newGridInputs(specs, "facebook-database", ratioB)
			if err != nil {
				return nil, nil, err
			}
			return &fleetPath{in: in, shardSize: 4}, []func() (path, error){
				func() (path, error) { return newEnginePath(specs[2], ratioB, 0) },
				func() (path, error) { return &gridPath{in: in}, nil },
			}, nil
		},
	},
}

// metricDef names one reported metric.
type metricDef struct {
	name, unit, note string
}

var endToEndMetrics = []metricDef{
	{"mreq_s", "Mreq/s", "requests served or replayed per second of the timed phase"},
	{"setup_s", "s", "first call into the system until it takes work"},
	{"peak_heap_mb", "MB", "peak live Go heap above the pre-set-up baseline"},
	{"rbma_vs_oblivious", "ratio", "R-BMA routing cost / oblivious routing cost"},
	{"batch_rtt_p50_us", "us", "round trip of one submitted batch, median"},
	{"batch_rtt_p99_us", "us", "round trip of one submitted batch, 99th percentile"},
}

var perLayerMetrics = []metricDef{
	{"engine.loopback_ns_per_req", "ns", "mreq_s on ingest-bulk"},
	{"engine.session_ns_per_req", "ns", "mreq_s, batch_rtt_p50_us on ingest-bulk"},
	{"core.fold_ns_per_req", "ns", "mreq_s on ingest-bulk and grid-paper"},
	{"engine.decode_ns_per_req", "ns", "mreq_s on ingest-bulk"},
	{"engine.wire_ns_per_req", "ns", "batch_rtt_p50_us on ingest-bulk"},
	{"engine.batch_serve_p50_us", "us", "batch_rtt_p50_us on ingest-bulk"},
	{"engine.batch_serve_p99_us", "us", "batch_rtt_p99_us on ingest-bulk"},
	{"engine.client_wait_frac", "ratio", "high: the engine limits mreq_s; low: the harness does"},
	{"engine.alloc_b_per_req", "B", "peak_heap_mb, mreq_s on ingest-bulk"},
	{"engine.gc_cycles", "count", "peak_heap_mb, mreq_s on ingest-bulk"},
	{"core.reconfigs_per_kreq", "1/kreq", "a count: moves only with decisions, and then rbma_vs_oblivious too"},
	{"trace.source_ns_per_req", "ns", "mreq_s on grid-paper"},
	{"sim.decide_ns_per_req", "ns", "mreq_s on grid-paper"},
	{"sim.other_frac", "ratio", "mreq_s on grid-paper"},
	{"sim.plan_ms", "ms", "setup_s on grid-paper and fleet-drain, mreq_s on fleet-drain"},
	{"serve.submit_ms", "ms", "setup_s on grid-paper and fleet-drain"},
	{"report.open_ms", "ms", "mreq_s on fleet-drain"},
	{"report.append_us", "us", "mreq_s on fleet-drain"},
	{"report.render_ms", "ms", "mreq_s on grid-paper"},
	{"serve.lease_ms_p50", "ms", "mreq_s on fleet-drain"},
	{"serve.lease_ms_p99", "ms", "mreq_s on fleet-drain"},
	{"serve.complete_ms_p50", "ms", "mreq_s on fleet-drain"},
	{"serve.complete_ms_p99", "ms", "mreq_s on fleet-drain"},
	{"serve.jobs_list_ms_p50", "ms", "mreq_s on fleet-drain"},
	{"work.shard_ms_p50", "ms", "mreq_s on fleet-drain"},
	{"work.coord_frac", "ratio", "mreq_s on fleet-drain"},
	{"work.idle_frac", "ratio", "mreq_s on fleet-drain"},
	{"snap.checkpoint_save_us_p50", "us", "mreq_s on fleet-drain"},
	{"snap.checkpoints", "count", "mreq_s on fleet-drain"},
	{"serve.shards", "count", "a count"},
	{"serve.http_calls", "count", "a count"},
	{"serve.lease_attempts_max", "count", "a count: above 1 means a shard was requeued"},
	{"harness.traced_vs_untraced", "ratio", "tracing overhead: traced mreq_s / untraced median"},
	{"harness.calibration_us", "us", "nothing: the machine's speed during the run, which every time above moves with"},
}

// provenance identifies a result: seed, machine and code, and how fast
// the machine ran during the run (the median calibration time, in µs), so
// that runs in a slow phase of a shared machine can be told apart.
type provenance struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Machine  string  `json:"machine"`
	Commit   string  `json:"commit"`
	Source   string  `json:"source_sha256"`
	CalibUS  float64 `json:"calibration_us"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fset := flag.NewFlagSet("obmbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload: ingest-bulk, grid-paper or fleet-drain")
	seed := fset.Uint64("seed", 1, "seed of every generated input")
	seconds := fset.Int("seconds", 10, "how long to keep repeating the workload's fixed work")
	traced := fset.Int("trace", 0, "1 prints the per-layer ledger of a traced run instead of the end-to-end metrics")
	spans := fset.String("spans", "", "span dump of --trace 1 (default .bench_build/spans/<workload>-seed<n>.jsonl)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "obmbench: need --workload ingest-bulk|grid-paper|fleet-drain, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "obmbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "obmbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	b := bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, scratch: scratch, out: stdout, t0: time.Now()}
	b.prov = provenance{Workload: w.name, Seed: *seed, Machine: machine()}
	b.prov.Commit, b.prov.Source = commit()
	var res result
	if *traced == 1 {
		res, err = b.traced(*spans)
	} else {
		res, err = b.endToEnd()
	}
	b.prov.CalibUS = b.calibMedian()
	blob, _ := json.Marshal(b.prov)
	fmt.Fprintf(stdout, "provenance %s\n", blob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obmbench: %s: %v\n", w.name, err)
		res.Correct = false
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if err != nil {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary printed as the last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type bench struct {
	w       *workload
	seed    uint64
	seconds time.Duration
	scratch string
	out     io.Writer
	t0      time.Time
	nrep    int
	calib   []float64 // calibration times (µs) around the repetitions
	prov    provenance
}

// rep runs one repetition in a fresh scratch directory, removed unless
// keep is set (a traced repetition whose artifacts the stages replay).
func (b *bench) rep(p path, tr *tracer, keep bool) (repResult, string, error) {
	b.nrep++
	dir, err := newRepDir(b.scratch, b.nrep)
	if err != nil {
		return repResult{}, "", err
	}
	r, err := p.rep(&repCtx{tr: tr, dir: dir})
	if !keep {
		os.RemoveAll(dir)
	}
	return r, dir, err
}

// repeat runs one untimed warm-up repetition, then repeats the fixed work
// until the measuring time is up (at least minReps times), calibrating
// before the first and after every one. Every repetition's outputs are
// checked, and rbma_vs_oblivious must agree bit for bit across them.
func (b *bench) repeat(p path, minReps int, each func() error) error {
	if _, _, err := b.rep(p, nil, false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	b.calib = append(b.calib, calibrate())
	deadline := time.Now().Add(b.seconds)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		if err := each(); err != nil {
			return err
		}
		b.calib = append(b.calib, calibrate())
	}
	return nil
}

// calibMedian is the run's median calibration time in µs (0 before the
// first calibration).
func (b *bench) calibMedian() float64 {
	if len(b.calib) == 0 {
		return 0
	}
	return median(append([]float64(nil), b.calib...))
}

// slowdown is how much slower than the reference machine the run's
// workload ran, judged by its median calibration (see calibExp).
func (b *bench) slowdown() float64 {
	return math.Pow(b.calibMedian()/calibRefUS, calibExp)
}

func sameRatio(reps []repResult) error {
	for _, r := range reps[1:] {
		if math.Float64bits(r.ratio) != math.Float64bits(reps[0].ratio) {
			return fmt.Errorf("rbma_vs_oblivious differs between repetitions: %v vs %v", r.ratio, reps[0].ratio)
		}
	}
	return nil
}

func (b *bench) endToEnd() (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	p, _, err := b.w.build(b.seed)
	if err != nil {
		return res, err
	}
	var reps []repResult
	err = b.repeat(p, 5, func() error {
		r, _, err := b.rep(p, nil, false)
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err != nil {
			return err
		}
		reps = append(reps, r)
		return nil
	})
	if err == nil {
		err = sameRatio(reps)
	}
	if err != nil {
		return res, err
	}
	// The run reports the interquartile mean of the repetitions' values.
	// Each repetition takes its own round-trip quantiles, so one stalled
	// repetition cannot move the tail. A grid-paper repetition is a single
	// round trip, the whole grid, so both its quantiles are that
	// repetition's wall time. Timed values are scaled to the reference
	// machine; the table also gives them as measured.
	type metric struct {
		per func(repResult) float64
		// how the value moves with the machine's speed: 1 for a rate, -1
		// for a time, 0 when it does not
		speedExp float64
	}
	rtt := func(q float64) func(repResult) float64 {
		return func(r repResult) float64 { return quantile(durationsUS(r.rtts), q) }
	}
	defs := map[string]metric{
		"mreq_s":            {per: repResult.mreqs, speedExp: 1},
		"setup_s":           {per: func(r repResult) float64 { return r.setup.Seconds() }, speedExp: -1},
		"peak_heap_mb":      {per: func(r repResult) float64 { return float64(r.peakHeap) / 1e6 }},
		"rbma_vs_oblivious": {per: func(r repResult) float64 { return r.ratio }},
		"batch_rtt_p50_us":  {per: rtt(0.5), speedExp: -1},
		"batch_rtt_p99_us":  {per: rtt(0.99), speedExp: -1},
	}
	fmt.Fprintf(b.out, "%s: %d repetitions of %d requests after 1 warm-up; %d batch round trips per repetition; calibration %.0f us (reference %.0f)\n",
		b.w.name, len(reps), reps[0].requests, len(reps[0].rtts), b.calibMedian(), calibRefUS)
	fmt.Fprintf(b.out, "  %-20s %14s %-7s %14s\n", "metric", "reported", "unit", "as measured")
	slow := b.slowdown()
	for _, m := range endToEndMetrics {
		d := defs[m.name]
		measured := iqm(each(reps, d.per))
		if m.name == "rbma_vs_oblivious" {
			measured = reps[0].ratio // the same bits in every repetition
		}
		v := measured * math.Pow(slow, d.speedExp)
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(b.out, "  %-20s %14.6g %-7s %14.6g  %s\n", m.name, v, m.unit, measured, m.note)
	}
	res.Correct = true
	return res, nil
}

// traced alternates untraced and traced repetitions of the native path,
// then runs the stage replays and the probes, and prints the ledger.
func (b *bench) traced(spansPath string) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	native, probes, err := b.w.build(b.seed)
	if err != nil {
		return res, err
	}
	var plain, traced []repResult
	var tr *tracer
	keptDir := ""
	err = b.repeat(native, 3, func() error {
		r, _, err := b.rep(native, nil, false)
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err != nil {
			return err
		}
		plain = append(plain, r)
		t := newTracer(b.t0)
		r, dir, err := b.rep(native, t, true)
		res.Attempted += r.attempted
		res.Failed += r.failed
		if keptDir != "" {
			os.RemoveAll(keptDir)
		}
		keptDir = dir
		if err != nil {
			return err
		}
		traced = append(traced, r)
		tr = t
		return nil
	})
	if err == nil {
		err = sameRatio(append(plain, traced...))
	}
	if err != nil {
		return res, err
	}
	layers := map[string]float64{}
	for k := range traced[0].layers {
		layers[k] = median(each(traced, func(r repResult) float64 { return r.layers[k] }))
	}
	layers["harness.traced_vs_untraced"] = median(each(traced, repResult.mreqs)) / median(each(plain, repResult.mreqs))
	layers["harness.calibration_us"] = b.calibMedian()
	if err := native.stages(tr, layers); err != nil {
		return res, fmt.Errorf("stages: %w", err)
	}
	for i, mk := range probes {
		p, err := mk()
		if err != nil {
			return res, fmt.Errorf("probe %d: %w", i, err)
		}
		r, _, err := b.rep(p, tr, true)
		res.Attempted += r.attempted
		res.Failed += r.failed
		if err != nil {
			return res, fmt.Errorf("probe %d: %w", i, err)
		}
		probe := r.layers
		if err := p.stages(tr, probe); err != nil {
			return res, fmt.Errorf("probe %d stages: %w", i, err)
		}
		for k, v := range probe {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
	}

	fmt.Fprintf(b.out, "%s traced: %d untraced and %d traced repetitions; tracing overhead %+.2f%% of mreq_s\n",
		b.w.name, len(plain), len(traced), (layers["harness.traced_vs_untraced"]-1)*100)
	tr.writeTable(b.out)
	for _, m := range perLayerMetrics {
		v, ok := layers[m.name]
		if !ok || math.IsNaN(v) {
			return res, fmt.Errorf("ledger is missing %s", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Fprintf(b.out, "  %-30s %14.6g %-7s moves %s\n", m.name, v, m.unit, m.note)
	}
	fold, sess, loop := layers["core.fold_ns_per_req"], layers["engine.session_ns_per_req"], layers["engine.loopback_ns_per_req"]
	fmt.Fprintf(b.out, "engine stages: fold %.2f <= session %.2f <= loopback %.2f ns/req: %v\n",
		fold, sess, loop, fold <= sess && sess <= loop)
	b.prov.CalibUS = b.calibMedian()
	if err := tr.dump(spansPath, b.prov); err != nil {
		return res, err
	}
	fmt.Fprintf(b.out, "spans written to %s\n", spansPath)
	res.Correct = true
	return res, nil
}

// machine describes the CPU model, the processor count and the Go
// toolchain.
func machine() string {
	model := runtime.GOARCH
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("%s; nproc %d; %s %s/%s", model, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// commit returns the VCS revision stamped into the binary ("unknown" when
// built outside a repository) and a SHA-256 over the repository's Go
// sources, which identifies the code either way.
func commit() (string, string) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+modified"
			}
		}
	}
	var files []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(blob))
		h.Write(blob)
	}
	return rev, hex.EncodeToString(h.Sum(nil))
}
