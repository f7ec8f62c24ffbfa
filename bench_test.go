package obm

// Benchmark harness: one benchmark per sub-figure of the paper's evaluation
// (Figures 1–4, each a/b/c) plus ablation benchmarks for the reproduction's
// design choices (cache policy, lazy vs eager removal, α, predictions; see
// README.md). Figure benchmarks replay a scaled-down workload per iteration
// and report the quantities the paper plots as custom metrics:
//
//	routing_cost   cumulative routing cost of R-BMA at the best b
//	vs_oblivious   R-BMA routing cost / oblivious routing cost (a-figures)
//	vs_bma         R-BMA routing cost / BMA routing cost
//	rbma_ms, bma_ms  decision-loop wall time (b-figures)
//
// Full-scale runs (paper request counts, 5 repetitions) are produced by
// cmd/experiments; these benchmarks use scale=0.02 so the whole suite runs
// in minutes while preserving the figures' qualitative shapes.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"obm/internal/core"
	"obm/internal/engine"
	"obm/internal/figures"
	"obm/internal/flow"
	"obm/internal/graph"
	"obm/internal/matching"
	"obm/internal/paging"
	"obm/internal/report"
	"obm/internal/serve"
	"obm/internal/sim"
	"obm/internal/stats"
	"obm/internal/trace"
)

const benchScale = 0.02

// runFigure executes one sub-figure experiment and reports its headline
// metrics.
func runFigure(b *testing.B, id string) {
	b.Helper()
	fig, err := figures.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg, specs, err := fig.Build(benchScale, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *sim.Result
	for i := 0; i < b.N; i++ {
		res, err = sim.RunExperiment(cfg, specs, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	finals := res.FinalRouting()
	if strings.HasPrefix(id, "ext-") {
		// An extension compares its own line-up: report every entry.
		for key, routing := range finals {
			b.ReportMetric(routing, key+"_routing")
		}
		return
	}
	bestB := cfg.Bs[len(cfg.Bs)-1]
	rb := finals[fmt.Sprintf("r-bma(b=%d)", bestB)]
	b.ReportMetric(rb, "routing_cost")
	if obl, ok := finals["oblivious(b=0)"]; ok && obl > 0 {
		b.ReportMetric(rb/obl, "vs_oblivious")
	}
	if bm, ok := finals[fmt.Sprintf("bma(b=%d)", bestB)]; ok && bm > 0 {
		b.ReportMetric(rb/bm, "vs_bma")
	}
	if so, ok := finals[fmt.Sprintf("so-bma(b=%d)", bestB)]; ok && so > 0 {
		b.ReportMetric(rb/so, "vs_sobma")
	}
	if fig.Metric == figures.ExecutionTime {
		for _, c := range res.Curves {
			if c.B != bestB {
				continue
			}
			ms := float64(c.Avg.Elapsed) / float64(time.Millisecond)
			switch c.Alg {
			case "r-bma":
				b.ReportMetric(ms, "rbma_ms")
			case "bma":
				b.ReportMetric(ms, "bma_ms")
			}
		}
	}
}

func BenchmarkFig1a(b *testing.B) { runFigure(b, "fig1a") }
func BenchmarkFig1b(b *testing.B) { runFigure(b, "fig1b") }
func BenchmarkFig1c(b *testing.B) { runFigure(b, "fig1c") }
func BenchmarkFig2a(b *testing.B) { runFigure(b, "fig2a") }
func BenchmarkFig2b(b *testing.B) { runFigure(b, "fig2b") }
func BenchmarkFig2c(b *testing.B) { runFigure(b, "fig2c") }
func BenchmarkFig3a(b *testing.B) { runFigure(b, "fig3a") }
func BenchmarkFig3b(b *testing.B) { runFigure(b, "fig3b") }
func BenchmarkFig3c(b *testing.B) { runFigure(b, "fig3c") }
func BenchmarkFig4a(b *testing.B) { runFigure(b, "fig4a") }
func BenchmarkFig4b(b *testing.B) { runFigure(b, "fig4b") }
func BenchmarkFig4c(b *testing.B) { runFigure(b, "fig4c") }

// --- Execution-time micro-benchmarks (the substance of sub-figures b) ---

func benchServe(b *testing.B, mk func() core.Algorithm, tr *trace.Trace) {
	b.Helper()
	alg := mk()
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		req := tr.Reqs[i]
		alg.Serve(int(req.Src), int(req.Dst))
		i++
		if i == tr.Len() {
			i = 0
			b.StopTimer()
			alg = mk() // avoid steady-state artifacts when wrapping
			b.StartTimer()
		}
	}
}

func serveWorkload(racks int) (*trace.Trace, core.CostModel) {
	top := graph.FatTreeRacks(racks)
	model := core.CostModel{Metric: top.Metric(), Alpha: figures.DefaultAlpha}
	p := trace.FacebookPreset(trace.Database, racks, 3)
	p.Requests = 200000
	tr, err := trace.FacebookStyle(p)
	if err != nil {
		panic(err)
	}
	return tr, model
}

func BenchmarkServeRBMA(b *testing.B) {
	tr, model := serveWorkload(100)
	for _, bb := range []int{6, 12, 18} {
		b.Run(fmt.Sprintf("b=%d", bb), func(b *testing.B) {
			benchServe(b, func() core.Algorithm {
				alg, _ := core.NewRBMA(100, bb, model, 1)
				return alg
			}, tr)
		})
	}
}

func BenchmarkServeBMA(b *testing.B) {
	tr, model := serveWorkload(100)
	for _, bb := range []int{6, 12, 18} {
		b.Run(fmt.Sprintf("b=%d", bb), func(b *testing.B) {
			benchServe(b, func() core.Algorithm {
				alg, _ := core.NewBMA(100, bb, model)
				return alg
			}, tr)
		})
	}
}

// BenchmarkGridGroups runs the paper's evaluation grid — the four trace
// families, each replayed by R-BMA, BMA and oblivious routing over its b
// sweep — at 1/20 of the paper's request counts, as the experiment
// service's local worker runs a two-shard job: its two contiguous,
// work-balanced shards in turn (six of microsoft's seven jobs, then the
// other 22), sharing one sim.Workloads, each on `workers` grid workers. A
// shard runs each scenario's jobs in it as one group that generates the
// scenario's trace once.
func BenchmarkGridGroups(b *testing.B) {
	const div = 20
	specs := []sim.ScenarioSpec{
		{Name: "microsoft", Family: "microsoft", Racks: 50, Requests: 1750000 / div, Seed: 1, Bs: []int{3, 6, 9}},
		{Name: "facebook-webservice", Family: "facebook-webservice", Racks: 100, Requests: 400000 / div, Seed: 1, Bs: []int{6, 12, 18}},
		{Name: "facebook-database", Family: "facebook-database", Racks: 100, Requests: 350000 / div, Seed: 1, Bs: []int{6, 12, 18}},
		{Name: "facebook-hadoop", Family: "facebook-hadoop", Racks: 100, Requests: 185000 / div, Seed: 1, Bs: []int{6, 12, 18}},
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := sim.NewWorkloads(specs)
				for shard := 0; shard < 2; shard++ {
					opt := sim.GridOptions{Workers: workers, Shard: shard, Shards: 2, Workloads: w}
					if _, err := sim.RunGrid(specs, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkShardHandIn runs one fleet-sized shard through the shard
// executor, serve.RunShard, as a fleet worker does: four 5,000-request
// jobs at 100 racks, 20,000 requests in all (fleet-drain's shards hold
// 17,500–35,000), on one grid worker with a checkpoint every 4,096
// requests, so each job saves one. Its hand-in does the coordinator's
// side of an upload: it absorbs the shard's job-log image into the job's
// full-grid store and fsyncs that. The lease TTL is a minute, so the
// shard store stays in memory and an op writes only the coordinator's
// store; the fsync still makes an op read the disk of the machine it
// runs on as much as its CPU, which is why scripts/bench.sh leaves it
// out of the gated set.
func BenchmarkShardHandIn(b *testing.B) {
	specs := []sim.ScenarioSpec{{
		Name: "facebook-database", Family: "facebook-database", Racks: 100,
		Requests: 5000, Seed: 1, Bs: []int{6, 12}, Algs: []string{"r-bma", "bma"},
	}}
	m, err := report.NewManifest("bench", specs, 10, report.Shard{})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := m.Plan()
	if err != nil {
		b.Fatal(err)
	}
	lease := serve.Lease{
		JobID: m.SpecHash, Shards: 1, Jobs: len(plan.Jobs), TTLMS: 60000,
		Name: m.Name, CurvePoints: m.CurvePoints, Specs: m.Specs,
	}
	root := b.TempDir()
	grid := sim.GridOptions{Workers: 1, CheckpointEvery: 4096, Workloads: sim.NewWorkloads(specs)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		coord, err := report.Create(filepath.Join(root, fmt.Sprint(i)), m)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res := serve.RunShard(context.Background(), serve.ShardRun{
			Lease:     lease,
			Dir:       filepath.Join(root, "shard"),
			Grid:      grid,
			Heartbeat: func(context.Context, int) error { return nil },
			Complete: func(_ context.Context, log []byte, _ string) error {
				if _, err := coord.Absorb(bytes.NewReader(log)); err != nil {
					return err
				}
				return coord.Sync()
			},
			Logf: b.Logf,
		})
		if res.Outcome != serve.ShardCompleted || res.CompleteErr != nil {
			b.Fatalf("shard: outcome %d, run error %v, hand-in error %v", res.Outcome, res.RunErr, res.CompleteErr)
		}
		b.StopTimer()
		if coord.Len() != lease.Jobs {
			b.Fatalf("coordinator store holds %d jobs, want %d", coord.Len(), lease.Jobs)
		}
		coord.Close()
		os.RemoveAll(coord.Dir())
		b.StartTimer()
	}
}

// BenchmarkEngineIngest measures the live matching engine end to end: a
// pipelined client streams batches over a real TCP loopback socket into
// an r-bma session, and every batch is answered with a cumulative-cost
// result frame. One op is one request. The PR 7 acceptance floor is
// ≥ 1 Mreq/s at 0 allocs/op — both ends reuse every buffer, so once the
// connection is warm neither client, connection handler nor session
// allocates (allocs/op counts the whole process, server goroutines
// included).
func BenchmarkEngineIngest(b *testing.B) {
	const (
		racks = 64
		batch = 1024
	)
	e := engine.New(engine.Options{})
	defer e.Close()
	if _, err := e.CreateSession(engine.SessionConfig{ID: "bench", Racks: racks, B: 8}); err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go e.ServeIngest(ln)
	c, _, err := engine.DialIngest(ln.Addr().String(), "bench", 8)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	st, err := trace.NewUniformStream(racks, 1<<16, 7)
	if err != nil {
		b.Fatal(err)
	}
	reqs := trace.Collect(st).Reqs
	nb := len(reqs) / batch
	// Warm-up pass: grows the client frame buffer, the connection's read
	// buffer and the session's scratch to steady state.
	for i := 0; i < nb; i++ {
		if _, err := c.Send(reqs[i*batch : (i+1)*batch]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Drain(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	idx := 0
	for sent := 0; sent < b.N; {
		n := batch
		if rem := b.N - sent; rem < n {
			n = rem
		}
		if _, err := c.Send(reqs[idx*batch : idx*batch+n]); err != nil {
			b.Fatal(err)
		}
		sent += n
		if idx++; idx == nb {
			idx = 0
		}
	}
	if _, err := c.Drain(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "mreq_per_s")
}

// --- Ablation benchmarks (the reproduction's design choices) ---

// BenchmarkAblationCachePolicy swaps the paging algorithm inside R-BMA:
// randomized marking (the paper's choice) vs LRU, FIFO and random
// eviction — the ext-policy figure.
func BenchmarkAblationCachePolicy(b *testing.B) { runFigure(b, "ext-policy") }

// BenchmarkAblationLazyVsEager compares the paper's lazy pruning
// (footnote 2) against eager removal — the ext-lazy figure.
func BenchmarkAblationLazyVsEager(b *testing.B) { runFigure(b, "ext-lazy") }

// BenchmarkAblationAlpha sweeps the reconfiguration cost R-BMA decides
// under (unstated in the paper; this reproduction defaults to 30, see
// figures.DefaultAlpha) — the ext-alpha figure.
func BenchmarkAblationAlpha(b *testing.B) { runFigure(b, "ext-alpha") }

// BenchmarkAblationBaselines lines up R-BMA against the wider baseline
// family: BMA, greedy-no-evict, rotor, oblivious.
func BenchmarkAblationBaselines(b *testing.B) {
	tr, model := serveWorkload(50)
	tr = tr.Prefix(50000)
	mk := map[string]func(i int) (core.Algorithm, error){
		"r-bma":     func(i int) (core.Algorithm, error) { return core.NewRBMA(50, 6, model, uint64(i)) },
		"bma":       func(i int) (core.Algorithm, error) { return core.NewBMA(50, 6, model) },
		"noevict":   func(i int) (core.Algorithm, error) { return core.NewGreedyNoEvict(50, 6, model) },
		"rotor":     func(i int) (core.Algorithm, error) { return core.NewRotor(50, 6, model, 100) },
		"oblivious": func(i int) (core.Algorithm, error) { return core.NewOblivious(model) },
	}
	for name, f := range mk {
		b.Run(name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				alg, err := f(i)
				if err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, req := range tr.Reqs {
					total += alg.Serve(int(req.Src), int(req.Dst)).Total(model.Alpha)
				}
			}
			b.ReportMetric(total, "total_cost")
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkBlossomMWM(b *testing.B) {
	for _, n := range []int{20, 50, 100} {
		r := stats.NewRand(uint64(n))
		var edges []matching.WeightedEdge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Bool(0.3) {
					edges = append(edges, matching.WeightedEdge{U: u, V: v, W: float64(1 + r.Intn(1000))})
				}
			}
		}
		b.Run(fmt.Sprintf("n=%d/m=%d", n, len(edges)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matching.MaxWeightMatching(n, edges, false)
			}
		})
	}
}

func BenchmarkPagingAccess(b *testing.B) {
	r := stats.NewRand(5)
	seq := make([]uint64, 1<<16)
	for i := range seq {
		seq[i] = uint64(r.Intn(64))
	}
	factories := map[string]paging.Factory{
		"marking": paging.NewMarkingFactory,
		"lru":     paging.NewLRUFactory,
		"fifo":    paging.NewFIFOFactory,
	}
	for name, f := range factories {
		b.Run(name, func(b *testing.B) {
			c := f(16, 1)
			for i := 0; i < b.N; i++ {
				c.Access(seq[i&(1<<16-1)])
			}
		})
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	p := trace.FacebookPreset(trace.Database, 100, 1)
	p.Requests = 100000
	b.Run("facebook-100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := trace.FacebookStyle(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("microsoft-100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trace.MicrosoftStyle(50, 100000, uint64(i))
		}
	})
}

func BenchmarkFlowSimulation(b *testing.B) {
	top := graph.FatTreeRacks(32)
	model := core.CostModel{Metric: top.Metric(), Alpha: figures.DefaultAlpha}
	p := trace.FacebookPreset(trace.Database, 32, 11)
	p.Requests = 40000
	tr, _ := trace.FacebookStyle(p)
	cfg := flow.Config{
		LinkCapacity: 100, OpticalCapacity: 400,
		MeanFlowSize: 50, ArrivalRate: 4, Seed: 1,
	}
	b.Run("oblivious", func(b *testing.B) {
		var mean float64
		for i := 0; i < b.N; i++ {
			res, err := flow.SimulateOblivious(top, tr, cfg)
			if err != nil {
				b.Fatal(err)
			}
			mean = res.MeanFCT
		}
		b.ReportMetric(mean, "mean_fct")
	})
	b.Run("r-bma", func(b *testing.B) {
		var mean float64
		for i := 0; i < b.N; i++ {
			alg, _ := core.NewRBMA(32, 4, model, uint64(i))
			res, err := flow.SimulateWithAlgorithm(top, tr, cfg, alg)
			if err != nil {
				b.Fatal(err)
			}
			mean = res.MeanFCT
		}
		b.ReportMetric(mean, "mean_fct")
	})
}

// BenchmarkMetricConstruction times the paper's fat-tree metric two ways:
// the BFS over a prebuilt graph (Topology.Metric, the generic path) and
// the closed form every cost model uses (graph.FatTreeMetric).
func BenchmarkMetricConstruction(b *testing.B) {
	for _, racks := range []int{50, 100} {
		b.Run(fmt.Sprintf("racks=%d", racks), func(b *testing.B) {
			top := graph.FatTreeRacks(racks)
			for i := 0; i < b.N; i++ {
				top.Metric()
			}
		})
		b.Run(fmt.Sprintf("closed-form/racks=%d", racks), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.FatTreeMetric(racks)
			}
		})
	}
}

// BenchmarkScenarioValidate times ScenarioSpec.Validate, which runs at
// every job submission and twice per leased fleet shard, for each paper
// trace family at the paper's rack count. It constructs the family's
// stream, which builds no table sized by the rack pairs.
func BenchmarkScenarioValidate(b *testing.B) {
	for _, f := range []struct {
		family string
		racks  int
	}{
		{"facebook-database", 100},
		{"facebook-webservice", 100},
		{"facebook-hadoop", 100},
		{"microsoft", 50},
	} {
		spec := sim.ScenarioSpec{Name: f.family, Family: f.family, Racks: f.racks, Requests: 100000, Seed: 1, Bs: []int{6, 12, 18}}
		b.Run(f.family, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := spec.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScenarioSource times one grid job's workload for each paper
// trace family at the fleet-drain benchmark's size (1/100 of the paper's
// requests, at the paper's rack counts): building the job's source and
// draining it through a reused chunk. fresh builds the source from the
// spec, tables included; fork takes it from a Workloads whose prototype
// is already set up, as every grid job after a scenario's first does.
// At this size the setup is a large share of a job's generation, so the
// two differ by what sharing it saves.
func BenchmarkScenarioSource(b *testing.B) {
	for _, f := range []struct {
		family   string
		racks    int
		requests int
	}{
		{"microsoft", 50, 1750000 / 100},
		{"facebook-webservice", 100, 400000 / 100},
		{"facebook-database", 100, 350000 / 100},
		{"facebook-hadoop", 100, 185000 / 100},
	} {
		spec := sim.ScenarioSpec{Name: f.family, Family: f.family, Racks: f.racks, Requests: f.requests, Seed: 1, Bs: []int{6}}
		drain := func(b *testing.B, src trace.Source, err error, chunk *trace.CompiledChunk) {
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := src.Next(chunk); err != nil {
					return
				}
			}
		}
		b.Run(f.family+"/fresh", func(b *testing.B) {
			chunk := trace.NewChunk(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				src, err := spec.NewSource()
				drain(b, src, err, chunk)
			}
		})
		b.Run(f.family+"/fork", func(b *testing.B) {
			chunk := trace.NewChunk(0)
			w := sim.NewWorkloads([]sim.ScenarioSpec{spec})
			src, err := w.Source(spec.Name)
			drain(b, src, err, chunk)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src, err := w.Source(spec.Name)
				drain(b, src, err, chunk)
			}
		})
	}
}
