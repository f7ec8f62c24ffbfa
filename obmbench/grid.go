package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"obm/internal/report"
	"obm/internal/serve"
	"obm/internal/sim"
)

// gridInputs is a spec list plus what a direct sim.RunGrid of it
// produced: the summary.csv every served run must reproduce byte for
// byte, and R-BMA's routing cost over oblivious routing in one cell.
type gridInputs struct {
	specs    []sim.ScenarioSpec
	jobs     int
	requests int // over every grid job
	wantCSV  []byte
	ratio    float64

	ratioScenario string
	ratioB        int
}

func newGridInputs(specs []sim.ScenarioSpec, ratioScenario string, ratioB int) (*gridInputs, error) {
	in := &gridInputs{specs: specs, ratioScenario: ratioScenario, ratioB: ratioB}
	plan, err := sim.PlanGrid(specs)
	if err != nil {
		return nil, err
	}
	size := make(map[string]int, len(specs))
	for _, s := range specs {
		size[s.Name] = s.Requests
	}
	in.jobs = len(plan.Jobs)
	for _, j := range plan.Jobs {
		in.requests += size[j.Scenario]
	}
	res, err := sim.RunGrid(specs, sim.GridOptions{Workers: gridWorkers})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.WriteSummaryCSV(&buf, res); err != nil {
		return nil, err
	}
	in.wantCSV = buf.Bytes()
	if in.ratio, err = in.cellRatio(res); err != nil {
		return nil, err
	}
	return in, nil
}

// cellRatio is R-BMA's mean routing cost over oblivious routing's in the
// ratio cell.
func (in *gridInputs) cellRatio(res *sim.GridResult) (float64, error) {
	var rbma, obl float64
	for _, row := range res.Rows {
		if row.Scenario != in.ratioScenario {
			continue
		}
		switch {
		case row.Alg == "r-bma" && row.B == in.ratioB:
			rbma = row.Routing.Mean
		case row.Alg == "oblivious":
			obl = row.Routing.Mean
		}
	}
	if rbma == 0 || obl == 0 {
		return 0, fmt.Errorf("grid result has no r-bma b=%d and oblivious rows for %s", in.ratioB, in.ratioScenario)
	}
	return rbma / obl, nil
}

// checkStore verifies a finished job store: its summary.csv must equal
// the direct run's byte for byte and its ratio must equal it bit for bit.
func (in *gridInputs) checkStore(dir string) (float64, error) {
	got, err := os.ReadFile(filepath.Join(dir, "summary.csv"))
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, in.wantCSV) {
		return 0, fmt.Errorf("summary.csv MISMATCH against a direct sim.RunGrid of the same specs:\n%s\nwant:\n%s", got, in.wantCSV)
	}
	st, err := report.Open(dir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	res, err := st.Result()
	if err != nil {
		return 0, err
	}
	ratio, err := in.cellRatio(res)
	if err != nil {
		return 0, err
	}
	if math.Float64bits(ratio) != math.Float64bits(in.ratio) {
		return 0, fmt.Errorf("rbma_vs_oblivious MISMATCH: store %v, direct run %v", ratio, in.ratio)
	}
	return ratio, nil
}

// finishedJob is a served grid job the harness watched to completion.
type finishedJob struct {
	dir  string // the job's run store
	wall time.Duration
}

// sseWatcher is the response writer the harness hands the service's own
// SSE handler: it timestamps the terminal event as the handler writes it,
// so completion is awaited without polling.
type sseWatcher struct {
	header http.Header
	final  serve.Status
	at     time.Time
}

func (w *sseWatcher) Header() http.Header { return w.header }
func (w *sseWatcher) WriteHeader(int)     {}
func (w *sseWatcher) Flush()              {}

// Write receives one whole event per call ("event: NAME\ndata: JSON\n\n").
func (w *sseWatcher) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("event: done\n")) || bytes.HasPrefix(p, []byte("event: failed\n")) {
		w.at = time.Now()
		if _, data, ok := bytes.Cut(p, []byte("data: ")); ok {
			json.Unmarshal(bytes.TrimSpace(data), &w.final)
		}
	}
	return len(p), nil
}

// awaitDone blocks until the job reaches a terminal state and returns
// when that happened.
func awaitDone(srv *serve.Server, id string) (serve.Status, time.Time, error) {
	w := &sseWatcher{header: http.Header{}}
	req := httptest.NewRequest(http.MethodGet, "/api/v1/jobs/"+id+"/events", nil)
	srv.Handler().ServeHTTP(w, req)
	if w.at.IsZero() {
		return serve.Status{}, time.Time{}, fmt.Errorf("job %.12s: event stream ended without a terminal event", id)
	}
	return w.final, w.at, nil
}

// gridPath submits the grid to an in-process experiment service running
// it on its own local worker pool.
type gridPath struct {
	in   *gridInputs
	last finishedJob // the latest traced repetition's job
}

// gridWorkers is the service's grid pool: one replay per core.
const gridWorkers = 2

func (p *gridPath) rep(rc *repCtx) (repResult, error) {
	r := repResult{attempted: p.in.jobs}
	tr := rc.tr
	root := filepath.Join(rc.dir, "store")
	rc.begin()
	defer rc.end()
	t0 := time.Now()
	setup := tr.begin("grid.setup", -1, -1)
	s := tr.begin("serve.New", setup, -1)
	srv, err := serve.New(serve.Options{StoreRoot: root, Workers: 1, GridWorkers: gridWorkers})
	tr.end(s)
	if err != nil {
		return r, err
	}
	defer shutdown(srv)
	s = tr.begin("serve.Server.Submit", setup, -1)
	st, err := srv.Submit(p.in.specs)
	tr.end(s)
	tr.end(setup)
	r.setup = time.Since(t0)
	if err != nil {
		return r, err
	}
	start := time.Now()
	run := tr.begin("grid.run", -1, -1)
	final, at, err := awaitDone(srv, st.ID)
	tr.end(run)
	r.peakHeap = rc.end()
	if err != nil {
		return r, err
	}
	r.wall = at.Sub(start)
	r.rtts = []time.Duration{r.wall}
	r.requests = p.in.requests
	if final.State != serve.StateDone {
		r.failed = final.Total - final.Done
		return r, fmt.Errorf("grid job %.12s ended %s: %s", st.ID, final.State, final.Error)
	}
	dir := report.DirForHash(root, st.ID)
	if r.ratio, err = p.in.checkStore(dir); err != nil {
		return r, err
	}
	if tr != nil {
		p.last = finishedJob{dir: dir, wall: r.wall}
		r.layers = map[string]float64{"serve.submit_ms": spanMS(tr, "serve.Server.Submit")}
	}
	return r, nil
}

func (p *gridPath) stages(tr *tracer, layers map[string]float64) error {
	return storeStages(tr, p.in, p.last, gridWorkers, layers)
}

// shutdown stops a service the repetition is done with, cancelling a grid
// an error left running.
func shutdown(srv *serve.Server) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	srv.Shutdown(ctx)
}

// spanMS returns the duration of the last span with that name, in ms.
func spanMS(tr *tracer, name string) float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := len(tr.spans) - 1; i >= 0; i-- {
		if s := tr.spans[i]; s.Name == name && s.End >= 0 {
			return float64(s.End-s.Start) / 1e6
		}
	}
	return math.NaN()
}

// storeStages measures the layers under a finished grid job from its
// artifacts: planning, trace generation, the replay loop (from the job
// outcomes' decision times) and the run store. slots is how many grid
// replays ran at once.
func storeStages(tr *tracer, in *gridInputs, job finishedJob, slots int, layers map[string]float64) error {
	const planReps = 5
	plans := make([]float64, planReps)
	root := tr.begin("stage.plan", -1, -1)
	for i := range plans {
		t := time.Now()
		if _, err := sim.PlanGrid(in.specs); err != nil {
			return err
		}
		e := time.Now()
		tr.add("sim.PlanGrid", root, i, t, e)
		plans[i] = float64(e.Sub(t).Nanoseconds()) / 1e6
	}
	tr.end(root)
	layers["sim.plan_ms"] = median(plans)

	srcNS, err := drainSources(tr, in.specs)
	if err != nil {
		return err
	}
	layers["trace.source_ns_per_req"] = srcNS[""]

	root = tr.begin("stage.store", -1, -1)
	defer tr.end(root)
	t := time.Now()
	st, err := report.Open(job.dir)
	tr.add("report.Open", root, -1, t, time.Now())
	if err != nil {
		return err
	}
	defer st.Close()
	layers["report.open_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6

	// The replay loop's share: outcomes carry each job's decision time;
	// generation is charged at the drained sources' rate.
	size := make(map[string]int, len(in.specs))
	for _, s := range in.specs {
		size[s.Name] = s.Requests
	}
	outcomes := st.Outcomes()
	var decide, source float64 // ns
	for j, o := range outcomes {
		decide += o.ElapsedMS * 1e6
		source += srcNS[j.Scenario] * float64(size[j.Scenario])
	}
	layers["sim.decide_ns_per_req"] = decide / float64(in.requests)
	layers["sim.other_frac"] = 1 - (source+decide)/(float64(slots)*float64(job.wall.Nanoseconds()))

	// Append the job's own records, in plan order, into a fresh store.
	plan, err := sim.PlanGrid(in.specs)
	if err != nil {
		return err
	}
	fresh, err := report.Create(filepath.Join(filepath.Dir(filepath.Dir(job.dir)), "append-stage"), st.Manifest())
	if err != nil {
		return err
	}
	var appendNS int64
	for i, j := range plan.Jobs {
		t := time.Now()
		err := fresh.Append(j, outcomes[j])
		e := time.Now()
		if err != nil {
			fresh.Close()
			return err
		}
		appendNS += e.Sub(t).Nanoseconds()
		tr.add("report.Store.Append", root, i, t, e)
	}
	if err := fresh.Close(); err != nil {
		return err
	}
	layers["report.append_us"] = float64(appendNS) / float64(len(plan.Jobs)) / 1e3

	t = time.Now()
	_, _, err = st.Render()
	tr.add("report.Store.Render", root, -1, t, time.Now())
	if err != nil {
		return err
	}
	layers["report.render_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	_, err = in.checkStore(job.dir)
	return err
}
