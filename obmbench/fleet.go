package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"obm/internal/obs"
	"obm/internal/report"
	"obm/internal/serve"
	"obm/internal/work"
)

// fleetPath submits the grid to a coordinator-only experiment service
// behind a loopback HTTP listener and drains it with one in-process
// work.Runner, whose coordinator calls go through a timing transport.
type fleetPath struct {
	in        *gridInputs
	shardSize int
	last      finishedJob
}

// The worker's settings: two shard leases at once with one grid worker
// each, checkpoints on, and a poll short against a shard's duration.
const (
	fleetCapacity        = 2
	fleetCheckpointEvery = 4096
	fleetPoll            = 5 * time.Millisecond
)

// httpCall is one coordinator round trip made by the worker.
type httpCall struct {
	kind       string // "jobs_list", "lease", "complete", "heartbeat" or "other"
	shard      int    // -1 when the call names no shard
	start, end time.Time
	status     int // 0 on a transport error
	cancelled  bool
}

// timingTransport times every coordinator call the worker makes; the
// response body is read inside the round trip, so a call's span ends
// when the whole answer has arrived.
type timingTransport struct {
	base     *http.Transport
	tr       *tracer
	parent   int
	stopping atomic.Bool // set once the harness cancels the runner

	mu    sync.Mutex
	calls []httpCall
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := httpCall{kind: "other", shard: -1, start: time.Now()}
	path := req.URL.Path
	switch {
	case req.Method == http.MethodGet && path == "/api/v1/jobs":
		c.kind = "jobs_list"
	case strings.HasSuffix(path, "/lease"):
		c.kind = "lease"
	case strings.HasSuffix(path, "/complete"), strings.HasSuffix(path, "/heartbeat"):
		c.kind = path[strings.LastIndexByte(path, '/')+1:]
		parts := strings.Split(path, "/")
		if k, err := strconv.Atoi(parts[len(parts)-2]); err == nil {
			c.shard = k
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		c.status = resp.StatusCode
		if c.kind == "lease" && resp.StatusCode == http.StatusOK {
			var l serve.Lease
			if json.Unmarshal(body, &l) == nil {
				c.shard = l.Shard
			}
		}
	}
	c.end = time.Now()
	if err != nil {
		c.status = 0
		c.cancelled = t.stopping.Load() && errors.Is(err, context.Canceled)
		resp = nil
	}
	t.tr.add("serve."+c.kind, t.parent, c.shard, c.start, c.end)
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
	return resp, err
}

func (p *fleetPath) rep(rc *repCtx) (repResult, error) {
	var r repResult
	tr := rc.tr
	root := filepath.Join(rc.dir, "store")
	rc.begin()
	defer rc.end()
	t0 := time.Now()
	setup := tr.begin("fleet.setup", -1, -1)
	s := tr.begin("serve.New", setup, -1)
	srv, err := serve.New(serve.Options{StoreRoot: root, Workers: -1, ShardSize: p.shardSize})
	tr.end(s)
	if err != nil {
		return r, err
	}
	defer shutdown(srv)
	s = tr.begin("http.listen", setup, -1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln)
	}()
	// Shutdown, not Close: a lease call that arrives after the job is done
	// re-renders it, and that handler must finish before the next
	// repetition starts.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
		<-served
	}()
	tr.end(s)
	s = tr.begin("work.New", setup, -1)
	rt := &timingTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr}
	defer rt.base.CloseIdleConnections()
	reg := obs.NewRegistry()
	runner, err := work.New(work.Options{
		Coordinator:     "http://" + ln.Addr().String(),
		Name:            "bench",
		Capacity:        fleetCapacity,
		Dir:             filepath.Join(rc.dir, "work"),
		GridWorkers:     1,
		CheckpointEvery: fleetCheckpointEvery,
		Poll:            fleetPoll,
		HTTPClient:      &http.Client{Transport: rt},
		Registry:        reg,
	})
	tr.end(s)
	if err != nil {
		return r, err
	}
	s = tr.begin("serve.Server.Submit", setup, -1)
	st, err := srv.Submit(p.in.specs)
	tr.end(s)
	tr.end(setup)
	r.setup = time.Since(t0)
	if err != nil {
		return r, err
	}

	start := time.Now()
	drain := tr.begin("fleet.drain", -1, -1)
	rt.parent = drain
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() {
		_, err := runner.Run(ctx)
		ran <- err
	}()
	final, at, err := awaitDone(srv, st.ID)
	tr.end(drain)
	r.peakHeap = rc.end()
	rt.stopping.Store(true)
	cancel()
	if rerr := <-ran; err == nil {
		err = rerr
	}
	if err != nil {
		return r, err
	}
	r.wall = at.Sub(start)
	r.requests = p.in.requests

	// A shard is the fleet's batch: its round trip runs from the lease
	// request to the answer to its upload. Failure accounting covers every
	// coordinator call the worker made, except the ones the harness
	// cancelled by stopping it; a retried upload counts once as attempted
	// and each retry as failed.
	retries := reg.Counter("obm_work_upload_retries_total", "").Value()
	var completes, failedCalls int
	leaseStart := map[int]time.Time{}
	for _, c := range rt.calls {
		if c.cancelled {
			continue
		}
		switch {
		case c.kind == "lease" && c.status == http.StatusOK:
			leaseStart[c.shard] = c.start
		case c.kind == "complete":
			completes++
			if l, ok := leaseStart[c.shard]; ok && c.status == http.StatusOK {
				r.rtts = append(r.rtts, c.end.Sub(l))
				delete(leaseStart, c.shard)
			}
		}
		if c.status == 0 || c.status >= 500 {
			failedCalls++
		}
		if c.kind != "complete" {
			r.attempted++
		}
	}
	r.attempted += completes - int(retries)
	r.failed = failedCalls + int(reg.Counter("obm_work_upload_errors_total", "").Value())
	if final.State != serve.StateDone {
		return r, fmt.Errorf("fleet job %.12s ended %s: %s", st.ID, final.State, final.Error)
	}
	dir := report.DirForHash(root, st.ID)
	if r.ratio, err = p.in.checkStore(dir); err != nil {
		return r, err
	}
	if tr != nil {
		p.last = finishedJob{dir: dir, wall: r.wall}
		if r.layers, err = p.ledger(ln.Addr().String(), st.ID, rt, reg, start, at); err != nil {
			return r, err
		}
		r.layers["serve.submit_ms"] = spanMS(tr, "serve.Server.Submit")
	}
	return r, nil
}

// ledger derives the coordinator, worker and checkpoint metrics of one
// traced drain from the worker's calls and registry.
func (p *fleetPath) ledger(addr, id string, rt *timingTransport, reg *obs.Registry, start, end time.Time) (map[string]float64, error) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	by := map[string][]float64{}
	var coord time.Duration
	leased := map[int]time.Time{} // shard → lease response of its current lease
	var shardMS []float64
	var held time.Duration
	calls := 0
	for _, c := range rt.calls {
		if c.cancelled {
			continue
		}
		calls++
		by[c.kind] = append(by[c.kind], ms(c.end.Sub(c.start)))
		coord += c.end.Sub(c.start)
		switch {
		case c.kind == "lease" && c.status == http.StatusOK:
			leased[c.shard] = c.end
		case c.kind == "complete":
			if l, ok := leased[c.shard]; ok {
				shardMS = append(shardMS, ms(c.start.Sub(l)))
				held += c.end.Sub(l)
				delete(leased, c.shard)
			}
		}
	}
	slots := float64(fleetCapacity) * float64(end.Sub(start))

	resp, err := http.Get("http://" + addr + "/api/v1/jobs/" + id + "/shards")
	if err != nil {
		return nil, err
	}
	var shards struct {
		Shards []serve.ShardStatus `json:"shards"`
	}
	err = json.NewDecoder(resp.Body).Decode(&shards)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	attempts := 0
	for _, s := range shards.Shards {
		attempts = max(attempts, s.Attempts)
	}
	save := reg.Histogram("obm_grid_checkpoint_save_seconds", "", 1e-9).Summary()
	return map[string]float64{
		"serve.lease_ms_p50":          quantile(by["lease"], 0.5),
		"serve.lease_ms_p99":          quantile(by["lease"], 0.99),
		"serve.complete_ms_p50":       quantile(by["complete"], 0.5),
		"serve.complete_ms_p99":       quantile(by["complete"], 0.99),
		"serve.jobs_list_ms_p50":      quantile(by["jobs_list"], 0.5),
		"work.shard_ms_p50":           quantile(shardMS, 0.5),
		"work.coord_frac":             float64(coord) / slots,
		"work.idle_frac":              1 - float64(held)/slots,
		"snap.checkpoint_save_us_p50": float64(save.P50) / 1e3,
		"snap.checkpoints":            float64(save.Count),
		"serve.shards":                float64(len(shards.Shards)),
		"serve.http_calls":            float64(calls),
		"serve.lease_attempts_max":    float64(attempts),
	}, nil
}

func (p *fleetPath) stages(tr *tracer, layers map[string]float64) error {
	return storeStages(tr, p.in, p.last, fleetCapacity, layers)
}
