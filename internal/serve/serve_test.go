package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/trace"
)

// tinySpecs is a grid small enough to finish in tens of milliseconds.
func tinySpecs() []sim.ScenarioSpec {
	return []sim.ScenarioSpec{{
		Name: "uni-serve", Family: "uniform",
		Racks: 8, Requests: 2000, Seed: 7,
		Bs: []int{2}, Reps: 2,
		Algs: []string{"r-bma", "oblivious"},
	}}
}

// slowSpecs is a grid with enough jobs and requests that a test can
// reliably interrupt it mid-grid.
func slowSpecs() []sim.ScenarioSpec {
	return []sim.ScenarioSpec{{
		Name: "slow-serve", Family: "uniform",
		Racks: 16, Requests: 100000, Seed: 9,
		Bs: []int{2, 3, 4}, Reps: 3,
		Algs: []string{"r-bma", "bma"},
	}}
}

func specsJSON(t *testing.T, specs []sim.ScenarioSpec) []byte {
	t.Helper()
	blob, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, specs []sim.ScenarioSpec) (Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(specsJSON(t, specs)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %s", id, want)
	return Status{}
}

func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// directSummary runs the same grid without the service and renders its
// summary.csv — the byte-identity reference for the served artifact.
func directSummary(t *testing.T, specs []sim.ScenarioSpec, curvePoints int) []byte {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "direct")
	m, err := report.NewManifest("direct", specs, curvePoints, report.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := report.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Run(sim.GridOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	csvPath, _, err := st.Render()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSubmitRunAndFetchArtifacts(t *testing.T) {
	_, ts := newTestServer(t, Options{StoreRoot: t.TempDir(), Workers: 2, CurvePoints: 4})

	st, code := submit(t, ts, tinySpecs())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	if st.ID == "" || st.Total != 4 {
		t.Fatalf("submit status = %+v, want id and total=4", st)
	}

	// Artifacts 409 while the job is not done.
	if code, _ := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/summary.csv"); code == http.StatusOK {
		t.Log("job finished before the 409 probe; skipping that assertion")
	} else if code != http.StatusConflict {
		t.Fatalf("summary.csv before done: status %d, want 409", code)
	}

	final := waitState(t, ts, st.ID, StateDone)
	if final.Done != final.Total {
		t.Fatalf("done job reports %d/%d", final.Done, final.Total)
	}

	code, got := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/summary.csv")
	if code != http.StatusOK {
		t.Fatalf("summary.csv: status %d", code)
	}
	want := directSummary(t, tinySpecs(), 4)
	if !bytes.Equal(got, want) {
		t.Errorf("served summary.csv differs from direct RunGrid:\n got:\n%s\nwant:\n%s", got, want)
	}

	code, md := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/report.md")
	if code != http.StatusOK || !bytes.Contains(md, []byte("# Run report")) {
		t.Fatalf("report.md: status %d, body %.80s", code, md)
	}

	code, curvesBlob := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/curves.json")
	if code != http.StatusOK {
		t.Fatalf("curves.json: status %d", code)
	}
	var curves struct {
		Curves []report.CellCurve `json:"curves"`
	}
	if err := json.Unmarshal(curvesBlob, &curves); err != nil {
		t.Fatal(err)
	}
	if len(curves.Curves) != 2 {
		t.Fatalf("curves.json has %d cells, want 2", len(curves.Curves))
	}
	for _, c := range curves.Curves {
		if len(c.X) != 4 || len(c.Routing) != 4 {
			t.Fatalf("cell %s/%d curve has %d points, want 4", c.Alg, c.B, len(c.X))
		}
	}

	// Unknown job id → 404.
	if code, _ := fetch(t, ts, "/api/v1/jobs/nope"); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", code)
	}
}

// TestCacheHit is acceptance criterion 1: the identical spec list
// submitted again is served from the finished store, with no
// recomputation — also across a server restart on the same root.
func TestCacheHit(t *testing.T) {
	root := t.TempDir()
	_, ts := newTestServer(t, Options{StoreRoot: root, CurvePoints: 4})

	st, code := submit(t, ts, tinySpecs())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	waitState(t, ts, st.ID, StateDone)
	// Tamper-proof recomputation probe: remember the log's mtime.
	logPath := filepath.Join(report.DirForHash(root, st.ID), "jobs.log")
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}

	st2, code := submit(t, ts, tinySpecs())
	if code != http.StatusOK || !st2.Cached || st2.State != StateDone {
		t.Fatalf("second submit: status %d, %+v — want 200 + cached + done", code, st2)
	}
	if st2.ID != st.ID {
		t.Fatalf("cache hit changed job id: %s vs %s", st2.ID, st.ID)
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Fatal("cache hit recomputed the grid (jobs.log changed)")
	}

	// The cache survives a restart: a fresh server on the same root
	// recovers the finished store and still answers from it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ts.Config.Handler = http.NotFoundHandler() // detach old server
	s2, err := New(Options{StoreRoot: root, CurvePoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(ctx)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	st3, code := submit(t, ts2, tinySpecs())
	if code != http.StatusOK || !st3.Cached {
		t.Fatalf("post-restart submit: status %d, %+v — want cached hit", code, st3)
	}
}

// TestKillMidGridAndResume is acceptance criterion 2: interrupting the
// server mid-grid and restarting on the same root resumes the job and
// produces a summary.csv byte-identical to an uninterrupted run.
func TestKillMidGridAndResume(t *testing.T) {
	root := t.TempDir()
	s1, err := New(Options{StoreRoot: root, GridWorkers: 1, CurvePoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	st, code := submit(t, ts1, slowSpecs())
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Wait until at least one grid job persisted, then kill: Shutdown
	// with an expired context cancels the in-flight grid at its next
	// chunk boundary — the hard-kill equivalent at the grid level.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if cur := getStatus(t, ts1, st.ID); cur.Done >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never made progress")
		}
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s1.Shutdown(expired); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()

	info, ok, err := report.FindByHash(root, st.ID)
	if err != nil || !ok {
		t.Fatalf("store not found after kill: ok=%v err=%v", ok, err)
	}
	if info.Recorded == 0 {
		t.Fatal("no jobs persisted before the kill")
	}
	if info.Complete() {
		t.Skip("grid finished before the kill could land; resume path not exercised")
	}
	t.Logf("killed mid-grid at %d/%d jobs", info.Recorded, info.Recorded+info.Missing)

	// Restart: recovery re-enqueues the interrupted job and resumes it.
	_, ts2 := newTestServer(t, Options{StoreRoot: root, GridWorkers: 1, CurvePoints: 4})
	resumed := getStatus(t, ts2, st.ID)
	if resumed.Done < info.Recorded {
		t.Fatalf("restart lost persisted jobs: %d < %d", resumed.Done, info.Recorded)
	}
	waitState(t, ts2, st.ID, StateDone)

	code, got := fetch(t, ts2, "/api/v1/jobs/"+st.ID+"/summary.csv")
	if code != http.StatusOK {
		t.Fatalf("summary.csv after resume: status %d", code)
	}
	want := directSummary(t, slowSpecs(), 4)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed summary.csv differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// blockingStream is a trace.Stream whose Next blocks until release is
// closed — it lets a test hold the service's worker inside a grid for as
// long as it needs, with no timing assumptions. Requests are a
// deterministic round-robin, so the grid it drives is still valid.
type blockingStream struct {
	n, count int
	release  <-chan struct{}
	pos      int
}

func (s *blockingStream) Name() string  { return "blocking" }
func (s *blockingStream) NumRacks() int { return s.n }
func (s *blockingStream) Len() int      { return s.count }
func (s *blockingStream) Reset()        { s.pos = 0 }

func (s *blockingStream) Next(buf []trace.Request) int {
	<-s.release
	k := 0
	for k < len(buf) && s.pos < s.count {
		u := s.pos % s.n
		v := (s.pos + 1) % s.n
		buf[k] = trace.Request{Src: int32(u), Dst: int32(v)}
		s.pos++
		k++
	}
	return k
}

// TestBackpressure: submissions beyond QueueDepth are refused with 429
// while the worker is busy. The busy grid blocks on a channel, so the
// sequence below is deterministic — no reliance on grid duration
// outpacing HTTP round trips.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	sim.RegisterFamily("block-test", func(spec sim.ScenarioSpec) (trace.Stream, error) {
		return &blockingStream{n: spec.Racks, count: spec.Requests, release: release}, nil
	})

	_, ts := newTestServer(t, Options{StoreRoot: t.TempDir(), Workers: 1, GridWorkers: 1, QueueDepth: 1, CurvePoints: 4})
	// The worker blocks inside the busy grid until released; free it
	// before the server's Shutdown cleanup so the drain cannot hang.
	t.Cleanup(free)

	busy := []sim.ScenarioSpec{{
		Name: "busy-serve", Family: "block-test",
		Racks: 8, Requests: 4000, Seed: 13,
		Bs: []int{2}, Reps: 1,
		Algs: []string{"oblivious"},
	}}
	first, code := submit(t, ts, busy)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	deadline := time.Now().Add(30 * time.Second)
	for getStatus(t, ts, first.ID).State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
	}
	// Fill the queue.
	filler := tinySpecs()
	filler[0].Seed = 1001
	fill, code := submit(t, ts, filler)
	if code != http.StatusAccepted {
		t.Fatalf("filler submit: status %d", code)
	}
	// Overflow.
	over := tinySpecs()
	over[0].Seed = 1002
	if _, code := submit(t, ts, over); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", code)
	}
	// Resubmitting a known job is NOT backpressured — it is a dedupe hit
	// on the queued filler.
	if st, code := submit(t, ts, filler); code != http.StatusAccepted {
		t.Fatalf("duplicate submit during backpressure: status %d (state %s), want 202", code, st.State)
	}

	// Unblock the worker: the busy grid and the filler must now drain,
	// and a fresh submission is accepted again.
	free()
	waitState(t, ts, first.ID, StateDone)
	waitState(t, ts, fill.ID, StateDone)
	if _, code := submit(t, ts, over); code != http.StatusAccepted {
		t.Fatalf("submit after drain: status %d, want 202", code)
	}
}

// TestSSEProgress: the events endpoint streams progress snapshots and a
// terminal `done` event, including for jobs that finished long ago.
func TestSSEProgress(t *testing.T) {
	_, ts := newTestServer(t, Options{StoreRoot: t.TempDir(), CurvePoints: 4})
	st, _ := submit(t, ts, tinySpecs())

	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	var lastData Status
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, name)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(data), &lastData); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
		}
	}
	if len(events) == 0 || events[len(events)-1] != "done" {
		t.Fatalf("SSE events = %v, want trailing done", events)
	}
	if lastData.State != StateDone || lastData.Done != lastData.Total {
		t.Fatalf("final SSE snapshot = %+v", lastData)
	}

	// A late subscriber to the finished job still gets the final event.
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp2.Body)
	if !strings.Contains(buf.String(), "event: done") {
		t.Fatalf("late SSE subscription missing done event:\n%s", buf.String())
	}
}

// TestSubmitValidation: malformed and invalid spec bodies are 400s.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{StoreRoot: t.TempDir()})
	for _, body := range []string{
		"not json",
		`[{"name":"x","family":"no-such-family","racks":8,"requests":100,"bs":[2],"reps":1}]`,
		`[]`,
		`[{"name":"x","family":"microsoft","racks":0,"requests":100,"bs":[2],"reps":1}]`,
		`[{"name":"x","family":"microsoft","racks":1,"requests":100,"bs":[2],"reps":1}]`,
		`[{"name":"x","family":"uniform","racks":100000,"requests":100,"bs":[2],"reps":1}]`,
		`[{"name":"x","family":"uniform","racks":8,"requests":100,"bs":[2],"reps":1000000000}]`,
	} {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %.30q: status %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHealthAndList sanity-checks the remaining endpoints.
func TestHealthAndList(t *testing.T) {
	_, ts := newTestServer(t, Options{StoreRoot: t.TempDir(), CurvePoints: 4})
	st, _ := submit(t, ts, tinySpecs())
	waitState(t, ts, st.ID, StateDone)

	code, body := fetch(t, ts, "/healthz")
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"status": "ok"`)) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body = fetch(t, ts, "/api/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []Status `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}
}

// TestShutdownRefusesSubmissions: a draining server answers 503.
func TestShutdownRefusesSubmissions(t *testing.T) {
	s, err := New(Options{StoreRoot: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(specsJSON(t, tinySpecs())))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown: status %d, want 503", resp.StatusCode)
	}
}

// shortStream underdelivers (Len−1 requests) until *healthy is flipped —
// a deterministic way to make a grid job fail and then succeed on retry.
type shortStream struct {
	n, count int
	healthy  *bool
	pos, cap int
}

func (s *shortStream) Name() string  { return "short" }
func (s *shortStream) NumRacks() int { return s.n }
func (s *shortStream) Len() int      { return s.count }
func (s *shortStream) Reset() {
	s.pos = 0
	s.cap = s.count
	if !*s.healthy {
		s.cap = s.count - 1
	}
}

func (s *shortStream) Next(buf []trace.Request) int {
	k := 0
	for k < len(buf) && s.pos < s.cap {
		buf[k] = trace.Request{Src: int32(s.pos % s.n), Dst: int32((s.pos + 1) % s.n)}
		s.pos++
		k++
	}
	return k
}

// TestFailedJobResubmitRetries: a failed grid must not poison its spec
// hash — resubmitting the identical specs re-enqueues the job, and once
// the underlying fault clears, it completes.
func TestFailedJobResubmitRetries(t *testing.T) {
	healthy := false
	sim.RegisterFamily("flaky-test", func(spec sim.ScenarioSpec) (trace.Stream, error) {
		return &shortStream{n: spec.Racks, count: spec.Requests, healthy: &healthy}, nil
	})
	_, ts := newTestServer(t, Options{StoreRoot: t.TempDir(), CurvePoints: 4})

	specs := []sim.ScenarioSpec{{
		Name: "flaky", Family: "flaky-test",
		Racks: 8, Requests: 3000, Seed: 1,
		Bs: []int{2}, Reps: 1,
		Algs: []string{"oblivious"},
	}}
	st, code := submit(t, ts, specs)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	failed := waitState(t, ts, st.ID, StateFailed)
	if failed.Error == "" {
		t.Fatal("failed job carries no error")
	}

	// While still broken, a resubmission retries and fails again (not a
	// stale 'accepted' that never runs).
	if _, code := submit(t, ts, specs); code != http.StatusAccepted {
		t.Fatalf("resubmit of failed job: status %d, want 202", code)
	}
	waitState(t, ts, st.ID, StateFailed)

	// Fault cleared: the next resubmission completes.
	healthy = true
	st2, code := submit(t, ts, specs)
	if code != http.StatusAccepted || st2.State != StateQueued {
		t.Fatalf("resubmit after fix: status %d, %+v", code, st2)
	}
	waitState(t, ts, st.ID, StateDone)
	if code, _ := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/summary.csv"); code != http.StatusOK {
		t.Fatalf("summary.csv after retry: status %d", code)
	}
}

// TestTornQueueFileDoesNotStopRecovery: the service no longer writes or
// reads queue.json (the manifests order recovery), so a stray torn one
// left in the root by an older version must not keep the service from
// starting, and the incomplete store beside it resumes to a summary
// byte-identical to RunGrid.
func TestTornQueueFileDoesNotStopRecovery(t *testing.T) {
	root := t.TempDir()
	// Half a grid: one of two shards absorbed, then a graceful shutdown.
	s1, err := New(Options{StoreRoot: root, Workers: -1, ShardSize: 2, CurvePoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s1.Submit(tinySpecs())
	if err != nil {
		t.Fatal(err)
	}
	j1, _ := s1.lookup(st.ID)
	l, err := s1.lease(j1, "w0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.completeShard(j1, l.Shard, l.Token, "w0", "", bytes.NewReader(runLeasedShard(t, t.TempDir(), l))); err != nil {
		t.Fatal(err)
	}
	s1.Shutdown(t.Context())
	if err := os.WriteFile(filepath.Join(root, "queue.json"), []byte(`["abc`), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{StoreRoot: root, ShardSize: 2, CurvePoints: 4})
	if got := waitState(t, ts, st.ID, StateDone); got.Done != got.Total {
		t.Fatalf("resumed job = %+v", got)
	}
	code, got := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/summary.csv")
	if code != http.StatusOK {
		t.Fatalf("summary.csv: status %d", code)
	}
	if want := directSummary(t, tinySpecs(), 4); !bytes.Equal(got, want) {
		t.Errorf("summary after a torn queue.json differs from RunGrid:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestShardStoreUnderRootIsNotAJob: a shard store placed under the store
// root holds the full grid's spec hash, but only its own slice of the
// jobs. Recovery must skip it (and say where it is) rather than register
// it as the grid's result: submitting the full grid then runs every job,
// and its summary matches RunGrid byte for byte.
func TestShardStoreUnderRootIsNotAJob(t *testing.T) {
	root := t.TempDir()
	m, err := report.NewManifest("hand-made shard", tinySpecs(), 4, report.Shard{Index: 0, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	shardDir := filepath.Join(root, "hand-shard0")
	shard, err := report.Create(shardDir, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Run(sim.GridOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if missing, _ := shard.Missing(); len(missing) != 0 || shard.Len() != 2 {
		t.Fatalf("shard store holds %d jobs, missing %v; want its 2 of 4", shard.Len(), missing)
	}
	shard.Close()

	var (
		mu   sync.Mutex
		logs []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	_, ts := newTestServer(t, Options{StoreRoot: root, CurvePoints: 4, Logf: logf})
	st, code := submit(t, ts, tinySpecs())
	if code != http.StatusAccepted || st.Cached {
		t.Fatalf("full-grid submit over a shard store: status %d, %+v; want 202, not cached", code, st)
	}
	if got := waitState(t, ts, st.ID, StateDone); got.Done != 4 || got.Total != 4 {
		t.Fatalf("finished job = %+v, want 4/4", got)
	}
	code, got := fetch(t, ts, "/api/v1/jobs/"+st.ID+"/summary.csv")
	if code != http.StatusOK {
		t.Fatalf("summary.csv: status %d", code)
	}
	if want := directSummary(t, tinySpecs(), 4); !bytes.Equal(got, want) {
		t.Errorf("summary differs from RunGrid:\n got:\n%s\nwant:\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	logged := false
	for _, line := range logs {
		logged = logged || strings.Contains(line, shardDir)
	}
	if !logged {
		t.Errorf("skipped shard store not logged with its path; log:\n%s", strings.Join(logs, "\n"))
	}
}

// TestSubmissionOrderSurvivesRestarts: recovered jobs are listed, and
// leased by a local worker, in submission order, which their manifests'
// created_at records: after a graceful shutdown and after a hard kill
// alike. The three jobs are submitted in the reverse of their store
// directories' order, so directory order cannot pass for it.
func TestSubmissionOrderSurvivesRestarts(t *testing.T) {
	var lists [][]sim.ScenarioSpec
	for seed := uint64(1); seed <= 3; seed++ {
		specs := faultSpecs("uniform")
		specs[0].Seed = seed
		lists = append(lists, specs)
	}
	hash := func(specs []sim.ScenarioSpec) string {
		h, err := report.SpecHash(specs, faultCurvePoints)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	sort.Slice(lists, func(a, b int) bool { return hash(lists[a]) > hash(lists[b]) })

	for _, stop := range []string{"graceful", "hard-kill"} {
		t.Run(stop, func(t *testing.T) {
			root := t.TempDir()
			opt := Options{StoreRoot: root, Workers: -1, ShardSize: 100, CurvePoints: faultCurvePoints}
			s1, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for _, specs := range lists {
				st, err := s1.Submit(specs)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, st.ID)
			}
			if stop == "graceful" {
				if err := s1.Shutdown(t.Context()); err != nil {
					t.Fatal(err)
				}
			} // else s1 is abandoned with its stores open, as a kill -9 leaves them

			s2, err := New(opt)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Shutdown(t.Context())
			var listed []string
			for _, st := range s2.Jobs() {
				listed = append(listed, st.ID)
			}
			if !slices.Equal(listed, want) {
				t.Fatalf("recovered jobs listed in order %.12q, want submission order %.12q", listed, want)
			}
			for i, id := range want { // one shard per job
				j, _, err := s2.leaseNext(localWorkerPrefix + "0")
				if err != nil {
					t.Fatalf("lease %d: %v", i, err)
				}
				if j.id != id {
					t.Fatalf("lease %d went to job %.12s, want %.12s", i, j.id, id)
				}
			}
		})
	}
}

// TestRecoveredJobKeepsItsCreatedAt: a recovered job reports the
// submission time its manifest records, not the time of the restart.
func TestRecoveredJobKeepsItsCreatedAt(t *testing.T) {
	root := t.TempDir()
	m, err := report.NewManifest("experiments serve", tinySpecs(), 4, report.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	m.CreatedAt = "2020-01-01T00:00:00Z"
	store, err := report.Create(report.DirForHash(root, m.SpecHash), m)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	s, err := New(Options{StoreRoot: root, Workers: -1, CurvePoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(t.Context())
	if st, ok := s.Job(m.SpecHash); !ok || st.CreatedAt != m.CreatedAt {
		t.Fatalf("recovered job = %+v (found %v), want created_at %s", st, ok, m.CreatedAt)
	}
}
