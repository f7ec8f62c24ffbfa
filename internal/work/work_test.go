package work

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"obm/internal/report"
	"obm/internal/serve"
	"obm/internal/sim"
	"obm/internal/wal/waltest"
)

// paperSpecs covers the paper evaluation's four trace families (§3.1):
// Facebook-style, Microsoft-style, uniform, phase-shift. Request counts
// are chosen so a shard takes long enough that killing a worker lands
// mid-shard, while the whole test stays in seconds.
func paperSpecs() []sim.ScenarioSpec {
	return []sim.ScenarioSpec{
		{Name: "fb", Family: "facebook-database", Racks: 12, Requests: 200000, Seed: 1, Bs: []int{2, 3}, Reps: 2, Algs: []string{"r-bma", "bma"}},
		{Name: "ms", Family: "microsoft", Racks: 12, Requests: 200000, Seed: 2, Bs: []int{2, 3}, Reps: 2, Algs: []string{"r-bma", "bma"}},
		{Name: "uni", Family: "uniform", Racks: 12, Requests: 200000, Seed: 3, Bs: []int{2, 3}, Reps: 2, Algs: []string{"r-bma", "bma"}},
		{Name: "ps", Family: "phase-shift", Racks: 12, Requests: 200000, Seed: 4, Bs: []int{2, 3}, Reps: 2, Algs: []string{"r-bma", "bma"}},
	}
}

const acceptCurvePoints = 3

// directSummary renders the reference summary.csv of an uninterrupted
// single-process run of specs.
func directSummary(t *testing.T, specs []sim.ScenarioSpec) []byte {
	t.Helper()
	m, err := report.NewManifest("direct", specs, acceptCurvePoints, report.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := report.Create(filepath.Join(t.TempDir(), "direct"), m)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Run(sim.GridOptions{Workers: 4}); err != nil {
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

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode
}

// newWorker builds a Runner against the test coordinator with its own
// workdir and a fast poll.
func newWorker(t *testing.T, coordURL, name string, capacity int, client *http.Client) *Runner {
	t.Helper()
	r, err := New(Options{
		Coordinator: coordURL,
		Name:        name,
		Capacity:    capacity,
		Dir:         filepath.Join(t.TempDir(), name),
		GridWorkers: 1,
		Poll:        25 * time.Millisecond,
		HTTPClient:  client,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestFleetDrainWithKilledWorker is the distributed acceptance test: a
// grid over the four paper trace families is submitted to a
// coordinator-only service and drained by three workers, one of which is
// killed mid-shard. The killed worker's lease expires, its shard is
// requeued and re-executed, and the final summary.csv must be
// byte-identical to a direct single-process sim.RunGrid of the same
// specs — worker count, crashes and duplicate executions are invisible
// in the results.
func TestFleetDrainWithKilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second distributed drain; covered by the full test job")
	}
	specs := paperSpecs()
	s, err := serve.New(serve.Options{
		StoreRoot:   t.TempDir(),
		Workers:     -1, // coordinator-only: every grid job flows through leases
		ShardSize:   3,
		LeaseTTL:    1 * time.Second,
		CurvePoints: acceptCurvePoints,
		Logf:        t.Logf,
	})
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

	blob, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	var st serve.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: HTTP %d, %+v", resp.StatusCode, st)
	}
	t.Logf("submitted job %.12s (%d grid jobs)", st.ID, st.Total)

	// The victim drains alone (capacity 1 → exactly one shard in
	// flight) until the coordinator confirms it holds a lease; then it
	// is killed mid-shard. Its network drops completed-shard uploads, so
	// however the kill interleaves with the shard's compute, the shard
	// can only finish through lease expiry and a re-run — the dead-worker
	// path the test exists to exercise.
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	victimClient := &http.Client{Transport: roundTripperFunc(func(r *http.Request) (*http.Response, error) {
		if strings.HasSuffix(r.URL.Path, "/complete") {
			return nil, errors.New("victim network severed before upload")
		}
		return http.DefaultTransport.RoundTrip(r)
	})}
	victim := newWorker(t, ts.URL, "victim", 1, victimClient)
	victimDone := make(chan int, 1)
	go func() {
		n, _ := victim.Run(victimCtx)
		victimDone <- n
	}()

	type shardList struct {
		Shards []serve.ShardStatus `json:"shards"`
	}
	deadline := time.Now().Add(30 * time.Second)
	victimShard := -1
	for victimShard < 0 {
		var sl shardList
		getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/shards", &sl)
		for _, sh := range sl.Shards {
			if sh.State == "leased" {
				victimShard = sh.Index
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a shard")
		}
		time.Sleep(500 * time.Microsecond)
	}
	killVictim()
	killed := <-victimDone
	t.Logf("victim killed mid-shard %d (had completed %d shards)", victimShard, killed)

	// Two survivors finish the drain, re-leasing the victim's shard once
	// its TTL expires.
	fleetCtx, stopFleet := context.WithCancel(context.Background())
	defer stopFleet()
	fleetDone := make(chan int, 2)
	for _, name := range []string{"w1", "w2"} {
		w := newWorker(t, ts.URL, name, 2, nil)
		go func() {
			n, _ := w.Run(fleetCtx)
			fleetDone <- n
		}()
	}

	deadline = time.Now().Add(120 * time.Second)
	for {
		var cur serve.Status
		getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID, &cur)
		if cur.State == serve.StateDone {
			break
		}
		if cur.State == serve.StateFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never finished the job (at %d/%d)", cur.Done, cur.Total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stopFleet()
	done1, done2 := <-fleetDone, <-fleetDone
	t.Logf("survivors completed %d + %d shards", done1, done2)

	var sl shardList
	getJSON(t, ts.URL+"/api/v1/jobs/"+st.ID+"/shards", &sl)
	requeued := 0
	for _, sh := range sl.Shards {
		if sh.State != "done" {
			t.Errorf("shard %d finished in state %s", sh.Index, sh.State)
		}
		if sh.Attempts > 1 {
			requeued++
		}
	}
	t.Logf("%d of %d shards needed more than one lease", requeued, len(sl.Shards))
	if requeued == 0 {
		t.Error("no shard was requeued: the kill did not exercise the lease-expiry path")
	}

	// The acceptance bar: byte-identity with a direct single-process run.
	resp, err = http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/summary.csv")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("summary.csv: HTTP %d", resp.StatusCode)
	}
	want := directSummary(t, specs)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("fleet summary.csv differs from direct RunGrid:\n--- fleet\n%s--- direct\n%s", got.Bytes(), want)
	}
}

// TestUploadRetriesAcrossCoordinatorBlip: the complete upload survives a
// coordinator that is briefly unreachable or answering 5xx (the shape of
// a restart), retries with backoff, and treats client-class rejections
// as final.
func TestUploadRetriesAcrossCoordinatorBlip(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "jobs.log")
	if err := os.WriteFile(logPath, []byte("{\"k\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var calls, status int
	var lastBody []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		lastBody, _ = io.ReadAll(r.Body)
		if calls < 3 {
			w.WriteHeader(status)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	newRunner := func(transport http.RoundTripper) *Runner {
		r, err := New(Options{
			Coordinator: ts.URL,
			Name:        "retrier",
			Dir:         t.TempDir(),
			HTTPClient:  &http.Client{Transport: transport},
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	l := serve.Lease{JobID: "job", Shard: 0, Token: "tok"}

	// 5xx answers retry until the coordinator recovers.
	calls, status = 0, http.StatusServiceUnavailable
	r := newRunner(nil)
	if err := r.upload(context.Background(), l, logPath, ""); err != nil {
		t.Fatalf("upload through 503s: %v", err)
	}
	if calls != 3 {
		t.Fatalf("upload took %d attempts, want 3", calls)
	}
	if got := r.met.uploadRetries.Value(); got != 2 {
		t.Fatalf("uploadRetries = %d, want 2", got)
	}
	if !bytes.Equal(lastBody, []byte("{\"k\":1}\n")) {
		t.Fatalf("retried upload sent body %q: the reader was not rewound", lastBody)
	}

	// Transport errors (connection refused mid-restart) retry too.
	calls, status = 0, http.StatusOK
	var transportCalls int
	r = newRunner(roundTripperFunc(func(req *http.Request) (*http.Response, error) {
		transportCalls++
		if transportCalls < 3 {
			return nil, errors.New("connection refused")
		}
		return http.DefaultTransport.RoundTrip(req)
	}))
	if err := r.upload(context.Background(), l, logPath, ""); err != nil {
		t.Fatalf("upload through transport errors: %v", err)
	}
	if transportCalls != 3 || calls != 1 {
		t.Fatalf("transport attempts %d (want 3), server calls %d (want 1)", transportCalls, calls)
	}

	// A 4xx verdict is final: the coordinator judged the upload.
	calls, status = 0, http.StatusConflict
	r = newRunner(nil)
	if err := r.upload(context.Background(), l, logPath, ""); err == nil {
		t.Fatal("409 upload reported success")
	}
	if calls != 1 {
		t.Fatalf("409 upload took %d attempts, want 1 (client errors are final)", calls)
	}
	if got := r.met.uploadRetries.Value(); got != 0 {
		t.Fatalf("uploadRetries = %d after final 409, want 0", got)
	}
}

// TestWorkerResumesOwnShardStore: a worker that re-leases a shard it was
// killed on resumes its own partial log instead of starting over.
func TestWorkerResumesOwnShardStore(t *testing.T) {
	specs := []sim.ScenarioSpec{{
		Name: "resume-uni", Family: "uniform",
		Racks: 8, Requests: 2000, Seed: 9,
		Bs: []int{2}, Reps: 4,
		Algs: []string{"oblivious"},
	}}
	m, err := report.NewManifest("experiments serve", specs, 0, report.Shard{})
	if err != nil {
		t.Fatal(err)
	}
	// A stand-in coordinator that accepts every call and keeps the uploads.
	var (
		mu      sync.Mutex
		uploads [][]byte
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/complete") {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			uploads = append(uploads, body)
			mu.Unlock()
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	r, err := New(Options{
		Coordinator: ts.URL,
		Name:        "resumer",
		Dir:         t.TempDir(),
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := serve.Lease{
		JobID: m.SpecHash, Shard: 0, Shards: 2, Token: "tok",
		TTLMS: 60000, Name: m.Name, CurvePoints: 0, Specs: m.Specs,
	}
	// Simulate a partial run: the shard store recorded one job (with an
	// outcome no replay produces), then the worker "died".
	sm, err := report.NewManifest(l.Name, l.Specs, l.CurvePoints, report.Shard{Index: l.Shard, Count: l.Shards})
	if err != nil {
		t.Fatal(err)
	}
	st, err := report.Create(r.shardDir(l), sm)
	if err != nil {
		t.Fatal(err)
	}
	job := sim.GridJob{Scenario: "resume-uni", Alg: "oblivious", B: 0, Rep: 0}
	if err := st.Append(job, sim.JobOutcome{Routing: 42}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if !r.runShard(context.Background(), l) {
		t.Fatal("re-leased shard did not complete")
	}
	if len(uploads) != 1 {
		t.Fatalf("%d uploads, want 1", len(uploads))
	}
	// The upload carries the partial log's record unchanged — the job was
	// resumed, not re-run — and then the shard's other job.
	lines := waltest.Records(t, uploads[0])
	if len(lines) != 2 {
		t.Fatalf("upload has %d records, want 2:\n%q", len(lines), uploads[0])
	}
	var first struct {
		Rep     int `json:"rep"`
		Outcome struct {
			Routing float64 `json:"routing"`
		} `json:"outcome"`
	}
	if err := json.Unmarshal(lines[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.Rep != 0 || first.Outcome.Routing != 42 {
		t.Fatalf("recorded job re-run instead of resumed: first record %s", lines[0])
	}
	if report.Exists(r.shardDir(l)) {
		t.Fatal("shard store kept after a clean upload")
	}

	// A lease whose specs do not hash to its job id is refused: nothing
	// runs and nothing is uploaded.
	bad := l
	bad.JobID = "0000000000000000000000000000000000000000000000000000000000000000"
	if r.runShard(context.Background(), bad) {
		t.Fatal("hash-mismatched lease accepted")
	}
	if len(uploads) != 1 {
		t.Fatal("hash-mismatched lease uploaded a log")
	}
}
