package engine

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"obm/internal/graph"
	"obm/internal/sim"
	"obm/internal/trace"
)

// offlineFinal resets st and replays its full request sequence through an
// identically-configured algorithm offline, returning the final cumulative
// (routing, reconfig).
func offlineFinal(t *testing.T, cfg SessionConfig, st trace.Stream, n int) [2]float64 {
	t.Helper()
	cfg = cfg.withDefaults()
	alg, err := cfg.spec().BuildAlgorithm(cfg.Alg, cfg.B, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	st.Reset()
	src, err := trace.NewSource(st, graph.FatTreeRacks(cfg.Racks).Metric().Dist)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunSource(alg, src, cfg.Alpha, []int{n}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return [2]float64{res.Series.Routing[0], res.Series.Reconfig[0]}
}

// streamRange streams reqs[from:to] to session id over TCP and returns the
// final batch result. It asserts the hello reports from requests already
// served — the re-attach contract a resumed loadgen relies on.
func streamRange(t *testing.T, e *Engine, addr, id string, reqs []trace.Request, from, to, batch int) *BatchResult {
	t.Helper()
	c, info, err := DialIngest(addr, id, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if int(info.Served) != from {
		t.Fatalf("hello reports %d served, want %d", info.Served, from)
	}
	if from >= to {
		// Nothing to send: read the counters off the session instead.
		s, ok := e.Session(id)
		if !ok {
			t.Fatalf("session %q gone", id)
		}
		status := s.Status()
		return &BatchResult{
			Served:   uint64(status.Served),
			Routing:  status.Routing,
			Reconfig: status.Reconfig,
		}
	}
	for start := from; start < to; start += batch {
		end := start + batch
		if end > to {
			end = to
		}
		if _, err := c.Send(reqs[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEngineSnapshotRestoreTCP is the end-to-end leg of the snapshot
// equivalence suite: a session fed k requests over the binary TCP protocol
// is snapshotted through the HTTP route, deleted, restored through the
// HTTP route, fed the tail over a fresh TCP connection — and its final
// cumulative costs must be bit-identical to an offline replay of the full
// sequence. Runs for a single-plane and a sharded session.
func TestEngineSnapshotRestoreTCP(t *testing.T) {
	const total, snapAt = 12000, 7000
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := New(Options{})
			addr := startIngest(t, e)
			ts := httptest.NewServer(e.Handler())
			defer ts.Close()

			cfg := SessionConfig{ID: "live", Racks: 32, B: 4, Alg: "r-bma", Seed: 17, Shards: shards}
			if _, err := e.CreateSession(cfg); err != nil {
				t.Fatal(err)
			}
			st, err := trace.NewUniformStream(32, total, 21)
			if err != nil {
				t.Fatal(err)
			}
			reqs := trace.Collect(st).Reqs

			// Head of the stream, then snapshot over HTTP.
			streamRange(t, e, addr, "live", reqs, 0, snapAt, 512)
			resp, err := http.Post(ts.URL+"/api/v1/sessions/live/snapshot", "application/octet-stream", nil)
			if err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			if _, err := blob.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("snapshot: %d %s", resp.StatusCode, blob.String())
			}

			// Kill the session, restore it from the blob, stream the tail.
			if !e.DeleteSession("live") {
				t.Fatal("delete failed")
			}
			resp, err = http.Post(ts.URL+"/api/v1/sessions/restore", "application/octet-stream", bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("restore: %d", resp.StatusCode)
			}
			final := streamRange(t, e, addr, "live", reqs, snapAt, total, 512)

			want := offlineFinal(t, cfg, st, total)
			if int(final.Served) != total {
				t.Fatalf("served = %d, want %d", final.Served, total)
			}
			if math.Float64bits(final.Routing) != math.Float64bits(want[0]) ||
				math.Float64bits(final.Reconfig) != math.Float64bits(want[1]) {
				t.Fatalf("restored session final (%v, %v) != offline (%v, %v)",
					final.Routing, final.Reconfig, want[0], want[1])
			}
		})
	}
}

// TestEngineSnapshotDuringBatches snapshots a session concurrently with a
// live binary stream (run under -race). Every snapshot must be a
// consistent cut: restoring it into a second engine and streaming the
// remaining requests must land on the same final costs as the offline
// replay of the full sequence.
func TestEngineSnapshotDuringBatches(t *testing.T) {
	const total, batch = 12000, 300
	e := New(Options{})
	addr := startIngest(t, e)
	cfg := SessionConfig{ID: "hot", Racks: 24, B: 4, Alg: "r-bma", Seed: 7}
	s, err := e.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewUniformStream(24, total, 13)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(st).Reqs

	// Snapshot continuously while the stream runs.
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		started = make(chan struct{}) // closed once the first snapshot is taken
		once    sync.Once
		blobs   [][]byte
	)
	signal := func() { once.Do(func() { close(started) }) }
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer signal() // a failed first snapshot must not leave the stream waiting
		lastServed := uint64(math.MaxUint64)
		for {
			var b bytes.Buffer
			if err := s.Snapshot(&b); err != nil {
				t.Errorf("snapshot during stream: %v", err)
				return
			}
			// Keep one blob per observed cut; snapshotting is much faster
			// than streaming, so an unfiltered loop would hoard thousands
			// of identical blobs.
			if served := uint64(s.Status().Served); served != lastServed {
				lastServed = served
				blobs = append(blobs, b.Bytes())
			}
			signal()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// Stream only once the snapshotter runs: a goroutine first scheduled
	// after the stream had ended would see stop closed and take no
	// snapshot at all.
	<-started
	streamRange(t, e, addr, "hot", reqs, 0, total, batch)
	close(stop)
	wg.Wait()

	if len(blobs) == 0 {
		t.Fatal("snapshotter captured no blobs")
	}
	want := offlineFinal(t, cfg, st, total)

	// Every cut must land on a batch boundary (Snapshot holds the session
	// lock, so it can never observe a half-applied batch)...
	restorer := New(Options{MaxSessions: len(blobs) + 1})
	raddr := startIngest(t, restorer)
	cuts := make([]int, len(blobs))
	for i, blob := range blobs {
		rs, err := restorer.RestoreSession(bytes.NewReader(blob), fmt.Sprintf("cut%d", i))
		if err != nil {
			t.Fatalf("blob %d: %v", i, err)
		}
		cuts[i] = int(rs.Status().Served)
		if cuts[i]%batch != 0 {
			t.Fatalf("blob %d: cut at %d served, not a batch boundary", i, cuts[i])
		}
	}
	// ...and a handful of cuts replay their tails end to end (replaying
	// every blob would be O(blobs × total) wire traffic).
	picks := map[int]bool{0: true, len(blobs) - 1: true, len(blobs) / 4: true, len(blobs) / 2: true, 3 * len(blobs) / 4: true}
	for i := range picks {
		final := streamRange(t, restorer, raddr, fmt.Sprintf("cut%d", i), reqs, cuts[i], total, 600)
		if math.Float64bits(final.Routing) != math.Float64bits(want[0]) ||
			math.Float64bits(final.Reconfig) != math.Float64bits(want[1]) {
			t.Fatalf("blob %d (cut at %d): final (%v, %v) != offline (%v, %v)",
				i, cuts[i], final.Routing, final.Reconfig, want[0], want[1])
		}
	}
}

// TestEngineRestoreIntoLiveServer pins restore's registry edge cases on a
// serving engine: a duplicate id is rejected, an ?id= override restores
// next to the live original, and the session cap applies.
func TestEngineRestoreIntoLiveServer(t *testing.T) {
	e := New(Options{MaxSessions: 2})
	addr := startIngest(t, e)
	ts := httptest.NewServer(e.Handler())
	defer ts.Close()

	cfg := SessionConfig{ID: "orig", Racks: 16, B: 2, Alg: "r-bma", Seed: 1}
	if _, err := e.CreateSession(cfg); err != nil {
		t.Fatal(err)
	}
	st, err := trace.NewUniformStream(16, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace.Collect(st).Reqs
	streamRange(t, e, addr, "orig", reqs, 0, 1000, 250)
	var blob bytes.Buffer
	s, _ := e.Session("orig")
	if err := s.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}

	restore := func(q string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/sessions/restore"+q, "application/octet-stream", bytes.NewReader(blob.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, body.String()
	}

	// Same id as the live original: rejected, original untouched.
	if resp, body := restore(""); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "already exists") {
		t.Fatalf("duplicate restore: %d %s", resp.StatusCode, body)
	}
	if got := s.Status().Served; got != 1000 {
		t.Fatalf("original served %d after rejected restore, want 1000", got)
	}

	// Renamed restore lands next to the original; both serve independently.
	if resp, body := restore("?id=fork"); resp.StatusCode != http.StatusCreated {
		t.Fatalf("renamed restore: %d %s", resp.StatusCode, body)
	}
	a := streamRange(t, e, addr, "orig", reqs, 1000, 2000, 250)
	b := streamRange(t, e, addr, "fork", reqs, 1000, 2000, 500)
	if math.Float64bits(a.Routing) != math.Float64bits(b.Routing) ||
		math.Float64bits(a.Reconfig) != math.Float64bits(b.Reconfig) {
		t.Fatalf("fork diverged from original: (%v, %v) != (%v, %v)",
			b.Routing, b.Reconfig, a.Routing, a.Reconfig)
	}

	// Session cap: engine is now full.
	if resp, body := restore("?id=third"); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "limit") {
		t.Fatalf("over-cap restore: %d %s", resp.StatusCode, body)
	}
}

// TestEngineDeleteDuringSnapshot races DeleteSession against Snapshot (run
// under -race): deletion must never corrupt an in-flight snapshot — every
// snapshot that succeeds must restore cleanly.
func TestEngineDeleteDuringSnapshot(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := New(Options{})
		s, err := e.CreateSession(SessionConfig{ID: "doomed", Racks: 16, B: 2, Alg: "r-bma", Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		st, err := trace.NewUniformStream(16, 500, uint64(round))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range trace.Collect(st).Reqs {
			var res BatchResult
			if err := s.ServeOne(int(r.Src), int(r.Dst), &res); err != nil {
				t.Fatal(err)
			}
		}
		var blob bytes.Buffer
		var wg sync.WaitGroup
		wg.Add(2)
		serr := make(chan error, 1)
		go func() { defer wg.Done(); serr <- s.Snapshot(&blob) }()
		go func() { defer wg.Done(); e.DeleteSession("doomed") }()
		wg.Wait()
		if err := <-serr; err != nil {
			t.Fatalf("round %d: snapshot failed under delete: %v", round, err)
		}
		rs, err := e.RestoreSession(bytes.NewReader(blob.Bytes()), "")
		if err != nil {
			t.Fatalf("round %d: restoring the raced snapshot: %v", round, err)
		}
		if got := rs.Status().Served; got != 500 {
			t.Fatalf("round %d: restored served = %d, want 500", round, got)
		}
		if !e.DeleteSession("doomed") {
			t.Fatalf("round %d: restored session not registered", round)
		}
	}
}
