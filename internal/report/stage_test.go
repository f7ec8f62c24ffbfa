package report_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
)

// stagedJobs returns the plan jobs of smallSpecs: five jobs.
func stagedJobs(t *testing.T, m report.Manifest) []sim.GridJob {
	t.Helper()
	plan, err := m.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return plan.Jobs
}

// stagedOutcome is a fixed outcome with a two-point curve, so records
// differ per job and carry every field a grid run writes.
func stagedOutcome(i int) sim.JobOutcome {
	return sim.JobOutcome{
		Routing: float64(10 + i), Reconfig: float64(i), ElapsedMS: 0.5,
		X: []int{100, 200}, RoutingCurve: []float64{1, float64(2 + i)}, ReconfigCurve: []float64{0, 1},
	}
}

// TestStagedImageMatchesCreatedLog: a staged store's image is, byte for
// byte, the jobs.log that a store Create made writes after the same
// appends; once written out, later appends go to the file and keep the
// two equal.
func TestStagedImageMatchesCreatedLog(t *testing.T) {
	m := newManifest(t, smallSpecs(), 2, report.Shard{})
	jobs := stagedJobs(t, m)
	base := t.TempDir()
	created, err := report.Create(filepath.Join(base, "created"), m)
	if err != nil {
		t.Fatal(err)
	}
	defer created.Close()
	staged, err := report.Stage(filepath.Join(base, "staged"), m)
	if err != nil {
		t.Fatal(err)
	}
	defer staged.Close()
	appendBoth := func(i int) {
		t.Helper()
		for _, st := range []*report.Store{created, staged} {
			if err := st.Append(jobs[i], stagedOutcome(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(when string) {
		t.Helper()
		want, err := os.ReadFile(created.LogPath())
		if err != nil {
			t.Fatal(err)
		}
		for name, st := range map[string]*report.Store{"created": created, "staged": staged} {
			got, err := st.Image()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: the %s store's image differs from the created jobs.log:\n%q\nwant\n%q", when, name, got, want)
			}
		}
	}
	same("empty")
	for i := range 3 {
		appendBoth(i)
	}
	same("staged")
	if report.Exists(staged.Dir()) {
		t.Fatal("a staged store exists on disk before its write-out")
	}
	if err := staged.WriteOut(); err != nil {
		t.Fatal(err)
	}
	same("written out") // the staged store's Image now reads its jobs.log
	appendBoth(3)
	same("appended after the write-out")
}

// TestStagedRemoveNeverCreatesDir: a staged store takes appends and
// checkpoint saves, loads and drops without touching the disk, and
// Remove drops it without ever creating its directory.
func TestStagedRemoveNeverCreatesDir(t *testing.T) {
	m := newManifest(t, smallSpecs(), 0, report.Shard{})
	jobs := stagedJobs(t, m)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Stage(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	noDir := func(when string) {
		t.Helper()
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("%s: the staged store made %s (stat: %v)", when, dir, err)
		}
	}
	if err := st.Append(jobs[0], sim.JobOutcome{Routing: 10}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(jobs[1], []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.LoadCheckpoint(jobs[1]); !ok || string(got) != "blob" {
		t.Fatalf("load = (%q, %v), want the saved blob", got, ok)
	}
	st.DropCheckpoint(jobs[1])
	if _, ok := st.LoadCheckpoint(jobs[1]); ok {
		t.Fatal("load hit after drop")
	}
	if err := st.SaveCheckpoint(jobs[2], []byte("in flight")); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	noDir("before Remove")
	if err := st.Remove(); err != nil {
		t.Fatal(err)
	}
	noDir("after Remove")
	if o, ok := st.Lookup(jobs[0]); !ok || o.Routing != 10 {
		t.Fatalf("Lookup after Remove = %+v, %v", o, ok)
	}
	if err := st.Append(jobs[3], sim.JobOutcome{}); !errors.Is(err, report.ErrClosed) {
		t.Fatalf("Append after Remove: %v, want ErrClosed", err)
	}
	if err := st.WriteOut(); err != nil {
		t.Fatalf("WriteOut after Remove: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close after Remove: %v", err)
	}
	noDir("after Close")
}

// TestStagedCloseWritesOut: Close writes a staged store out — the
// manifest, the job log and each in-flight job's newest checkpoint, and
// no dropped one — and Open reads it all back.
func TestStagedCloseWritesOut(t *testing.T) {
	m := newManifest(t, smallSpecs(), 2, report.Shard{})
	jobs := stagedJobs(t, m)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Stage(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if err := st.Append(jobs[i], stagedOutcome(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, blob := range []string{"older", "newest"} {
		if err := st.SaveCheckpoint(jobs[2], []byte(blob)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.SaveCheckpoint(jobs[3], []byte("finished")); err != nil {
		t.Fatal(err)
	}
	st.DropCheckpoint(jobs[3])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if !report.Exists(dir) {
		t.Fatal("Close left no store on disk")
	}
	if left, _ := os.ReadDir(filepath.Join(dir, "checkpoints")); len(left) != 1 {
		t.Fatalf("%d checkpoint files written out, want the one in-flight job's", len(left))
	}

	re, err := report.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Manifest().SpecHash != m.SpecHash || re.Len() != 2 {
		t.Fatalf("reopened store: spec hash %.12s, %d jobs; want %.12s, 2", re.Manifest().SpecHash, re.Len(), m.SpecHash)
	}
	for i := range 2 {
		if o, ok := re.Lookup(jobs[i]); !ok || o.Routing != stagedOutcome(i).Routing || len(o.X) != 2 {
			t.Fatalf("reopened job %s = %+v, %v", jobs[i], o, ok)
		}
	}
	if got, ok := re.LoadCheckpoint(jobs[2]); !ok || string(got) != "newest" {
		t.Fatalf("reopened checkpoint = (%q, %v), want the newest blob", got, ok)
	}
	if _, ok := re.LoadCheckpoint(jobs[3]); ok {
		t.Fatal("a dropped checkpoint was written out")
	}
}

// TestStagedWriteOutRacesHooks: a write-out that runs while grid workers
// append, save and drop — as at a shard's first heartbeat tick — leaves
// every record, each in-flight job's newest checkpoint, and no
// checkpoint of a job that finished.
func TestStagedWriteOutRacesHooks(t *testing.T) {
	m := newManifest(t, smallSpecs(), 0, report.Shard{})
	jobs := stagedJobs(t, m)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Stage(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	const saves = 200
	inFlight := jobs[len(jobs)-1] // saves, never finishes
	started := make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for w, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range saves {
				if err := st.SaveCheckpoint(j, []byte(fmt.Sprintf("%d/%d", w, i))); err != nil {
					t.Error(err)
					return
				}
				if i == saves/4 {
					once.Do(func() { close(started) })
				}
			}
			if j == inFlight {
				return
			}
			if err := st.Append(j, sim.JobOutcome{Routing: float64(w)}); err != nil {
				t.Error(err)
			}
			st.DropCheckpoint(j)
		}()
	}
	<-started
	werr := st.WriteOut()
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := report.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != len(jobs)-1 {
		t.Fatalf("reopened store holds %d jobs, want %d", re.Len(), len(jobs)-1)
	}
	for w, j := range jobs {
		if j == inFlight {
			want := fmt.Sprintf("%d/%d", w, saves-1)
			if got, ok := re.LoadCheckpoint(j); !ok || string(got) != want {
				t.Fatalf("in-flight job's checkpoint = (%q, %v), want its newest, %q", got, ok, want)
			}
			continue
		}
		if o, ok := re.Lookup(j); !ok || o.Routing != float64(w) {
			t.Fatalf("job %s = %+v, %v after the racing write-out", j, o, ok)
		}
		if _, ok := re.LoadCheckpoint(j); ok {
			t.Fatalf("finished job %s left a checkpoint behind", j)
		}
	}
}
