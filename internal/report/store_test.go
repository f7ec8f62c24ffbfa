package report_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/wal"
	"obm/internal/wal/waltest"
)

// smallSpecs is a two-scenario grid small enough that store-mechanics
// tests run in milliseconds.
func smallSpecs() []sim.ScenarioSpec {
	return []sim.ScenarioSpec{
		{
			Name: "uni", Family: "uniform",
			Racks: 8, Requests: 1500, Seed: 1,
			Bs: []int{2}, Reps: 2,
			Algs: []string{"r-bma", "oblivious"},
		},
		{
			Name: "phase", Family: "phase-shift",
			Racks: 8, Requests: 1500, Seed: 2,
			Bs: []int{2}, Reps: 1,
			Algs: []string{"bma"},
		},
	}
}

func newManifest(t *testing.T, specs []sim.ScenarioSpec, curvePoints int, shard report.Shard) report.Manifest {
	t.Helper()
	m, err := report.NewManifest("test", specs, curvePoints, shard)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStoreCreateAppendReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	// uni: r-bma b=2 ×2 reps + oblivious b=0 ×2; phase: bma b=2 ×1.
	if st.Manifest().TotalJobs != 5 {
		t.Fatalf("TotalJobs = %d, want 5", st.Manifest().TotalJobs)
	}
	j1 := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 0}
	j2 := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 1}
	if err := st.Append(j1, sim.JobOutcome{Routing: 10, Reconfig: 3, ElapsedMS: 1.5}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(j2, sim.JobOutcome{Routing: 11, Reconfig: 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(j1, sim.JobOutcome{Routing: 99}); err == nil {
		t.Fatal("duplicate append accepted")
	}
	missing, err := st.Missing()
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 3 {
		t.Fatalf("missing = %v, want 3 jobs", missing)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	re, err := report.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 2 || re.Truncated() != 0 {
		t.Fatalf("reopened: len=%d truncated=%d", re.Len(), re.Truncated())
	}
	o, ok := re.Lookup(j1)
	if !ok || o.Routing != 10 || o.Reconfig != 3 || o.ElapsedMS != 1.5 {
		t.Fatalf("lookup after reopen = %+v, %v", o, ok)
	}
	if re.Manifest().SpecHash != st.Manifest().SpecHash {
		t.Fatal("spec hash changed across reopen")
	}
}

func TestStoreRefusesClobberAndMissing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	m := newManifest(t, smallSpecs(), 0, report.Shard{})
	st, err := report.Create(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := report.Create(dir, m); err == nil {
		t.Fatal("Create over an existing store accepted")
	}
	if _, err := report.Open(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Open of a non-store accepted")
	}
	if !report.Exists(dir) || report.Exists(filepath.Join(t.TempDir(), "nope")) {
		t.Fatal("Exists misreports")
	}
}

// TestStoreRemove: Remove deletes the store's directory, checkpoints
// included, and leaves the loaded outcomes readable and the store closed.
func TestStoreRemove(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	j := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 0}
	if err := st.Append(j, sim.JobOutcome{Routing: 10}); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(j, []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if err := st.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Remove left %s behind (stat: %v)", dir, err)
	}
	if o, ok := st.Lookup(j); !ok || o.Routing != 10 {
		t.Fatalf("Lookup after Remove = %+v, %v", o, ok)
	}
	j2 := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 1}
	if err := st.Append(j2, sim.JobOutcome{}); !errors.Is(err, report.ErrClosed) {
		t.Fatalf("Append after Remove: %v, want ErrClosed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close after Remove: %v", err)
	}
}

// TestStoreTornTailRecovery simulates a crash mid-append: the log ends in
// half a record. Open must drop exactly that record, trim the file, and
// leave the store appendable on a clean record boundary.
func TestStoreTornTailRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	j1 := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 0}
	if err := st.Append(j1, sim.JobOutcome{Routing: 10}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	log := filepath.Join(dir, "jobs.log")
	f, err := os.OpenFile(log, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.AppendFrame(nil, []byte(`{"scenario":"uni","alg":"r-bma","b":2,"rep":1,"outcome":{"routing":11}}`))
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := report.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 1 || re.Truncated() != 1 {
		t.Fatalf("after torn tail: len=%d truncated=%d, want 1/1", re.Len(), re.Truncated())
	}
	// The torn job is missing again and can be re-appended cleanly.
	j2 := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 1}
	if _, ok := re.Lookup(j2); ok {
		t.Fatal("torn record survived")
	}
	if err := re.Append(j2, sim.JobOutcome{Routing: 11}); err != nil {
		t.Fatal(err)
	}
	re.Close()

	final, err := report.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if final.Len() != 2 || final.Truncated() != 0 {
		t.Fatalf("after recovery append: len=%d truncated=%d, want 2/0", final.Len(), final.Truncated())
	}
}

func TestStoreCorruptMiddleFails(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	log := filepath.Join(dir, "jobs.log")
	content := waltest.Image([]byte("not json at all"),
		[]byte(`{"scenario":"uni","alg":"r-bma","b":2,"rep":0,"outcome":{"routing":1,"reconfig":0,"elapsed_ms":0}}`))
	if err := os.WriteFile(log, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := report.Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-log corruption not detected: %v", err)
	}
}

// TestStoreRejectsMismatchedCurves: a record that is valid JSON but whose
// curve arrays disagree in length must be rejected at the load/append
// boundary, not crash the renderer or merge later.
func TestStoreRejectsMismatchedCurves(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 4, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	j := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 0}
	bad := sim.JobOutcome{Routing: 10, X: []int{1, 2}, RoutingCurve: []float64{5}, ReconfigCurve: []float64{0, 0}}
	if err := st.Append(j, bad); err == nil {
		t.Fatal("mismatched curve lengths accepted by Append")
	}
	st.Close()

	// The same shape written to disk mid-log must fail Open as corruption.
	log := filepath.Join(dir, "jobs.log")
	mismatched := []byte(`{"scenario":"uni","alg":"r-bma","b":2,"rep":0,"outcome":{"routing":1,"reconfig":0,"elapsed_ms":0,"x":[1,2],"routing_curve":[5],"reconfig_curve":[0,0]}}`)
	good := []byte(`{"scenario":"uni","alg":"r-bma","b":2,"rep":1,"outcome":{"routing":1,"reconfig":0,"elapsed_ms":0}}`)
	if err := os.WriteFile(log, waltest.Image(mismatched, good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := report.Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mismatched curves mid-log not rejected: %v", err)
	}
	// As the *final* record it is corruption too: its frame is whole and
	// its CRC verifies, so no torn write produced it.
	if err := os.WriteFile(log, waltest.Image(good, mismatched), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := report.Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mismatched curves as the final record not rejected: %v", err)
	}
}

func TestSpecHashNormalization(t *testing.T) {
	specs := smallSpecs()
	h1, err := report.SpecHash(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Spelling out the defaults must not change the hash.
	specs[0].Alpha = 30
	specs[1].Reps = 1
	h2, err := report.SpecHash(specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("hash depends on whether defaults are spelled out")
	}
	// Anything that changes outcomes must change the hash.
	specs[0].Seed++
	if h3, _ := report.SpecHash(specs, 4); h3 == h1 {
		t.Fatal("hash ignores the seed")
	}
	specs[0].Seed--
	if h4, _ := report.SpecHash(specs, 5); h4 == h1 {
		t.Fatal("hash ignores curve points")
	}
}

// TestManifestBoundsCurvePoints: NewManifest refuses a negative
// curve-point count and one whose job record could outgrow one job-log
// record, and at the largest count it accepts, a record of worst-case
// numbers still appends.
func TestManifestBoundsCurvePoints(t *testing.T) {
	specs := smallSpecs()
	lo, hi := 0, 1<<21 // lo is accepted, hi refused
	for _, n := range []int{-3, hi} {
		if _, err := report.NewManifest("bound", specs, n, report.Shard{}); err == nil || !strings.Contains(err.Error(), "curve points") {
			t.Fatalf("%d curve points: %v, want a curve-point error", n, err)
		}
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if _, err := report.NewManifest("bound", specs, mid, report.Shard{}); err == nil {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 1000 {
		t.Fatalf("only %d curve points accepted", lo)
	}
	st, err := report.Create(filepath.Join(t.TempDir(), "store"), newManifest(t, specs, lo, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const worstFloat = -1.2345678901234567e-06 // 25 characters in JSON
	o := sim.JobOutcome{Routing: worstFloat, Reconfig: worstFloat, ElapsedMS: worstFloat}
	for range lo {
		o.X = append(o.X, math.MinInt64)
		o.RoutingCurve = append(o.RoutingCurve, worstFloat)
		o.ReconfigCurve = append(o.ReconfigCurve, worstFloat)
	}
	if err := st.Append(sim.GridJob{Scenario: "phase", Alg: "bma", B: math.MinInt64, Rep: math.MinInt64}, o); err != nil {
		t.Fatalf("a worst-case record of %d curve points: %v", lo, err)
	}
}
