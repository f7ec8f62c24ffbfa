package report_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/wal"
)

// paperSpecs covers the paper evaluation's four trace families (§3.1):
// the Facebook-style cluster workload, the Microsoft-style skewed matrix,
// uniform random, and phase-shift — small enough to replay in tests.
func paperSpecs() []sim.ScenarioSpec {
	return []sim.ScenarioSpec{
		{Name: "fb", Family: "facebook-database", Racks: 12, Requests: 3000, Seed: 1, Bs: []int{2, 3}, Reps: 2},
		{Name: "ms", Family: "microsoft", Racks: 12, Requests: 3000, Seed: 2, Bs: []int{2, 3}, Reps: 2},
		{Name: "uni", Family: "uniform", Racks: 12, Requests: 3000, Seed: 3, Bs: []int{2, 3}, Reps: 2},
		{Name: "ps", Family: "phase-shift", Racks: 12, Requests: 3000, Seed: 4, Bs: []int{2, 3}, Reps: 2},
	}
}

// summaryCSV renders a store's deterministic summary.
func summaryCSV(t *testing.T, st *report.Store) []byte {
	t.Helper()
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.WriteSummaryCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeAfterCrashByteIdentical is the resume acceptance test: a grid
// run killed at an arbitrary job boundary (plus a torn trailing record,
// as a real kill -9 would leave) and then resumed must produce a summary
// CSV byte-identical to an uninterrupted run, re-executing only the
// missing jobs.
func TestResumeAfterCrashByteIdentical(t *testing.T) {
	specs := paperSpecs()
	base := t.TempDir()

	// Uninterrupted reference run.
	ref := runShard(t, filepath.Join(base, "ref"), specs, 4, report.Shard{})
	refCSV := summaryCSV(t, ref)
	total := ref.Manifest().TotalJobs
	ref.Close()

	// Crashing run: the persist hook kills the grid after 7 appends.
	crashDir := filepath.Join(base, "crash")
	st, err := report.Create(crashDir, newManifest(t, specs, 4, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	const crashAfter = 7
	boom := errors.New("simulated crash")
	opt := st.GridOptions(sim.GridOptions{Workers: 2, ChunkSize: 512})
	inner := opt.Persist
	appended := 0
	opt.Persist = func(j sim.GridJob, o sim.JobOutcome) error {
		if err := inner(j, o); err != nil {
			return err
		}
		appended++
		if appended == crashAfter {
			return boom
		}
		return nil
	}
	if _, err := sim.RunGrid(st.Manifest().Specs, opt); !errors.Is(err, boom) {
		t.Fatalf("crash did not surface: %v", err)
	}
	st.Close()
	// A kill mid-write also tears the last record: fake that too.
	f, err := os.OpenFile(filepath.Join(crashDir, "jobs.log"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.AppendFrame(nil, []byte(`{"scenario":"fb","alg":"bma","b":2,"rep":1,"outcome":{"routing":1}}`))
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume: reopen, run again, count what actually executed.
	re, err := report.Open(crashDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Truncated() != 1 {
		t.Fatalf("torn record not detected: truncated=%d", re.Truncated())
	}
	already := re.Len()
	if already < crashAfter || already >= total {
		t.Fatalf("crashed store holds %d of %d jobs, want partial >= %d", already, total, crashAfter)
	}
	executed := 0
	opt = re.GridOptions(sim.GridOptions{Workers: 2, ChunkSize: 512})
	inner = opt.Persist
	opt.Persist = func(j sim.GridJob, o sim.JobOutcome) error {
		executed++
		return inner(j, o)
	}
	res, err := sim.RunGrid(re.Manifest().Specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if executed != total-already {
		t.Fatalf("resume executed %d jobs, want exactly the %d missing", executed, total-already)
	}
	if missing, _ := re.Missing(); len(missing) != 0 {
		t.Fatalf("resumed store still missing %v", missing)
	}
	// The live result of the resumed run covers the full grid (recorded
	// outcomes folded in), and the stored summary is byte-identical to
	// the uninterrupted run's.
	if len(res.Rows) == 0 {
		t.Fatal("resumed run produced no rows")
	}
	if got := summaryCSV(t, re); !bytes.Equal(got, refCSV) {
		t.Fatalf("resumed summary differs from uninterrupted run:\n--- resumed\n%s--- reference\n%s", got, refCSV)
	}
}

// TestShardMergeMatchesSingleProcess is the sharding acceptance test: a
// 2-way sharded run of the paper's four trace families, merged via the
// report store, must match the single-process run byte for byte.
func TestShardMergeMatchesSingleProcess(t *testing.T) {
	specs := paperSpecs()
	base := t.TempDir()

	single := runShard(t, filepath.Join(base, "single"), specs, 4, report.Shard{})
	singleCSV := summaryCSV(t, single)
	single.Close()

	s0 := runShard(t, filepath.Join(base, "s0"), specs, 4, report.Shard{Index: 0, Count: 2})
	s1 := runShard(t, filepath.Join(base, "s1"), specs, 4, report.Shard{Index: 1, Count: 2})
	s0.Close()
	s1.Close()

	merged, err := report.Merge(filepath.Join(base, "merged"), filepath.Join(base, "s0"), filepath.Join(base, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if missing, _ := merged.Missing(); len(missing) != 0 {
		t.Fatalf("merged store missing %v", missing)
	}
	if got := summaryCSV(t, merged); !bytes.Equal(got, singleCSV) {
		t.Fatalf("merged shards differ from single-process run:\n--- merged\n%s--- single\n%s", got, singleCSV)
	}
}

// TestShardedRunGridDropsForeignCells: a sharded live result only reports
// cells this shard owns jobs of — no half-aggregated ghosts.
func TestShardedRunGridDropsForeignCells(t *testing.T) {
	specs := paperSpecs()[:1]
	full, err := sim.RunGrid(specs, sim.GridOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	part, err := sim.RunGrid(specs, sim.GridOptions{Workers: 2, Shard: 0, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Rows) == 0 || len(part.Rows) > len(full.Rows) {
		t.Fatalf("shard rows = %d, full rows = %d", len(part.Rows), len(full.Rows))
	}
	var reps int
	for _, r := range part.Rows {
		reps += r.Routing.N
	}
	plan, err := sim.PlanGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := range plan.Jobs {
		if i%3 == 0 {
			want++
		}
	}
	if reps != want {
		t.Fatalf("shard aggregated %d reps, want %d", reps, want)
	}
}
