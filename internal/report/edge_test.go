package report_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
)

// TestStoreConcurrentAppend hammers one store with parallel Append
// callers — the experiment service appends from several grid workers at
// once. Every record must survive, and the re-opened log must be clean
// (no interleaved or torn lines).
func TestStoreConcurrentAppend(t *testing.T) {
	specs := []sim.ScenarioSpec{{
		Name: "uni", Family: "uniform",
		Racks: 8, Requests: 500, Seed: 1,
		Bs: []int{2}, Reps: 24,
		Algs: []string{"r-bma"},
	}}
	dir := filepath.Join(t.TempDir(), "store")
	st, err := report.Create(dir, newManifest(t, specs, 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	const reps = 24
	var wg sync.WaitGroup
	errs := make([]error, reps)
	for rep := 0; rep < reps; rep++ {
		wg.Add(1)
		go func(rep int) {
			defer wg.Done()
			errs[rep] = st.Append(
				sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: rep},
				sim.JobOutcome{Routing: float64(rep), Reconfig: 1},
			)
		}(rep)
	}
	wg.Wait()
	for rep, err := range errs {
		if err != nil {
			t.Fatalf("concurrent append rep %d: %v", rep, err)
		}
	}
	if missing, _ := st.Missing(); len(missing) != 0 {
		t.Fatalf("store missing %v after all appends", missing)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := report.Open(dir)
	if err != nil {
		t.Fatalf("reopen after concurrent appends: %v", err)
	}
	defer re.Close()
	if re.Len() != reps || re.Truncated() != 0 {
		t.Fatalf("reopened: len=%d truncated=%d, want %d/0", re.Len(), re.Truncated(), reps)
	}
	for rep := 0; rep < reps; rep++ {
		o, ok := re.Lookup(sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: rep})
		if !ok || o.Routing != float64(rep) {
			t.Fatalf("rep %d: lookup = %+v, %v", rep, o, ok)
		}
	}
}

// TestMergeEmptyShardLog: merging a finished shard with a shard that never
// ran a job (its jobs.log holds no record — or is missing entirely) must yield a
// partial store holding exactly the finished shard's records, resumable to
// completion.
func TestMergeEmptyShardLog(t *testing.T) {
	specs := smallSpecs()
	base := t.TempDir()
	s0 := runShard(t, filepath.Join(base, "s0"), specs, 0, report.Shard{Index: 0, Count: 2})
	done := s0.Len()
	s0.Close()
	// Shard 1 is created but never run: its log exists and is empty.
	s1, err := report.Create(filepath.Join(base, "s1"), newManifest(t, specs, 0, report.Shard{Index: 1, Count: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Len() != 0 {
		t.Fatalf("fresh shard has %d records", s1.Len())
	}
	s1.Close()

	merged, err := report.Merge(filepath.Join(base, "merged"), filepath.Join(base, "s0"), filepath.Join(base, "s1"))
	if err != nil {
		t.Fatalf("merge with empty shard log: %v", err)
	}
	total := merged.Manifest().TotalJobs
	if merged.Len() != done {
		t.Fatalf("merged %d records, want shard 0's %d", merged.Len(), done)
	}
	missing, err := merged.Missing()
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != total-done {
		t.Fatalf("merged store missing %d jobs, want %d", len(missing), total-done)
	}
	// The merged partial store resumes to a complete grid.
	if _, err := merged.Run(sim.GridOptions{Workers: 2, ChunkSize: 512}); err != nil {
		t.Fatal(err)
	}
	if missing, _ := merged.Missing(); len(missing) != 0 {
		t.Fatalf("resumed merge still missing %v", missing)
	}
	merged.Close()

	// Same merge with the empty log file removed entirely: Open treats a
	// store with no jobs.log as zero completed jobs.
	if err := os.Remove(filepath.Join(base, "s1", "jobs.log")); err != nil {
		t.Fatal(err)
	}
	merged2, err := report.Merge(filepath.Join(base, "merged2"), filepath.Join(base, "s0"), filepath.Join(base, "s1"))
	if err != nil {
		t.Fatalf("merge with missing shard log: %v", err)
	}
	defer merged2.Close()
	if merged2.Len() != done {
		t.Fatalf("merged2 %d records, want %d", merged2.Len(), done)
	}
}
