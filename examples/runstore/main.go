// Runstore: durable, resumable, sharded grid execution end to end — the
// library form of `experiments grid -store/-shard`, `experiments merge`
// and `experiments report`.
//
// The walkthrough splits one scenario grid into two shards, runs shard 0
// twice (the first attempt "crashes" partway, the second resumes from the
// job log and executes only what is missing), runs shard 1 in one go,
// merges both logs into a full-grid store, and renders it as a Markdown
// report with per-scenario tables and ASCII cost curves.
package main

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"obm/internal/report"
	"obm/internal/sim"
)

func main() {
	dir, err := os.MkdirTemp("", "obm-runstore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. The grid: two scenarios, every job's outcome a pure function of
	//    its (scenario, alg, b, rep) identity — which is what makes the
	//    whole scheme sound.
	specs := []sim.ScenarioSpec{
		{
			Name: "hotspot", Family: "hotspot",
			Racks: 16, Requests: 20000, Seed: 1,
			Bs: []int{2, 4}, Reps: 2,
			Params: map[string]float64{"hotspots": 6},
		},
		{
			Name: "diurnal", Family: "diurnal",
			Racks: 16, Requests: 20000, Seed: 2,
			Bs: []int{2, 4}, Reps: 2,
		},
	}

	// 2. Shard 0, first attempt: a persist hook that fails on the third
	//    append stands in for a mid-run crash. The grid starts no new
	//    scenario after a failure (the failing job's scenario finishes its
	//    other jobs), and everything appended is already durable in
	//    shard0/jobs.log.
	shard0 := filepath.Join(dir, "shard0")
	m0, err := report.NewManifest("runstore demo", specs, 8, report.Shard{Index: 0, Count: 2})
	if err != nil {
		log.Fatal(err)
	}
	st0, err := report.Create(shard0, m0)
	if err != nil {
		log.Fatal(err)
	}
	boom := errors.New("simulated crash")
	opt := st0.GridOptions(sim.GridOptions{Workers: 1})
	persist := opt.Persist
	appended := 0
	opt.Persist = func(j sim.GridJob, o sim.JobOutcome) error {
		if err := persist(j, o); err != nil {
			return err
		}
		if appended++; appended == 3 {
			return boom
		}
		return nil
	}
	if _, err := sim.RunGrid(st0.Manifest().Specs, opt); !errors.Is(err, boom) {
		log.Fatalf("expected the simulated crash, got %v", err)
	}
	st0.Close()
	fmt.Printf("shard 0 crashed: %d jobs durable\n", appended)

	// 3. Shard 0, resumed: reopen the store, run the same grid again —
	//    recorded jobs resolve through Lookup, only the rest execute.
	st0, err = report.Open(shard0)
	if err != nil {
		log.Fatal(err)
	}
	before := st0.Len()
	if _, err := st0.Run(sim.GridOptions{Workers: 1}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 0 resumed: %d recorded, %d executed\n", before, st0.Len()-before)
	st0.Close()

	// 4. Shard 1 runs independently — a second process or machine; the
	//    two shards own disjoint slices of the same job grid.
	shard1 := filepath.Join(dir, "shard1")
	m1, err := report.NewManifest("runstore demo", specs, 8, report.Shard{Index: 1, Count: 2})
	if err != nil {
		log.Fatal(err)
	}
	st1, err := report.Create(shard1, m1)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := st1.Run(sim.GridOptions{Workers: 1}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard 1 complete: %d jobs\n", st1.Len())
	st1.Close()

	// 5. Merge both logs into one full-grid store and render it.
	merged, err := report.Merge(filepath.Join(dir, "merged"), shard0, shard1)
	if err != nil {
		log.Fatal(err)
	}
	defer merged.Close()
	missing, err := merged.Missing()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merged: %d/%d jobs, %d missing\n",
		merged.Len(), merged.Manifest().TotalJobs, len(missing))

	var md strings.Builder
	if err := merged.WriteReport(&md); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report: %d bytes of Markdown, including:\n\n", md.Len())
	for _, line := range strings.Split(md.String(), "\n") {
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "| r-bma | 4 |") {
			fmt.Println(line)
		}
	}
}
