package report_test

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/trace"
)

// countingFamily is a uniform-traffic workload family whose builder
// counts its calls: every trace generator a store operation builds shows
// up in countingBuilds.
const countingFamily = "test-counting"

var countingBuilds atomic.Int64

func init() {
	sim.RegisterFamily(countingFamily, func(spec sim.ScenarioSpec) (trace.Stream, error) {
		countingBuilds.Add(1)
		return trace.NewUniformStream(spec.Racks, spec.Requests, spec.Seed)
	})
}

// TestStoreReadPathsBuildNothing: a manifest validates each spec once
// (building its generator) when it is made; absorbing an upload, listing
// the missing jobs, rendering and reopening the store only plan the grid
// and build nothing.
func TestStoreReadPathsBuildNothing(t *testing.T) {
	specs := smallSpecs()
	for i := range specs {
		specs[i].Family = countingFamily
	}
	base := t.TempDir()
	countingBuilds.Store(0)
	m := newManifest(t, specs, 2, report.Shard{})
	if n := countingBuilds.Load(); n != int64(len(specs)) {
		t.Fatalf("NewManifest built %d generators, want %d (one per spec)", n, len(specs))
	}
	src, err := report.Create(filepath.Join(base, "src"), m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Run(sim.GridOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	src.Close()
	dst, err := report.Create(filepath.Join(base, "dst"), m)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	log, err := os.Open(src.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	countingBuilds.Store(0)
	if added, err := dst.Absorb(log); err != nil || added != src.Len() {
		t.Fatalf("Absorb: added %d of %d, err %v", added, src.Len(), err)
	}
	if missing, err := dst.Missing(); err != nil || len(missing) != 0 {
		t.Fatalf("Missing: %v, err %v", missing, err)
	}
	if _, _, err := dst.Render(); err != nil {
		t.Fatal(err)
	}
	reopened, err := report.Open(dst.Dir())
	if err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	if n := countingBuilds.Load(); n != 0 {
		t.Fatalf("Absorb, Missing, Render and Open built %d generators, want 0", n)
	}
}

// TestOpenRejectsEditedManifest: a finished store whose manifest was
// edited on disk (its racks changed) no longer matches its SpecHash, so
// Open fails naming the mismatch and Discover reports the store as
// unreadable instead of listing it.
func TestOpenRejectsEditedManifest(t *testing.T) {
	root := t.TempDir()
	specs := smallSpecs()
	m := newManifest(t, specs, 0, report.Shard{})
	dir := report.DirForHash(root, m.SpecHash)
	runShard(t, dir, specs, 0, report.Shard{}).Close()
	if _, err := report.Open(dir); err != nil {
		t.Fatalf("untouched store: %v", err)
	}

	path := filepath.Join(dir, "manifest.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := strings.Replace(string(blob), `"racks": 8,`, `"racks": 9,`, 1)
	if edited == string(blob) {
		t.Fatalf("manifest has no racks field to edit:\n%s", blob)
	}
	if err := os.WriteFile(path, []byte(edited), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := report.Open(dir); err == nil || !strings.Contains(err.Error(), "spec hash mismatch") {
		t.Fatalf("Open of an edited manifest: err = %v, want a spec hash mismatch", err)
	}
	infos, err := report.Discover(root)
	if err == nil || !strings.Contains(err.Error(), "spec hash mismatch") {
		t.Fatalf("Discover: err = %v, want the store reported as unreadable", err)
	}
	if len(infos) != 0 {
		t.Fatalf("Discover listed the edited store: %+v", infos)
	}
}
