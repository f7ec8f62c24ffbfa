package report_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
)

// TestStoreCheckpointFiles pins the checkpoint file mechanics: save is
// atomic under the store, load returns exactly what was saved, a missing
// checkpoint is a clean miss, and drop removes the file.
func TestStoreCheckpointFiles(t *testing.T) {
	st, err := report.Create(t.TempDir(), newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 1}

	if _, ok := st.LoadCheckpoint(j); ok {
		t.Fatal("load hit before any save")
	}
	blob := []byte("checkpoint payload")
	if err := st.SaveCheckpoint(j, blob); err != nil {
		t.Fatal(err)
	}
	got, ok := st.LoadCheckpoint(j)
	if !ok || !bytes.Equal(got, blob) {
		t.Fatalf("load = (%q, %v), want saved payload", got, ok)
	}
	// Distinct job coordinates get distinct checkpoints.
	j2 := j
	j2.Rep = 2
	if _, ok := st.LoadCheckpoint(j2); ok {
		t.Fatal("rep 2 sees rep 1's checkpoint")
	}
	// Overwrite wins.
	blob2 := []byte("newer payload")
	if err := st.SaveCheckpoint(j, blob2); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.LoadCheckpoint(j); !bytes.Equal(got, blob2) {
		t.Fatalf("load after overwrite = %q", got)
	}
	st.DropCheckpoint(j)
	if _, ok := st.LoadCheckpoint(j); ok {
		t.Fatal("load hit after drop")
	}
	st.DropCheckpoint(j) // double drop is harmless
}

// TestCheckpointDirMadeOnDemand: a store makes checkpoints/ at its first
// save, not before, and a save after the directory was removed under the
// live store makes it again.
func TestCheckpointDirMadeOnDemand(t *testing.T) {
	dir := t.TempDir()
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ckDir := filepath.Join(dir, "checkpoints")
	j := sim.GridJob{Scenario: "uni", Alg: "bma", B: 2, Rep: 0}
	if _, ok := st.LoadCheckpoint(j); ok {
		t.Fatal("load hit before any save")
	}
	if _, err := os.Stat(ckDir); !os.IsNotExist(err) {
		t.Fatalf("checkpoints/ exists before the first save (stat: %v)", err)
	}
	for round := range 2 {
		blob := []byte{byte(round)}
		if err := st.SaveCheckpoint(j, blob); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got, ok := st.LoadCheckpoint(j); !ok || !bytes.Equal(got, blob) {
			t.Fatalf("round %d: load = (%v, %v), want %v", round, got, ok, blob)
		}
		if err := os.RemoveAll(ckDir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointHooksConcurrent: a grid's workers call a store's
// checkpoint hooks for their jobs at once, the first saves included, as
// a store-backed run on several workers does.
func TestCheckpointHooksConcurrent(t *testing.T) {
	dir := t.TempDir()
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: w}
			for i := range 20 {
				st.LoadCheckpoint(j)
				blob := []byte{byte(w), byte(i)}
				if err := st.SaveCheckpoint(j, blob); err != nil {
					t.Error(err)
					return
				}
				if got, ok := st.LoadCheckpoint(j); !ok || !bytes.Equal(got, blob) {
					t.Errorf("job %d round %d: load = (%v, %v), want %v", w, i, got, ok, blob)
					return
				}
				st.DropCheckpoint(j)
			}
		}()
	}
	wg.Wait()
	if left, _ := os.ReadDir(filepath.Join(dir, "checkpoints")); len(left) != 0 {
		t.Fatalf("%d checkpoint files left after every job dropped its own", len(left))
	}
}

// TestResumeInsideJobByteIdentical is the mid-job resume acceptance test:
// a checkpointing grid run cancelled in the middle of a job must, on
// resume, pick the job up from its checkpoint (not from scratch) and
// finish with a summary byte-identical to an uninterrupted run — and
// leave no checkpoint files behind.
func TestResumeInsideJobByteIdentical(t *testing.T) {
	specs := smallSpecs()
	base := t.TempDir()

	ref := runShard(t, filepath.Join(base, "ref"), specs, 4, report.Shard{})
	refCSV := summaryCSV(t, ref)
	ref.Close()

	ckDir := filepath.Join(base, "ck")
	st, err := report.Create(ckDir, newManifest(t, specs, 4, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the run right after the second checkpoint lands. The uni
	// group's first two jobs each save at request 512, the cancel fires
	// inside the second save, and the group's next job sees the cancelled
	// context before it feeds that chunk: two jobs are abandoned mid-replay
	// with their checkpoints on disk.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := st.GridOptions(sim.GridOptions{Workers: 1, ChunkSize: 256, CheckpointEvery: 400})
	innerSave := opt.SaveCheckpoint
	saves := 0
	opt.SaveCheckpoint = func(j sim.GridJob, blob []byte) error {
		if err := innerSave(j, blob); err != nil {
			return err
		}
		if saves++; saves == 2 {
			cancel()
		}
		return nil
	}
	if _, err := sim.RunGridContext(ctx, st.Manifest().Specs, opt); err == nil {
		t.Fatal("cancelled run reported success")
	}
	st.Close()
	ents, err := os.ReadDir(filepath.Join(ckDir, "checkpoints"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("no checkpoint left behind after cancel: %v (%d entries)", err, len(ents))
	}

	// Resume: the interrupted jobs must load their checkpoints and skip the
	// already-replayed prefix.
	re, err := report.Open(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	opt = re.GridOptions(sim.GridOptions{Workers: 1, ChunkSize: 256, CheckpointEvery: 400})
	innerLoad := opt.LoadCheckpoint
	loads := 0
	opt.LoadCheckpoint = func(j sim.GridJob) ([]byte, bool) {
		blob, ok := innerLoad(j)
		if ok {
			loads++
		}
		return blob, ok
	}
	if _, err := sim.RunGrid(re.Manifest().Specs, opt); err != nil {
		t.Fatal(err)
	}
	if loads != 2 {
		t.Fatalf("resume loaded %d checkpoints, want exactly 2", loads)
	}
	if missing, _ := re.Missing(); len(missing) != 0 {
		t.Fatalf("resumed store still missing %v", missing)
	}
	if got := summaryCSV(t, re); !bytes.Equal(got, refCSV) {
		t.Fatalf("resumed summary differs from uninterrupted run:\n--- resumed\n%s--- reference\n%s", got, refCSV)
	}
	// Completion dropped every checkpoint.
	if ents, err := os.ReadDir(filepath.Join(ckDir, "checkpoints")); err == nil && len(ents) != 0 {
		t.Fatalf("%d checkpoint files left after completed run", len(ents))
	}
}
