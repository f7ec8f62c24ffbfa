package report_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obm/internal/report"
	"obm/internal/wal/waltest"
)

// TestAbsorbShardLog: a full-grid store absorbs a shard store's uploaded
// log, and the result matches a Merge of the same sources.
func TestAbsorbShardLog(t *testing.T) {
	specs := smallSpecs()
	base := t.TempDir()
	s0 := runShard(t, filepath.Join(base, "s0"), specs, 2, report.Shard{Index: 0, Count: 2})
	s1 := runShard(t, filepath.Join(base, "s1"), specs, 2, report.Shard{Index: 1, Count: 2})
	s0.Close()
	s1.Close()

	dst, err := report.Create(filepath.Join(base, "dst"), newManifest(t, specs, 2, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for _, src := range []*report.Store{s0, s1} {
		blob, err := os.ReadFile(src.LogPath())
		if err != nil {
			t.Fatal(err)
		}
		added, err := dst.Absorb(bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if added != src.Len() {
			t.Fatalf("absorbed %d records from a %d-record shard log", added, src.Len())
		}
	}
	if missing, _ := dst.Missing(); len(missing) != 0 {
		t.Fatalf("absorbed store still missing %v", missing)
	}

	merged, err := report.Merge(filepath.Join(base, "merged"), filepath.Join(base, "s0"), filepath.Join(base, "s1"))
	if err != nil {
		t.Fatal(err)
	}
	defer merged.Close()
	if got, want := summaryCSV(t, dst), summaryCSV(t, merged); !bytes.Equal(got, want) {
		t.Fatalf("absorbed summary differs from merged:\n--- absorbed\n%s--- merged\n%s", got, want)
	}
}

// TestAbsorbDuplicatesVerify: re-absorbing the identical log is a no-op
// (at-least-once delivery), while a log whose overlapping record
// disagrees on a deterministic field is rejected.
func TestAbsorbDuplicatesVerify(t *testing.T) {
	specs := smallSpecs()
	base := t.TempDir()
	src := runShard(t, filepath.Join(base, "src"), specs, 0, report.Shard{})
	defer src.Close()
	blob, err := os.ReadFile(src.LogPath())
	if err != nil {
		t.Fatal(err)
	}

	dst, err := report.Create(filepath.Join(base, "dst"), newManifest(t, specs, 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if added, err := dst.Absorb(bytes.NewReader(blob)); err != nil || added != src.Len() {
		t.Fatalf("first absorb: added=%d err=%v", added, err)
	}
	before := dst.Len()
	if added, err := dst.Absorb(bytes.NewReader(blob)); err != nil || added != 0 {
		t.Fatalf("duplicate absorb: added=%d err=%v, want 0 and nil", added, err)
	}
	if dst.Len() != before {
		t.Fatalf("duplicate absorb changed the store: %d -> %d records", before, dst.Len())
	}

	// Tamper with one routing cost: the absorb must fail loudly, with
	// the sentinel that distinguishes broken determinism from a merely
	// broken upload.
	first := string(waltest.Records(t, blob)[0])
	tampered := strings.Replace(first, `"routing":`, `"routing":1e99, "was":`, 1)
	if _, err := dst.Absorb(bytes.NewReader(waltest.Image([]byte(tampered)))); !errors.Is(err, report.ErrOutcomeConflict) {
		t.Fatalf("conflicting absorb not rejected with ErrOutcomeConflict: %v", err)
	}
}

// TestAbsorbRejectsGarbage: unframed bytes, malformed records and jobs
// outside the store's grid are errors — an upload is a complete message,
// not a crash artifact, so there is no torn-tail tolerance here.
func TestAbsorbRejectsGarbage(t *testing.T) {
	dst, err := report.Create(filepath.Join(t.TempDir(), "dst"), newManifest(t, smallSpecs(), 0, report.Shard{}))
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for _, bad := range [][]byte{
		[]byte("{not json\n"),
		waltest.Image([]byte("{not json")),
		waltest.Image([]byte(`{"scenario":"uni","alg":"r-bma","b":2,"rep":0,"outcome":{"routing":1,"x":[1,2],"routing_curve":[1],"reconfig_curve":[1,2]}}`)),
		waltest.Image([]byte(`{"scenario":"nope","alg":"r-bma","b":2,"rep":0,"outcome":{"routing":1}}`)),
	} {
		if _, err := dst.Absorb(bytes.NewReader(bad)); err == nil {
			t.Errorf("absorb accepted %q", bad)
		}
	}
	if dst.Len() != 0 {
		t.Fatalf("rejected absorbs still appended %d records", dst.Len())
	}
}
