package report_test

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
)

// runStore creates a store of smallSpecs for shard at dir, runs it to
// completion and closes it.
func runStore(t *testing.T, dir string, shard report.Shard) {
	t.Helper()
	st, err := report.Create(dir, newManifest(t, smallSpecs(), 2, shard))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(sim.GridOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// setFormatVersion rewrites dir's manifest as format version v.
func setFormatVersion(t *testing.T, dir string, v int) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	field := regexp.MustCompile(`"format_version": [0-9]+,`)
	if !field.Match(blob) {
		t.Fatalf("%s has no format_version", path)
	}
	blob = field.ReplaceAll(blob, []byte(`"format_version": `+strconv.Itoa(v)+`,`))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// render opens dir and returns its rendered summary.csv.
func render(t *testing.T, dir string) []byte {
	t.Helper()
	st, err := report.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
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

// TestFormatV2Stores: format 3 changed only what a shard's index names
// (a contiguous run of jobs, not the plan indices congruent to it modulo
// the count). So a v2 full-grid store still opens and renders as it did,
// and a v2 shard store fails Open, and a merge of it, with an error that
// names the rule change.
func TestFormatV2Stores(t *testing.T) {
	root := t.TempDir()
	full := filepath.Join(root, "full")
	runStore(t, full, report.Shard{})
	want := render(t, full)
	setFormatVersion(t, full, 2)
	if got := render(t, full); !bytes.Equal(got, want) {
		t.Fatalf("v2 full store renders\n%s\nwant\n%s", got, want)
	}

	var shards []string
	for k := range 2 {
		dir := filepath.Join(root, "shard"+strconv.Itoa(k))
		runStore(t, dir, report.Shard{Index: k, Count: 2})
		shards = append(shards, dir)
	}
	if _, err := report.Merge(filepath.Join(root, "merged-v3"), shards...); err != nil {
		t.Fatal(err)
	}
	setFormatVersion(t, shards[1], 2)
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Open", func() error { _, err := report.Open(shards[1]); return err }},
		{"Merge", func() error { _, err := report.Merge(filepath.Join(root, "merged-v2"), shards...); return err }},
	} {
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), "v2 shard store") || !strings.Contains(err.Error(), "modulo") {
			t.Errorf("%s of a v2 shard store: err = %v, want the shard-rule change named", c.name, err)
		}
	}
	setFormatVersion(t, full, 1)
	if _, err := report.Open(full); err == nil || !strings.Contains(err.Error(), "store format v1, this build reads v3") {
		t.Errorf("Open of a v1 store: err = %v", err)
	}
}
