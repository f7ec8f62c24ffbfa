package report_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/snap"
)

// directSummary runs specs uninterrupted into a fresh store and returns
// its rendered summary.csv: what every damaged-then-recovered store must
// reproduce byte for byte, if it produces a summary at all.
func directSummary(t *testing.T, specs []sim.ScenarioSpec, curvePoints int) []byte {
	t.Helper()
	st := runShard(t, filepath.Join(t.TempDir(), "direct"), specs, curvePoints, report.Shard{})
	defer st.Close()
	return renderedSummary(t, st)
}

func renderedSummary(t *testing.T, st *report.Store) []byte {
	t.Helper()
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

// TestFlippedDigitIsNeverAResult changes one digit of a recorded routing
// cost inside a finished store's job log. The record still parses, so
// only its checksum can tell: Open must fail with snap.ErrCorrupt rather
// than render a wrong mean.
func TestFlippedDigitIsNeverAResult(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st := runShard(t, dir, smallSpecs(), 0, report.Shard{})
	st.Close()
	log, err := os.ReadFile(st.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte(`"routing":`)
	i := bytes.Index(log, key) + len(key)
	if i < len(key) || log[i] < '1' || log[i] > '9' {
		t.Fatalf("no nonzero routing cost to flip in %q", log)
	}
	log[i] = '1' + (log[i]-'1'+1)%9 // another nonzero digit: still valid JSON
	if err := os.WriteFile(st.LogPath(), log, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := report.Open(dir)
	if errors.Is(err, snap.ErrCorrupt) {
		return
	}
	if err != nil {
		t.Fatalf("flipped digit: %v, want an error wrapping snap.ErrCorrupt", err)
	}
	defer re.Close()
	t.Fatalf("a store with a flipped routing digit opened and rendered:\n%s", renderedSummary(t, re))
}

// sweepSpecs is one family's small finished grid for the corruption
// sweep: 6 jobs, curves on.
func sweepSpecs(family string) []sim.ScenarioSpec {
	return []sim.ScenarioSpec{{
		Name: "sweep-" + family, Family: family,
		Racks: 8, Requests: 600, Seed: 77,
		Bs: []int{2, 3}, Reps: 2,
		Algs: []string{"r-bma", "oblivious"},
	}}
}

// TestStoreCorruptionSweep damages a finished store one way at a time,
// on a fresh copy per trial: manifest.json and the job log are each cut
// at every byte offset, and have each byte's low bit flipped (which
// turns a digit into another digit). Every trial opens the store,
// resumes its grid and renders it. The outcome must be a summary.csv
// byte-identical to the uninterrupted run's, or an error — for the job
// log one wrapping snap.ErrCorrupt — and never a different summary. The
// uniform family is swept at every offset; outside -short the other
// paper families are swept at every 7th.
func TestStoreCorruptionSweep(t *testing.T) {
	families := []string{"uniform", "facebook-database", "microsoft", "phase-shift"}
	if testing.Short() {
		families = families[:1]
	}
	for i, family := range families {
		stride := 1
		if i > 0 {
			stride = 7
		}
		t.Run(family, func(t *testing.T) { corruptionSweep(t, sweepSpecs(family), stride) })
	}
}

func corruptionSweep(t *testing.T, specs []sim.ScenarioSpec, stride int) {
	const curvePoints = 2
	want := directSummary(t, specs, curvePoints)
	src := runShard(t, filepath.Join(t.TempDir(), "src"), specs, curvePoints, report.Shard{})
	src.Close()
	logName := filepath.Base(src.LogPath())
	files := map[string][]byte{}
	for _, name := range []string{"manifest.json", logName} {
		blob, err := os.ReadFile(filepath.Join(src.Dir(), name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = blob
	}

	dir := filepath.Join(t.TempDir(), "trial")
	trial := func(damaged string, blob []byte) ([]byte, error) {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, orig := range files {
			if name == damaged {
				orig = blob
			}
			if err := os.WriteFile(filepath.Join(dir, name), orig, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, err := report.Open(dir)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		if _, err := st.Run(sim.GridOptions{Workers: 1}); err != nil {
			return nil, err
		}
		return renderedSummary(t, st), nil
	}

	trials := 0
	for name, orig := range files {
		check := func(what string, blob []byte) {
			trials++
			got, err := trial(name, blob)
			switch {
			case err != nil && name == logName && !errors.Is(err, snap.ErrCorrupt):
				t.Fatalf("%s %s: %v, want an error wrapping snap.ErrCorrupt", name, what, err)
			case err == nil && !bytes.Equal(got, want):
				t.Fatalf("%s %s: a different summary\n--- got\n%s--- direct\n%s", name, what, got, want)
			}
		}
		for off := 0; off < len(orig); off += stride {
			check(fmt.Sprintf("cut at byte %d", off), orig[:off])
			flipped := bytes.Clone(orig)
			flipped[off] ^= 1
			check(fmt.Sprintf("with byte %d flipped", off), flipped)
		}
	}
	t.Logf("%d trials over %d bytes of manifest and job log", trials, len(files["manifest.json"])+len(files[logName]))
}
