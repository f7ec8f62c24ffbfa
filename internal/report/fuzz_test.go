package report_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
)

// FuzzSubmitSpecs feeds arbitrary bytes to what every job submission runs
// on its body: sim.ReadScenarios, then NewManifest's planning and
// validation. Neither may panic, and an accepted manifest's specs,
// re-encoded and submitted again, must give the same SpecHash. The
// corpus under testdata/fuzz/FuzzSubmitSpecs holds the paper's four
// family specs, the registered presets and a 1-rack microsoft body.
func FuzzSubmitSpecs(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := sim.ReadScenarios(bytes.NewReader(data))
		if err != nil {
			return
		}
		m, err := report.NewManifest("fuzz", specs, 0, report.Shard{})
		if err != nil {
			return
		}
		body, err := json.Marshal(m.Specs)
		if err != nil {
			t.Fatalf("encoding accepted specs: %v", err)
		}
		again, err := sim.ReadScenarios(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("re-encoded specs do not decode: %v\n%s", err, body)
		}
		m2, err := report.NewManifest("fuzz", again, 0, report.Shard{})
		if err != nil {
			t.Fatalf("re-encoded specs rejected: %v\n%s", err, body)
		}
		if m2.SpecHash != m.SpecHash {
			t.Fatalf("SpecHash %s after re-encoding, %s before\n%s", m2.SpecHash, m.SpecHash, body)
		}
	})
}

// FuzzAbsorb feeds arbitrary bytes to Store.Absorb, the decoder of the
// shard logs fleet workers upload. It may reject them but never panic;
// whatever it accepts adds only planned, structurally valid records,
// which reopen as they were absorbed; absorbing the same bytes again adds
// nothing; and no upload, accepted or rejected, changes an outcome the
// store already held. The store starts with one outcome the corpus's
// shard log does not carry. The corpus under testdata/fuzz/FuzzAbsorb
// holds a valid shard log (wal frames), the same log with a torn last
// record, with a conflicting duplicate appended and with a digit changed
// under its CRC, a job outside the plan and a record whose curve lengths
// disagree.
func FuzzAbsorb(f *testing.F) {
	m, err := report.NewManifest("fuzz", smallSpecs(), 2, report.Shard{})
	if err != nil {
		f.Fatal(err)
	}
	plan, err := m.Plan()
	if err != nil {
		f.Fatal(err)
	}
	planned := make(map[sim.GridJob]bool)
	for _, j := range plan.Jobs {
		planned[j] = true
	}
	held := sim.GridJob{Scenario: "uni", Alg: "r-bma", B: 2, Rep: 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "store")
		st, err := report.Create(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.Append(held, sim.JobOutcome{Routing: 10, Reconfig: 5}); err != nil {
			t.Fatal(err)
		}
		before := st.Outcomes()

		added, absorbErr := st.Absorb(bytes.NewReader(data))
		after := st.Outcomes()
		for j, o := range before {
			if !equalOutcome(after[j], o) {
				t.Fatalf("absorb (err %v) changed the held outcome of %s: %+v -> %+v", absorbErr, j, o, after[j])
			}
		}
		if len(after) != len(before)+added {
			t.Fatalf("absorb reported %d added records, the store grew by %d", added, len(after)-len(before))
		}
		for j, o := range after {
			if !planned[j] {
				t.Fatalf("absorb (err %v) added %s, a job outside the plan", absorbErr, j)
			}
			if len(o.RoutingCurve) != len(o.X) || len(o.ReconfigCurve) != len(o.X) {
				t.Fatalf("absorb (err %v) added %s with curve lengths x=%d routing=%d reconfig=%d",
					absorbErr, j, len(o.X), len(o.RoutingCurve), len(o.ReconfigCurve))
			}
		}
		if absorbErr == nil {
			if again, err := st.Absorb(bytes.NewReader(data)); err != nil || again != 0 {
				t.Fatalf("absorbing accepted bytes again: added %d, err %v; want 0, nil", again, err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := report.Open(dir)
		if err != nil {
			t.Fatalf("store does not reopen after absorb (err %v): %v", absorbErr, err)
		}
		defer reopened.Close()
		got := reopened.Outcomes()
		for j, o := range after {
			if !equalOutcome(got[j], o) {
				t.Fatalf("%s reopened as %+v, absorbed as %+v", j, got[j], o)
			}
		}
		if len(got) != len(after) {
			t.Fatalf("reopened store holds %d outcomes, absorb left %d in memory", len(got), len(after))
		}
	})
}

// FuzzStoreOpen feeds arbitrary bytes to Open as the job log of a store
// with a valid manifest. Open may reject them but never panic; when it
// accepts them, it has trimmed any torn tail for good, so a second Open
// finds nothing to trim and yields the same outcomes. The corpus under
// testdata/fuzz/FuzzStoreOpen holds a valid log, an empty file, a bare
// header, torn headers, lengths and records, CRC mismatches mid-log and
// in the last record, an oversized length, records that are not JSON or
// whose curve lengths disagree, a duplicate job and a job outside the
// plan.
func FuzzStoreOpen(f *testing.F) {
	m, err := report.NewManifest("fuzz", smallSpecs(), 2, report.Shard{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := filepath.Join(t.TempDir(), "store")
		st, err := report.Create(dir, m)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		if err := os.WriteFile(st.LogPath(), data, 0o644); err != nil {
			t.Fatal(err)
		}
		first, err := report.Open(dir)
		if err != nil {
			return
		}
		want := first.Outcomes()
		if err := first.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := report.Open(dir)
		if err != nil {
			t.Fatalf("second Open of an accepted log: %v", err)
		}
		defer again.Close()
		if again.Truncated() != 0 {
			t.Fatalf("second Open trimmed %d more records", again.Truncated())
		}
		got := again.Outcomes()
		if len(got) != len(want) {
			t.Fatalf("second Open holds %d outcomes, the first %d", len(got), len(want))
		}
		for j, o := range want {
			if !equalOutcome(got[j], o) {
				t.Fatalf("%s reopened as %+v, first opened as %+v", j, got[j], o)
			}
		}
	})
}

// equalOutcome compares every field of two outcomes; a nil and an empty
// curve are equal, as they are on disk.
func equalOutcome(a, b sim.JobOutcome) bool {
	return a.Routing == b.Routing && a.Reconfig == b.Reconfig && a.ElapsedMS == b.ElapsedMS &&
		slices.Equal(a.X, b.X) && slices.Equal(a.RoutingCurve, b.RoutingCurve) && slices.Equal(a.ReconfigCurve, b.ReconfigCurve)
}
