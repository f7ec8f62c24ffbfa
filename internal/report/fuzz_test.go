package report_test

import (
	"bytes"
	"encoding/json"
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
