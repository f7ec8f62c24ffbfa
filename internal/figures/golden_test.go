package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"obm/internal/sim"
)

// figureCostsGolden pins the cost columns of every figure's CSV
// (experiment,alg,b,requests,routing_cost,reconfig_cost,total_cost — all
// but elapsed_ms) at goldenScale with goldenReps repetitions, as the
// SHA-256 of those columns. Regenerate with
//
//	OBM_PRINT_GOLDEN=1 go test ./internal/figures -run TestFigureCostsGolden -v
//
// and paste the printed literal, but only when a change to the figures'
// costs is intended and called out in the commit message.
var figureCostsGolden = map[string]string{
	"fig1a":      "d15288978ae7c0909520f334719966b24774148dc05e274fd161a6f19b7faa08",
	"fig1b":      "60d70c25dd9b5a65db610c5086807d6d889dffe3e8e3551296748114f71da9a4",
	"fig1c":      "86df147857995834d036ca716ce1c07d5f85659083ae3b60b79c56fb2b677bf7",
	"fig2a":      "42d79fb2e5c945f351422af804a70517a025cb21823a082c5012c5024e9fa2c8",
	"fig2b":      "90e69e9a646857908c2a6f50ca6fea417c8fc4ef19047f85bdb21a502f17f5c8",
	"fig2c":      "f182d59c293462e1e0ec22ee0c8c6216dae15e8b4a5393c47b23b9055352f3ed",
	"fig3a":      "3e45dac494b6a2ec2fa33e96d81904937abda6f04b36aeb4e97912a1537170fe",
	"fig3b":      "2eca190112e87f8c13557ec6573d683c6b2561dd4c6db9198a3c146bc3a573a2",
	"fig3c":      "4666c47d859d20f6aa0bc6eba559b62958a251b0204cb9214a3971e5edda6fe4",
	"fig4a":      "1dae35a1f3abc084cbe7ad870e86d2f7cb4fa820cd6b07fbf3b6315c07deb137",
	"fig4b":      "fbb704d0427222ec2a7557e255772e400666b1ea14d49ec960cdf9743392726c",
	"fig4c":      "438f0e0cbc7913df995d7468be8d2ee5f002011de794c818a7d199059621c93e",
	"ext-policy": "86a1e898130a3671c97c8fdb69b7d94775574aad5e89961061a5e0b730e13b4b",
	"ext-lazy":   "a5fd16befc7e1461dfccdf7f8a36687d6f61e391741187fa544abfce0c1fca33",
	"ext-alpha":  "134ecc93bdacd3fa2b112ac2d099c570595207c1c95261d3e7e1e39a47e598bc",
	"ext-rotor":  "9befe4d8c1f1268858e7b88b723fa474bfac37789e51df7b9d18f4a2495cfc91",
	"ext-shift":  "2963a559a60168226f9dc502e03e1e46d0b5ada66a7935ac5ec4e53db908c73f",
}

const (
	goldenScale = 0.02
	goldenReps  = 2
)

// costColumns renders a figure's CSV and keeps its first seven columns.
func costColumns(t *testing.T, f Figure) []byte {
	t.Helper()
	cfg, specs, err := f.Build(goldenScale, goldenReps, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunExperiment(cfg, specs, 2)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, line := range strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n") {
		fields := strings.Split(line, ",")
		out.WriteString(strings.Join(fields[:7], ","))
		out.WriteByte('\n')
	}
	return out.Bytes()
}

func TestFigureCostsGolden(t *testing.T) {
	printMode := os.Getenv("OBM_PRINT_GOLDEN") != ""
	figs := AllWithExtras()
	if !printMode && len(figureCostsGolden) != len(figs) {
		t.Fatalf("golden table has %d figures, want %d — regenerate with OBM_PRINT_GOLDEN=1", len(figureCostsGolden), len(figs))
	}
	var lit strings.Builder
	for _, f := range figs {
		sum := sha256.Sum256(costColumns(t, f))
		got := hex.EncodeToString(sum[:])
		if printMode {
			fmt.Fprintf(&lit, "\t%q: %q,\n", f.ID, got)
			continue
		}
		if want := figureCostsGolden[f.ID]; got != want {
			t.Errorf("%s: cost columns hash %s, want %s", f.ID, got, want)
		}
	}
	if printMode {
		fmt.Printf("var figureCostsGolden = map[string]string{\n%s}\n", lit.String())
	}
}
