package figures

import (
	"testing"

	"obm/internal/sim"
)

func TestExtrasEnumerate(t *testing.T) {
	extras := Extras()
	if len(extras) != 5 {
		t.Fatalf("got %d extras, want 5", len(extras))
	}
	all := AllWithExtras()
	if len(all) != 12+5 {
		t.Fatalf("AllWithExtras = %d, want 17", len(all))
	}
	if _, err := ByID("ext-rotor"); err != nil {
		t.Fatal(err)
	}
}

func TestExtRotorShape(t *testing.T) {
	f, err := ByID("ext-rotor")
	if err != nil {
		t.Fatal(err)
	}
	cfg, specs, err := f.Build(0.02, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunExperiment(cfg, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	finals := res.FinalRouting()
	if finals["r-bma(b=6)"] >= finals["rotor(b=6)"] {
		t.Fatalf("demand-aware should beat rotor: %v", finals)
	}
	if finals["rotor(b=6)"] >= finals["oblivious(b=0)"] {
		t.Fatalf("rotor should still beat oblivious: %v", finals)
	}
}

func TestExtAlphaMonotone(t *testing.T) {
	f, _ := ByID("ext-alpha")
	cfg, specs, err := f.Build(0.02, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunExperiment(cfg, specs, 4)
	if err != nil {
		t.Fatal(err)
	}
	finals := res.FinalRouting()
	// Smaller α reconfigures more eagerly and should achieve lower routing
	// cost (the total-cost trade-off is what the reconfig column captures).
	if finals["r-bma-a5(b=6)"] > finals["r-bma-a120(b=6)"] {
		// Routing cost must not increase when reconfiguration is cheaper.
		t.Logf("finals: %v", finals)
	}
	if finals["r-bma-a5(b=6)"] >= finals["r-bma-a120(b=6)"] {
		t.Fatalf("cheap α should give lower routing cost: %v", finals)
	}
}

func TestAllExtrasBuildAndRunTiny(t *testing.T) {
	for _, f := range Extras() {
		f := f
		t.Run(f.ID, func(t *testing.T) {
			cfg, specs, err := f.Build(0.005, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunExperiment(cfg, specs, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Curves) == 0 {
				t.Fatal("no curves produced")
			}
		})
	}
}
