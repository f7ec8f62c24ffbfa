package report

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"obm/internal/sim"
)

// Result aggregates the store's completed jobs into grid rows, in the
// same canonical order a live sim.RunGrid over the manifest's specs uses.
// Because repetition values are folded in plan order, the deterministic
// columns of a resumed, sharded-and-merged, or uninterrupted run of the
// same grid are identical. The error is always nil.
func (s *Store) Result() (*sim.GridResult, error) {
	return s.plan.Aggregate(s.Outcomes()), nil
}

// WriteSummaryCSV emits the deterministic summary of a grid result: one
// row per aggregated (scenario, algorithm, b) cell, costs only. Wall-time
// columns are deliberately excluded so the file is byte-identical across
// resumed, sharded and uninterrupted executions of the same grid — it is
// the file the resume/merge equivalence tests compare.
func WriteSummaryCSV(w io.Writer, res *sim.GridResult) error {
	if _, err := fmt.Fprintln(w, "scenario,family,alg,b,racks,requests,reps,"+
		"routing_mean,routing_std,reconfig_mean,reconfig_std,total_mean,total_std"); err != nil {
		return err
	}
	for _, r := range res.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%.6g,%.6g,%.6g,%.6g,%.6g,%.6g\n",
			r.Scenario, r.Family, r.Alg, r.B, r.Racks, r.Requests, r.Routing.N,
			r.Routing.Mean, r.Routing.Std, r.Reconfig.Mean, r.Reconfig.Std,
			r.Total.Mean, r.Total.Std); err != nil {
			return err
		}
	}
	return nil
}

// WriteReport renders the store as a self-contained Markdown report:
// run metadata, one summary table per scenario (mean ± std over
// repetitions), and — when the store records cost curves — one ASCII
// cumulative-routing-cost chart per scenario.
func (s *Store) WriteReport(w io.Writer) error {
	m := s.manifest
	outcomes := s.Outcomes()
	res := s.plan.Aggregate(outcomes)
	missing, _ := s.Missing() // never fails: the plan is fixed at open

	name := m.Name
	if name == "" {
		name = "experiment grid"
	}
	fmt.Fprintf(w, "# Run report: %s\n\n", name)
	fmt.Fprintf(w, "| | |\n|---|---|\n")
	fmt.Fprintf(w, "| created | %s |\n", m.CreatedAt)
	fmt.Fprintf(w, "| go version | %s |\n", m.GoVersion)
	fmt.Fprintf(w, "| spec hash | `%.12s` |\n", m.SpecHash)
	fmt.Fprintf(w, "| shard | %s |\n", m.Shard)
	fmt.Fprintf(w, "| jobs | %d recorded, %d of this shard's %s missing |\n",
		s.Len(), len(missing), shardJobsLabel(m))
	fmt.Fprintf(w, "| scenarios | %d |\n\n", len(m.Specs))
	if len(missing) > 0 {
		fmt.Fprintf(w, "**Incomplete run** — %d jobs have not finished; re-run the grid "+
			"against this store to resume.\n\n", len(missing))
	}

	for _, spec := range m.Specs {
		fmt.Fprintf(w, "## %s\n\n", spec.Name)
		fmt.Fprintf(w, "Family `%s`, %d racks, %d requests, seed %d, α=%g.\n\n",
			spec.Family, spec.Racks, spec.Requests, spec.Seed, spec.Alpha)
		fmt.Fprintln(w, "| algorithm | b | routing cost | reconfig cost | total cost | time (ms) | reps |")
		fmt.Fprintln(w, "|---|---:|---|---|---|---:|---:|")
		for _, r := range res.Rows {
			if r.Scenario != spec.Name {
				continue
			}
			fmt.Fprintf(w, "| %s | %d | %s | %s | %s | %.2f | %d |\n",
				r.Alg, r.B, r.Routing.MeanStd(), r.Reconfig.MeanStd(),
				r.Total.MeanStd(), r.ElapsedMS.Mean, r.Routing.N)
		}
		fmt.Fprintln(w)
		if m.CurvePoints > 0 {
			curves := scenarioCurves(s.plan, outcomes, spec.Name)
			if len(curves) > 0 {
				fmt.Fprintf(w, "```text\n%s```\n\n",
					sim.ASCIIChart("cumulative routing cost (mean over reps)", curves, 64, 14))
			}
		}
	}
	return nil
}

// Render writes the store's summary.csv (deterministic per-cell costs)
// and report.md (tables + ASCII cost curves) into the store directory,
// returning the paths written. It is how a finished run documents itself
// — `experiments grid/merge/report` and the experiment service all call
// it.
func (s *Store) Render() (csvPath, mdPath string, err error) {
	res, err := s.Result()
	if err != nil {
		return "", "", err
	}
	csvPath = filepath.Join(s.dir, "summary.csv")
	if err := writeFileWith(csvPath, func(w io.Writer) error {
		return WriteSummaryCSV(w, res)
	}); err != nil {
		return "", "", err
	}
	mdPath = filepath.Join(s.dir, "report.md")
	if err := writeFileWith(mdPath, s.WriteReport); err != nil {
		return "", "", err
	}
	return csvPath, mdPath, nil
}

// writeFileWith streams write into path atomically (temp file + rename,
// like writeManifest): readers — including concurrent re-renders racing
// over an HTTP artifact endpoint — only ever see a complete file.
func writeFileWith(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// CellCurve is one aggregated cost curve: a (scenario, algorithm, b)
// cell's checkpointed cumulative costs averaged over its recorded
// repetitions. It is the JSON-friendly form the experiment service's
// curve endpoint returns.
type CellCurve struct {
	Scenario string    `json:"scenario"`
	Alg      string    `json:"alg"`
	B        int       `json:"b"`
	Reps     int       `json:"reps"`
	X        []int     `json:"x"`
	Routing  []float64 `json:"routing"`
	Reconfig []float64 `json:"reconfig"`
}

// CellCurves returns every cell's averaged cost curve, in canonical plan
// order. Cells with no recorded curves (or inconsistent checkpoint lists)
// are skipped; a store created with CurvePoints == 0 yields none. The
// error is always nil.
func (s *Store) CellCurves() ([]CellCurve, error) {
	outcomes := s.Outcomes()
	var out []CellCurve
	for _, spec := range s.manifest.Specs {
		for _, c := range scenarioCurves(s.plan, outcomes, spec.Name) {
			out = append(out, CellCurve{
				Scenario: spec.Name,
				Alg:      c.Alg,
				B:        c.B,
				Reps:     c.Avg.Reps,
				X:        c.Avg.X,
				Routing:  c.Avg.Routing,
				Reconfig: c.Avg.Reconfig,
			})
		}
	}
	return out, nil
}

func shardJobsLabel(m Manifest) string {
	if m.Shard.IsFull() {
		return fmt.Sprintf("%d jobs", m.TotalJobs)
	}
	return fmt.Sprintf("slice of %d jobs", m.TotalJobs)
}

// scenarioCurves averages each of one scenario's cells' recorded cost
// curves over its repetitions, in cell order — the input of the report's
// ASCII charts. Cells whose repetitions carry no (or inconsistent) curves
// are skipped.
func scenarioCurves(plan *sim.GridPlan, outcomes map[sim.GridJob]sim.JobOutcome, scenario string) []sim.Curve {
	type acc struct {
		x        []int
		routing  []float64
		reconfig []float64
		reps     int
		bad      bool
	}
	accs := make([]acc, len(plan.Cells))
	for i, j := range plan.Jobs {
		ci := plan.CellOf[i]
		if plan.Cells[ci].Scenario != scenario {
			continue
		}
		o, ok := outcomes[j]
		if !ok || len(o.X) == 0 {
			continue
		}
		a := &accs[ci]
		if a.reps == 0 {
			a.x = o.X
			a.routing = append([]float64(nil), o.RoutingCurve...)
			a.reconfig = append([]float64(nil), o.ReconfigCurve...)
			a.reps = 1
			continue
		}
		if len(o.X) != len(a.x) {
			a.bad = true
			continue
		}
		for k := range a.routing {
			a.routing[k] += o.RoutingCurve[k]
			a.reconfig[k] += o.ReconfigCurve[k]
		}
		a.reps++
	}
	var curves []sim.Curve
	for ci := range accs {
		a := &accs[ci]
		if a.reps == 0 || a.bad {
			continue
		}
		for k := range a.routing {
			a.routing[k] /= float64(a.reps)
			a.reconfig[k] /= float64(a.reps)
		}
		cell := plan.Cells[ci]
		curves = append(curves, sim.Curve{
			Alg: cell.Alg,
			B:   cell.B,
			Avg: sim.Averaged{
				Label:    fmt.Sprintf("%s(b=%d)", cell.Alg, cell.B),
				X:        a.x,
				Routing:  a.routing,
				Reconfig: a.reconfig,
				Reps:     a.reps,
			},
		})
	}
	return curves
}
