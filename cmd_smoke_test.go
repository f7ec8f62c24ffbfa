package obm

// Smoke tests for the runnable entry points: every binary under cmd/ and
// every example under examples/ must build, run with tiny inputs, exit
// zero, and print well-formed output. These catch the classic failure mode
// of library-only refactors — internal packages pass their tests while the
// binaries no longer compile or crash at startup.

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// buildBinary compiles a main package into t's temp dir and returns the
// binary path.
func buildBinary(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./%s failed: %v\n%s", pkg, err, out)
	}
	return bin
}

// run executes the binary and returns its stdout+stderr, failing the test
// on a non-zero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s failed: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestCmdBmatchSmoke(t *testing.T) {
	bin := buildBinary(t, "cmd/bmatch")
	for _, alg := range []string{"r-bma", "bma", "oblivious", "so-bma"} {
		out := run(t, bin, "-alg", alg, "-racks", "12", "-requests", "2000", "-b", "3")
		for _, want := range []string{"trace:", "algorithm:", "routing cost:"} {
			if !strings.Contains(out, want) {
				t.Errorf("-alg %s: output missing %q:\n%s", alg, want, out)
			}
		}
	}
}

// TestCmdBmatchReadsBinaryTrace: a trace tracegen writes in the binary
// format replays in bmatch to the same costs as the same trace in CSV,
// and tracegen -analyze reads it to the same statistics.
func TestCmdBmatchReadsBinaryTrace(t *testing.T) {
	tracegen := buildBinary(t, "cmd/tracegen")
	bmatch := buildBinary(t, "cmd/bmatch")
	dir := t.TempDir()
	gen := []string{"-workload", "microsoft", "-racks", "12", "-requests", "3000", "-seed", "4"}
	costs := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "cost") || strings.Contains(line, "final matching") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	stats := func(out string) string { _, after, _ := strings.Cut(out, "\n"); return after }
	var gotCosts, gotStats []string
	for _, format := range []string{"csv", "bin"} {
		file := filepath.Join(dir, "t."+format)
		run(t, tracegen, append(gen, "-format", format, "-out", file)...)
		var out string
		for _, alg := range []string{"r-bma", "so-bma"} {
			out += costs(run(t, bmatch, "-trace", file, "-alg", alg, "-b", "3"))
		}
		if !strings.Contains(out, "routing cost:") {
			t.Fatalf("bmatch -trace %s printed no costs:\n%s", file, out)
		}
		gotCosts = append(gotCosts, out)
		gotStats = append(gotStats, stats(run(t, tracegen, "-analyze", file)))
	}
	if gotCosts[0] != gotCosts[1] {
		t.Errorf("binary trace costs differ from CSV:\ncsv:\n%s\nbin:\n%s", gotCosts[0], gotCosts[1])
	}
	// The first line names the trace, which only the CSV format records.
	if gotStats[0] != gotStats[1] {
		t.Errorf("binary trace statistics differ from CSV:\ncsv:\n%s\nbin:\n%s", gotStats[0], gotStats[1])
	}
}

func TestCmdTracegenSmoke(t *testing.T) {
	bin := buildBinary(t, "cmd/tracegen")
	csv := filepath.Join(t.TempDir(), "trace.csv")
	out := run(t, bin, "-workload", "facebook-database", "-racks", "10", "-requests", "500", "-out", csv)
	if !strings.Contains(out, "500") {
		t.Errorf("tracegen summary missing request count:\n%s", out)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 500 {
		t.Fatalf("trace CSV has %d lines, want >= 500", len(lines))
	}
	// The generated trace must round-trip through the analyzer.
	out = run(t, bin, "-analyze", csv)
	if !strings.Contains(out, "requests") {
		t.Errorf("analyze output malformed:\n%s", out)
	}
}

func TestCmdExperimentsSmoke(t *testing.T) {
	bin := buildBinary(t, "cmd/experiments")
	outdir := t.TempDir()
	out := run(t, bin, "-figure", "fig1a", "-scale", "0.01", "-reps", "1", "-outdir", outdir, "-chart=false")
	if !strings.Contains(out, "fig1a") {
		t.Errorf("experiments output missing figure id:\n%s", out)
	}
	entries, err := filepath.Glob(filepath.Join(outdir, "*"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("experiments wrote no output files in %s (err=%v)", outdir, err)
	}
	for _, f := range entries {
		info, err := os.Stat(f)
		if err != nil || info.Size() == 0 {
			t.Errorf("output file %s is empty or unreadable (err=%v)", f, err)
		}
	}
}

func TestCmdExperimentsGridSmoke(t *testing.T) {
	bin := buildBinary(t, "cmd/experiments")
	out := run(t, bin, "grid", "-list")
	for _, want := range []string{"scenarios:", "families:", "diurnal", "hotspot", "tenant-mix", "algorithms:"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid -list output missing %q:\n%s", want, out)
		}
	}
	outdir := t.TempDir()
	out = run(t, bin, "grid", "-scenario", "hotspot-migration,diurnal-swing",
		"-scale", "0.02", "-reps", "1", "-workers", "2", "-outdir", outdir,
		"-format", "both", "-progress=false")
	for _, want := range []string{"hotspot-migration", "diurnal-swing", "grid:"} {
		if !strings.Contains(out, want) {
			t.Errorf("grid output missing %q:\n%s", want, out)
		}
	}
	for _, name := range []string{"grid.csv", "grid.json"} {
		info, err := os.Stat(filepath.Join(outdir, name))
		if err != nil || info.Size() == 0 {
			t.Errorf("grid output %s missing or empty (err=%v)", name, err)
		}
	}
	// A JSON scenario file must drive the same path.
	specFile := filepath.Join(t.TempDir(), "specs.json")
	spec := `[{"name":"tiny","family":"uniform","racks":8,"requests":2000,"seed":1,"bs":[2],"reps":1,"algs":["bma"]}]`
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, bin, "grid", "-scenarios", specFile, "-outdir", t.TempDir(), "-progress=false")
	if !strings.Contains(out, "tiny") {
		t.Errorf("grid -scenarios output missing scenario name:\n%s", out)
	}
}

// TestCmdExperimentsStoreSmoke drives the durable-run workflow through
// the CLI: two shard stores, a merge, a no-op resume of the merged store,
// and a rendered report.
func TestCmdExperimentsStoreSmoke(t *testing.T) {
	bin := buildBinary(t, "cmd/experiments")
	base := t.TempDir()
	gridArgs := func(extra ...string) []string {
		return append([]string{"grid", "-scenario", "uniform-baseline", "-scale", "0.02",
			"-outdir", filepath.Join(base, "out"), "-progress=false"}, extra...)
	}
	run(t, bin, gridArgs("-store", filepath.Join(base, "s0"), "-shard", "0/2")...)
	run(t, bin, gridArgs("-store", filepath.Join(base, "s1"), "-shard", "1/2")...)

	out := run(t, bin, "merge", "-out", filepath.Join(base, "m"),
		filepath.Join(base, "s0"), filepath.Join(base, "s1"))
	if !strings.Contains(out, "0 missing") {
		t.Errorf("merge left jobs missing:\n%s", out)
	}
	for _, name := range []string{"manifest.json", "jobs.log", "summary.csv", "report.md"} {
		info, err := os.Stat(filepath.Join(base, "m", name))
		if err != nil || info.Size() == 0 {
			t.Errorf("merged store %s missing or empty (err=%v)", name, err)
		}
	}

	// Resuming the complete merged store must execute nothing new.
	out = run(t, bin, gridArgs("-store", filepath.Join(base, "m"), "-resume")...)
	if !strings.Contains(out, "resuming") {
		t.Errorf("resume did not report recorded jobs:\n%s", out)
	}

	out = run(t, bin, "report", "-store", filepath.Join(base, "m"), "-stdout")
	for _, want := range []string{"# Run report:", "## uniform-baseline", "| r-bma |"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}

	// Guard rails: clobbering without -resume, and mismatched resumes.
	cmd := exec.Command(bin, gridArgs("-store", filepath.Join(base, "m"))...)
	if msg, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("re-running into an existing store without -resume succeeded:\n%s", msg)
	}
	cmd = exec.Command(bin, gridArgs("-store", filepath.Join(base, "m"), "-resume", "-scale", "0.03")...)
	if msg, err := cmd.CombinedOutput(); err == nil || !strings.Contains(string(msg), "different grid") {
		t.Errorf("resume with different scale not rejected (err=%v):\n%s", err, msg)
	}
}

func TestExamplesSmoke(t *testing.T) {
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no examples found")
	}
	for _, dir := range examples {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			t.Parallel()
			bin := buildBinary(t, dir)
			out := run(t, bin)
			if len(strings.TrimSpace(out)) == 0 {
				t.Fatal("example produced no output")
			}
			if strings.Contains(strings.ToLower(out), "panic") {
				t.Fatalf("example output mentions a panic:\n%s", out)
			}
		})
	}
}

// TestCmdTracegenStreamSmoke: -stream must write byte-identical output to
// the materialized path for the same parameters, in both formats.
func TestCmdTracegenStreamSmoke(t *testing.T) {
	bin := buildBinary(t, "cmd/tracegen")
	dir := t.TempDir()
	for _, workload := range []string{"uniform", "facebook-hadoop"} {
		mat := filepath.Join(dir, workload+"-mat.csv")
		str := filepath.Join(dir, workload+"-str.csv")
		args := []string{"-workload", workload, "-racks", "10", "-requests", "800", "-seed", "3"}
		run(t, bin, append(args, "-out", mat)...)
		out := run(t, bin, append(args, "-stream", "-out", str)...)
		if !strings.Contains(out, "streamed") {
			t.Errorf("%s: stream mode did not announce itself:\n%s", workload, out)
		}
		a, err := os.ReadFile(mat)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(str)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: streamed CSV differs from materialized", workload)
		}
	}
	// Binary stream mode round-trips through the analyzer-facing reader
	// (covered in internal/trace tests); here just check it writes.
	binOut := filepath.Join(dir, "stream.bin")
	run(t, bin, "-workload", "uniform", "-racks", "8", "-requests", "500", "-stream", "-format", "bin", "-out", binOut)
	if info, err := os.Stat(binOut); err != nil || info.Size() != 4+16+500*8 {
		t.Errorf("streamed binary size/stat wrong: %v err=%v", info, err)
	}
}

// TestCmdExperimentsWorkerSmoke checks the worker subcommand's wiring:
// it must refuse to start without a coordinator and print its usage.
// The full coordinator+fleet path is covered by internal/work's
// acceptance test and scripts/smoke_distributed.sh in CI.
func TestCmdExperimentsWorkerSmoke(t *testing.T) {
	bin := buildBinary(t, "cmd/experiments")
	cmd := exec.Command(bin, "worker")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("worker without -coordinator succeeded:\n%s", out)
	}
	for _, want := range []string{"-coordinator is required", "leases shards"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("worker usage output missing %q:\n%s", want, out)
		}
	}
}

// TestCmdExperimentsServeRefusesNoCurve: the service reads a curve-point
// count of 0 as its default of 10, so `serve -curve-points 0` would run
// another grid than the one asked for; it fails at startup, pointing to
// the direct grid run that records final costs only.
func TestCmdExperimentsServeRefusesNoCurve(t *testing.T) {
	bin := buildBinary(t, "cmd/experiments")
	root := filepath.Join(t.TempDir(), "serve")
	// A service that starts would run until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "serve", "-curve-points", "0", "-addr", "127.0.0.1:0", "-store-root", root)
	out, err := cmd.CombinedOutput()
	if err == nil || ctx.Err() != nil {
		t.Fatalf("serve -curve-points 0 started:\n%s", out)
	}
	if !strings.Contains(string(out), "experiments grid -store DIR -curve-points 0") {
		t.Fatalf("serve -curve-points 0 does not point to the grid run:\n%s", out)
	}
	if _, err := os.Stat(root); !os.IsNotExist(err) {
		t.Fatalf("serve -curve-points 0 made its store root (stat: %v)", err)
	}
}

// TestCmdExperimentsServeSmoke boots the experiment service, submits a
// tiny grid over HTTP, polls it to completion, fetches the summary, and
// verifies the second submission is a cache hit.
func TestCmdExperimentsServeSmoke(t *testing.T) {
	bin := buildBinary(t, "cmd/experiments")
	root := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(bin, "serve", "-addr", addr, "-store-root", filepath.Join(root, "serve"))
	var logBuf strings.Builder
	cmd.Stderr = &logBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}()

	baseURL := "http://" + addr
	waitUp := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(waitUp) {
			t.Fatalf("service never came up:\n%s", logBuf.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	spec := `[{"name":"smoke","family":"uniform","racks":8,"requests":2000,"seed":1,"bs":[2],"reps":1,"algs":["bma"]}]`
	post := func() (int, string) {
		resp, err := http.Post(baseURL+"/api/v1/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		io.Copy(&sb, resp.Body)
		return resp.StatusCode, sb.String()
	}
	code, body := post()
	if code != 202 {
		t.Fatalf("submit: status %d, body %s", code, body)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/api/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var js struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if js.State == "done" {
			break
		}
		if js.State == "failed" {
			t.Fatalf("job failed: %s", js.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished; log:\n%s", logBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(baseURL + "/api/v1/jobs/" + st.ID + "/summary.csv")
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	io.Copy(&csv, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(csv.String(), "smoke,uniform,bma,2") {
		t.Fatalf("summary.csv: status %d\n%s", resp.StatusCode, csv.String())
	}

	if code, body := post(); code != 200 || !strings.Contains(body, `"cached": true`) {
		t.Fatalf("second submit: status %d, body %s — want cached hit", code, body)
	}
}
