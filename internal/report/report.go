// Package report is the durable experiment layer on top of the scenario
// grid: persistent run stores, resumable and shardable grid execution, and
// a renderer that turns a finished store into a self-contained Markdown
// report.
//
// A run store is a directory with two files:
//
//	manifest.json   what this run is: normalized scenario specs, their
//	                SHA-256 spec hash, curve-checkpoint count, shard
//	                layout, total job count, creation metadata
//	jobs.jsonl      one JSON line per completed (scenario, alg, b, rep)
//	                job, appended atomically as jobs finish
//
// Because a grid job's costs are a pure function of its identity (the
// spec's trace seed and the rep-derived algorithm seed — see the
// seed-reproducibility contract in the package obm docs), a completed
// job never needs to re-run: re-invoking the same grid against the same
// store loads the log through sim.GridOptions.Lookup and executes only
// the missing jobs, and logs produced by disjoint shards of the grid
// (sim.GridOptions.Shard/Shards) merge into one full-grid store whose
// aggregated results are byte-identical to a single-process run —
// either offline via Merge, or incrementally via Store.Absorb (how the
// experiment service folds uploaded fleet shard logs).
//
// The append log is crash-safe by construction: each record is one
// write() of one newline-terminated JSON line, so a crash can lose at
// most the line being written; Open detects a truncated tail, drops it,
// and the next run redoes just that job.
package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"obm/internal/sim"
)

// FormatVersion identifies the on-disk run-store layout. Stores written
// with a different major layout are rejected by Open.
const FormatVersion = 1

const (
	manifestFile = "manifest.json"
	jobsFile     = "jobs.jsonl"
)

// Shard names one slice of a statically partitioned grid: the jobs whose
// plan index i satisfies i % Count == Index. The zero value (and any
// Count <= 1) means the full, unsharded grid.
type Shard struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

// IsFull reports whether the shard covers the whole grid.
func (s Shard) IsFull() bool { return s.Count <= 1 }

func (s Shard) String() string {
	if s.IsFull() {
		return "full"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Manifest records what a run store holds. Everything that determines job
// outcomes is covered by SpecHash; everything else (creation time, Go
// version, shard layout) is bookkeeping.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Name          string `json:"name"`
	CreatedAt     string `json:"created_at"` // RFC 3339
	GoVersion     string `json:"go_version"`
	// SpecHash is the SHA-256 of the normalized spec list plus the
	// curve-checkpoint count: two stores resume/merge only if it matches.
	SpecHash    string `json:"spec_hash"`
	CurvePoints int    `json:"curve_points"`
	Shard       Shard  `json:"shard"`
	// TotalJobs is the full-grid job count (before sharding).
	TotalJobs int                `json:"total_jobs"`
	Specs     []sim.ScenarioSpec `json:"specs"`
}

// NewManifest plans the grid described by specs, validates every spec
// (ScenarioSpec.Validate, family parameters included) and assembles the
// manifest of a store for it. It is the entry check of every store: a
// stored manifest is only ever verified against its SpecHash, never
// re-validated. Specs are normalized first, so equivalent spec lists
// (defaults spelled out or omitted) produce the same SpecHash.
func NewManifest(name string, specs []sim.ScenarioSpec, curvePoints int, shard Shard) (Manifest, error) {
	norm := make([]sim.ScenarioSpec, len(specs))
	for i, s := range specs {
		norm[i] = s.Normalize()
	}
	plan, err := sim.PlanGrid(norm)
	if err != nil {
		return Manifest{}, err
	}
	for _, s := range norm {
		if err := s.Validate(); err != nil {
			return Manifest{}, err
		}
	}
	if !shard.IsFull() && (shard.Index < 0 || shard.Index >= shard.Count) {
		return Manifest{}, fmt.Errorf("report: shard %d/%d out of range", shard.Index, shard.Count)
	}
	hash, err := SpecHash(norm, curvePoints)
	if err != nil {
		return Manifest{}, err
	}
	return Manifest{
		FormatVersion: FormatVersion,
		Name:          name,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		SpecHash:      hash,
		CurvePoints:   curvePoints,
		Shard:         shard,
		TotalJobs:     len(plan.Jobs),
		Specs:         norm,
	}, nil
}

// SpecHash returns the SHA-256 over the canonical JSON encoding of the
// normalized specs and the curve-checkpoint count — the identity of a
// run's deterministic outcome space. JSON map keys (family params) are
// emitted sorted, so the hash is representation-independent.
func SpecHash(specs []sim.ScenarioSpec, curvePoints int) (string, error) {
	norm := make([]sim.ScenarioSpec, len(specs))
	for i, s := range specs {
		norm[i] = s.Normalize()
	}
	blob, err := json.Marshal(struct {
		Specs       []sim.ScenarioSpec `json:"specs"`
		CurvePoints int                `json:"curve_points"`
	}{norm, curvePoints})
	if err != nil {
		return "", fmt.Errorf("report: hashing specs: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Plan re-expands the manifest's job grid (the full grid, ignoring the
// shard restriction). Planning reads only the spec fields, so it builds
// no cost model and no trace generator.
func (m *Manifest) Plan() (*sim.GridPlan, error) {
	return sim.PlanGrid(m.Specs)
}

// ownsJob reports whether plan index i belongs to the manifest's shard.
func (m *Manifest) ownsJob(i int) bool {
	return m.Shard.IsFull() || i%m.Shard.Count == m.Shard.Index
}

// Exists reports whether dir already holds a run store (a manifest).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestFile))
	return err == nil
}

// writeManifest writes m atomically (temp file + rename), so a crash
// never leaves a half-written manifest.
func writeManifest(dir string, m Manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("report: encoding manifest: %w", err)
	}
	tmp, err := os.CreateTemp(dir, manifestFile+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(append(blob, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, manifestFile))
}

// readManifest loads and sanity-checks dir's manifest, and verifies that
// its specs still hash to its SpecHash: a manifest edited on disk (say,
// its racks or requests) would otherwise resume with different costs.
func readManifest(dir string) (Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("report: %s is not a run store: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return Manifest{}, fmt.Errorf("report: %s: corrupt manifest: %w", dir, err)
	}
	if m.FormatVersion != FormatVersion {
		return Manifest{}, fmt.Errorf("report: %s: store format v%d, this build reads v%d",
			dir, m.FormatVersion, FormatVersion)
	}
	if len(m.Specs) == 0 {
		return Manifest{}, fmt.Errorf("report: %s: manifest has no scenario specs", dir)
	}
	hash, err := SpecHash(m.Specs, m.CurvePoints)
	if err != nil {
		return Manifest{}, err
	}
	if hash != m.SpecHash {
		return Manifest{}, fmt.Errorf("report: %s: manifest spec hash mismatch: it records %.12s, its specs hash to %.12s (edited or corrupt manifest)",
			dir, m.SpecHash, hash)
	}
	return m, nil
}
