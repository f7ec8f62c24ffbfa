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
//	jobs.log        the job log: one CRC-framed JSON record (internal/wal)
//	                per completed (scenario, alg, b, rep) job, appended
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
// The job log is crash-safe by construction: each record is one write()
// of one wal frame, so a crash can lose at most the record being written;
// Open detects a torn tail, drops it, and the next run redoes just that
// job. Every record carries a CRC, so a changed byte anywhere else fails
// Open with snap.ErrCorrupt instead of becoming a result.
//
// A store can also be staged (Stage), for a fleet shard's store that a
// clean hand-in deletes: it holds the same job log, byte for byte, and
// each in-flight job's newest checkpoint in memory, and writes them to
// its directory, the manifest last, only when WriteOut or Close asks.
// Image returns the job log a worker hands in, from memory or from
// jobs.log.
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
	"obm/internal/wal"
)

// FormatVersion identifies the on-disk run-store layout. Version 2 keeps
// the job log in wal frames (jobs.log); version 3 keeps that layout and
// names a shard by the contiguous, work-balanced cut (sim.GridPlan.
// ShardCuts) instead of version 2's plan index modulo the shard count.
// Open reads version 3 stores and version 2 full-grid stores, whose files
// mean the same under both rules; it refuses a version 2 shard store,
// whose shard field names other jobs under this build's rule, and every
// other version.
const FormatVersion = 3

// moduloShardVersion is the last format that sharded by plan index modulo
// the shard count.
const moduloShardVersion = 2

const (
	manifestFile = "manifest.json"
	jobsFile     = "jobs.log"
)

// A job record must fit one wal record, so NewManifest bounds the curve
// points by a record's worst case: recordReserve for its keys, algorithm
// name and six numbers, its scenario name JSON-escaped at up to 6 bytes a
// byte, and curvePointBytes per point — an int of at most 20 characters
// and two float64s of at most 25, each with a separator.
const recordReserve, curvePointBytes = 1 << 10, 21 + 26 + 26

// Shard names one slice of a statically partitioned grid: the jobs of
// sim.GridPlan.ShardSlice(Index, Count), one run of consecutive plan
// jobs. The zero value (and any Count <= 1) means the full, unsharded
// grid.
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
	CreatedAt     string `json:"created_at"` // RFC 3339; nanoseconds, or whole seconds in older stores
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
// (ScenarioSpec.Validate, family parameters included, and that its job
// records fit the job log) and the curve-point count (0, final costs
// only, or more), and assembles the manifest of a store for it. It is
// the entry check of every store: a stored manifest is only ever
// verified against its SpecHash, never re-validated. Specs are normalized first, so equivalent spec lists
// (defaults spelled out or omitted) produce the same SpecHash.
func NewManifest(name string, specs []sim.ScenarioSpec, curvePoints int, shard Shard) (Manifest, error) {
	if curvePoints < 0 {
		return Manifest{}, fmt.Errorf("report: %d curve points; want 0 (final costs only) or more", curvePoints)
	}
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
		if room := wal.MaxRecord - recordReserve - 6*len(s.Name); curvePoints > room/curvePointBytes {
			return Manifest{}, fmt.Errorf("report: %d curve points could make a job record of scenario %q exceed the job log's %d-byte record limit; use at most %d",
				curvePoints, s.Name, wal.MaxRecord, max(room/curvePointBytes, 0))
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
		CreatedAt:     time.Now().UTC().Format(time.RFC3339Nano),
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

// Exists reports whether dir already holds a run store (a manifest).
func Exists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestFile))
	return err == nil
}

// writeManifest writes m atomically, so a crash never leaves a
// half-written manifest.
func writeManifest(dir string, m Manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("report: encoding manifest: %w", err)
	}
	return wal.WriteAtomic(filepath.Join(dir, manifestFile), append(blob, '\n'), false)
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
	switch {
	case m.FormatVersion == FormatVersion:
	case m.FormatVersion == moduloShardVersion && m.Shard.IsFull():
		// The same files; only a shard's job set changed meaning.
	case m.FormatVersion == moduloShardVersion:
		return Manifest{}, fmt.Errorf("report: %s: a v%d shard store (shard %s): v%d cut shards by plan index modulo the shard count, this build (v%d) cuts contiguous, work-balanced shards, so its records belong to another job set; re-run the shard with this build, or merge the v%d shard stores with a v%d build",
			dir, m.FormatVersion, m.Shard, moduloShardVersion, FormatVersion, moduloShardVersion, moduloShardVersion)
	default:
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
