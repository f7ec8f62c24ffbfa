package report

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"obm/internal/sim"
	"obm/internal/snap"
	"obm/internal/wal"
)

// jobRecord is one record of the job log: a JSON payload in one wal frame.
type jobRecord struct {
	Scenario string         `json:"scenario"`
	Alg      string         `json:"alg"`
	B        int            `json:"b"`
	Rep      int            `json:"rep"`
	Outcome  sim.JobOutcome `json:"outcome"`
}

func (r jobRecord) job() sim.GridJob {
	return sim.GridJob{Scenario: r.Scenario, Alg: r.Alg, B: r.B, Rep: r.Rep}
}

// validate rejects structurally broken records — valid JSON whose curve
// arrays disagree in length would otherwise panic the renderer and merge
// far from the corruption site.
func (r jobRecord) validate() error {
	o := r.Outcome
	if len(o.RoutingCurve) != len(o.X) || len(o.ReconfigCurve) != len(o.X) {
		return fmt.Errorf("curve lengths (x=%d routing=%d reconfig=%d) disagree",
			len(o.X), len(o.RoutingCurve), len(o.ReconfigCurve))
	}
	return nil
}

// Store is an open run store: the manifest, its grid planned once, and
// the completed-job log, loaded into memory for Lookup and kept open for
// appends. Every method is safe for concurrent use.
type Store struct {
	dir      string
	manifest Manifest
	plan     *sim.GridPlan
	planned  map[sim.GridJob]bool // the jobs of plan, for Absorb

	mu       sync.Mutex
	log      *wal.Log
	outcomes map[sim.GridJob]sim.JobOutcome
	// truncated counts crash-torn trailing records dropped by Open.
	truncated int
}

// Create initializes dir (created if needed) as a new run store with the
// given manifest. It refuses to overwrite an existing store — resuming
// goes through Open so a stale directory is never silently clobbered.
func Create(dir string, m Manifest) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if Exists(dir) {
		return nil, fmt.Errorf("report: %s already holds a run store (open it to resume, or choose a fresh directory)", dir)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("report: manifest format v%d, want v%d (build it with NewManifest)", m.FormatVersion, FormatVersion)
	}
	s, err := newStore(dir, m)
	if err != nil {
		return nil, err
	}
	if err := writeManifest(dir, m); err != nil {
		return nil, err
	}
	if s.log, err = wal.Create(s.LogPath()); err != nil {
		return nil, err
	}
	return s, nil
}

// newStore plans m's grid: the one plan every later Absorb, Missing,
// Result and CellCurves call of the store reads.
func newStore(dir string, m Manifest) (*Store, error) {
	plan, err := m.Plan()
	if err != nil {
		return nil, err
	}
	planned := make(map[sim.GridJob]bool, len(plan.Jobs))
	for _, j := range plan.Jobs {
		planned[j] = true
	}
	return &Store{
		dir:      dir,
		manifest: m,
		plan:     plan,
		planned:  planned,
		outcomes: make(map[sim.GridJob]sim.JobOutcome),
	}, nil
}

// Open loads the run store in dir: the manifest, verified against its
// SpecHash, and every completed job in the log. A crash-torn trailing
// record is dropped and trimmed off the file, so appends start on a clean
// frame; any other damage, even a CRC mismatch in the last whole record,
// is an error wrapping snap.ErrCorrupt.
func Open(dir string) (*Store, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	s, err := newStore(dir, m)
	if err != nil {
		return nil, err
	}
	log, n, err := wal.Open(s.LogPath(), func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		s.record(rec.job(), rec.Outcome)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("report: %s after %d records: %w", s.LogPath(), n, err)
	}
	if log.Trimmed() {
		s.truncated = 1
	}
	s.log = log
	return s, nil
}

// decodeRecord parses and validates one job-log payload. Its frame's CRC
// has verified, so a payload that does not parse was written wrong: it is
// corruption, not a torn write.
func decodeRecord(payload []byte) (jobRecord, error) {
	var rec jobRecord
	err := json.Unmarshal(payload, &rec)
	if err == nil {
		err = rec.validate()
	}
	if err != nil {
		return rec, snap.Corruptf("corrupt job record: %v", err)
	}
	return rec, nil
}

// record keeps the first outcome per job (duplicates can only arise from
// merged overlapping logs, which Merge verifies are identical).
func (s *Store) record(j sim.GridJob, o sim.JobOutcome) {
	if _, ok := s.outcomes[j]; !ok {
		s.outcomes[j] = o
	}
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Manifest returns the store's manifest.
func (s *Store) Manifest() Manifest { return s.manifest }

// Plan returns the store's full-grid plan. Callers must not modify it.
func (s *Store) Plan() *sim.GridPlan { return s.plan }

// Truncated reports how many crash-torn trailing records Open dropped
// (0 or 1).
func (s *Store) Truncated() int { return s.truncated }

// Len returns the number of completed jobs in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outcomes)
}

// Lookup returns the persisted outcome of j, if any. It is the
// sim.GridOptions.Lookup hook of a resumed run.
func (s *Store) Lookup(j sim.GridJob) (sim.JobOutcome, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outcomes[j]
	return o, ok
}

// Append durably records a completed job: one marshaled record framed
// into a single append-mode write, so concurrent appenders never
// interleave and a crash tears at most the final record. It is the
// sim.GridOptions.Persist hook of a store-backed run.
func (s *Store) Append(j sim.GridJob, o sim.JobOutcome) error {
	payload, err := encodeRecord(jobRecord{Scenario: j.Scenario, Alg: j.Alg, B: j.B, Rep: j.Rep, Outcome: o})
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.outcomes[j]; ok {
		return fmt.Errorf("report: job %s already recorded in %s", j, s.dir)
	}
	return s.appendLocked(j, o, payload)
}

// encodeRecord validates rec and marshals it as one log payload.
func encodeRecord(rec jobRecord) ([]byte, error) {
	if err := rec.validate(); err != nil {
		return nil, fmt.Errorf("job %s: %w", rec.job(), err)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("encoding job %s: %w", rec.job(), err)
	}
	return payload, nil
}

// appendLocked appends payload, the encoded record of a job the store
// does not hold yet, and records it. Callers hold s.mu.
func (s *Store) appendLocked(j sim.GridJob, o sim.JobOutcome, payload []byte) error {
	if s.log == nil {
		return fmt.Errorf("%w: %s", ErrClosed, s.dir)
	}
	if err := s.log.Append(payload); err != nil {
		return fmt.Errorf("report: appending job %s: %w", j, err)
	}
	s.record(j, o)
	return nil
}

// LogPath returns the path of the store's job log (jobs.log) — what a
// fleet worker uploads to the coordinator when its shard completes.
func (s *Store) LogPath() string { return filepath.Join(s.dir, jobsFile) }

// ErrClosed marks an Append or Absorb on a closed store.
var ErrClosed = errors.New("report: store is closed")

// ErrOutcomeConflict marks an Absorb failure where a record for an
// already-recorded job disagreed on a deterministic field — a broken
// determinism contract (or a mixed-version fleet), never noise. Callers
// distinguish it from transport-shaped failures (truncated uploads,
// corrupt records), which are safe to drop and retry.
var ErrOutcomeConflict = errors.New("report: conflicting outcome for an already-recorded job")

// Absorb folds a job-log image (for example, a shard log uploaded by a
// fleet worker) into the store. New jobs are appended; records for jobs
// the store already holds must agree exactly on the deterministic fields
// (identical seeds must mean identical costs), so at-least-once delivery
// — duplicate uploads, a shard re-run after its worker died — can never
// corrupt the store: the duplicate either verifies or surfaces as
// ErrOutcomeConflict. Records naming jobs outside the store's plan are
// rejected. Unlike Open, a torn final record is an error wrapping
// snap.ErrCorrupt: an upload is a complete message, not a crash
// artifact. The records before the first bad one are kept. Empty input
// holds no records. Returns the number of newly appended records.
//
// The image is decoded before the store is locked, so a slow upload
// never holds it; the records are then checked and appended in one
// critical section, which makes concurrent Absorbs of overlapping logs
// safe.
func (s *Store) Absorb(r io.Reader) (added int, err error) {
	type decoded struct {
		rec     jobRecord
		payload []byte
	}
	var recs []decoded
	data, rerr := io.ReadAll(r)
	end, n, err := wal.Decode(data, func(p []byte) error {
		rec, err := decodeRecord(p)
		if err != nil {
			return err
		}
		payload, err := encodeRecord(rec)
		if err != nil {
			return err
		}
		recs = append(recs, decoded{rec, payload})
		return nil
	})
	if err == nil && end < len(data) {
		err = snap.Corruptf("upload torn after record %d (%d trailing bytes)", n, len(data)-end)
	}
	if err = errors.Join(rerr, err); err != nil {
		err = fmt.Errorf("report: absorbing into %s after %d records: %w", s.dir, n, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range recs {
		j := d.rec.job()
		if !s.planned[j] {
			return added, fmt.Errorf("report: absorbing into %s: job %s is not in this store's grid", s.dir, j)
		}
		if have, ok := s.outcomes[j]; ok {
			if !sameOutcome(have, d.rec.Outcome) {
				return added, fmt.Errorf("%w: job %s (identical seeds must give identical costs)", ErrOutcomeConflict, j)
			}
			continue
		}
		if aerr := s.appendLocked(j, d.rec.Outcome, d.payload); aerr != nil {
			return added, aerr
		}
		added++
	}
	return added, err
}

// Outcomes returns a copy of the completed-job map, the form
// sim.GridPlan.Aggregate consumes.
func (s *Store) Outcomes() map[sim.GridJob]sim.JobOutcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[sim.GridJob]sim.JobOutcome, len(s.outcomes))
	for j, o := range s.outcomes {
		out[j] = o
	}
	return out
}

// Missing returns the jobs of this store's shard slice that have no
// recorded outcome yet, in plan order. An empty result means the store is
// complete (for its shard). The grid is planned when the store is opened,
// so the error is always nil.
func (s *Store) Missing() ([]sim.GridJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var missing []sim.GridJob
	for i, j := range s.plan.Jobs {
		if !s.manifest.ownsJob(i) {
			continue
		}
		if _, ok := s.outcomes[j]; !ok {
			missing = append(missing, j)
		}
	}
	return missing, nil
}

// GridOptions wires the store into grid options: Lookup resumes from the
// log, Persist appends to it, the checkpoint hooks read and write
// <dir>/checkpoints/, and the manifest's shard layout and curve
// checkpointing are applied. The remaining knobs (workers, chunk size,
// checkpoint interval, progress) are taken from base — mid-job
// checkpoints are only written when base.CheckpointEvery > 0, but a
// leftover checkpoint is always consulted and always cleaned up.
func (s *Store) GridOptions(base sim.GridOptions) sim.GridOptions {
	base.CurvePoints = s.manifest.CurvePoints
	base.Shard = s.manifest.Shard.Index
	base.Shards = s.manifest.Shard.Count
	base.Lookup = s.Lookup
	base.Persist = s.Append
	base.SaveCheckpoint = s.SaveCheckpoint
	base.LoadCheckpoint = s.LoadCheckpoint
	base.DropCheckpoint = s.DropCheckpoint
	return base
}

// Run executes the store's grid, resuming from the log: completed jobs
// are skipped, newly finished ones are appended. The returned result
// covers every outcome the store now holds (for a sharded store, its
// slice of the grid).
func (s *Store) Run(base sim.GridOptions) (*sim.GridResult, error) {
	return s.RunContext(context.Background(), base)
}

// RunContext is Run under a context: cancelling ctx stops the grid at the
// next chunk boundary and leaves the store partial-but-persisted — every
// job appended before the cancellation survives, and a later RunContext
// on the re-opened store resumes exactly where this one stopped (see
// sim.RunGridContext).
func (s *Store) RunContext(ctx context.Context, base sim.GridOptions) (*sim.GridResult, error) {
	return sim.RunGridContext(ctx, s.manifest.Specs, s.GridOptions(base))
}

// Sync flushes the append log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// Close syncs and closes the append log. Lookup and read accessors keep
// working; Append does not.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil
	}
	err := s.log.Sync()
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	s.log = nil
	return err
}
