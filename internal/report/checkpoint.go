package report

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"obm/internal/sim"
	"obm/internal/wal"
)

// Mid-job checkpoint files: a store-backed run persists each in-flight
// job's replay checkpoint (sim's "OBMC" blob) under <dir>/checkpoints/, so
// a killed run resumes inside a partially replayed cell instead of at its
// start. Files are written atomically (tmp + rename) and deleted when the
// job's outcome lands in the log — the log is the source of truth,
// checkpoints are disposable accelerators. sim treats an unreadable or
// stale blob as "replay from scratch", so nothing here needs fsync or
// crash-ordering guarantees.

// checkpointsDir is the per-store directory holding mid-job checkpoints.
const checkpointsDir = "checkpoints"

// checkpointPath names a job's checkpoint file. Job identity fields are
// hashed (not embedded) so scenario names never meet filesystem naming
// rules, and the filename stays stable for the same job across runs. A
// job's name is made once, at its LoadCheckpoint, and kept until its
// DropCheckpoint, so its saves in between reuse it.
func (s *Store) checkpointPath(j sim.GridJob) string {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	if path, ok := s.ckPaths[j]; ok {
		return path
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d", j.Scenario, j.Alg, j.B, j.Rep)))
	path := filepath.Join(s.dir, checkpointsDir, "ck-"+hex.EncodeToString(h[:16])+".bin")
	if s.ckPaths == nil {
		s.ckPaths = make(map[sim.GridJob]string)
	}
	s.ckPaths[j] = path
	return path
}

// SaveCheckpoint atomically replaces j's checkpoint file. It is the
// sim.GridOptions.SaveCheckpoint hook of a store-backed run. The store's
// first save creates checkpoints/ when the write finds it missing, so
// the saves after it make no directory calls.
func (s *Store) SaveCheckpoint(j sim.GridJob, blob []byte) error {
	path := s.checkpointPath(j)
	err := wal.WriteAtomic(path, blob, false)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return fmt.Errorf("report: checkpoint dir for %s: %w", j, err)
		}
		err = wal.WriteAtomic(path, blob, false)
	}
	if err != nil {
		return fmt.Errorf("report: checkpoint for %s: %w", j, err)
	}
	return nil
}

// LoadCheckpoint returns j's checkpoint blob, if one exists. It is the
// sim.GridOptions.LoadCheckpoint hook; sim validates the blob's integrity
// itself, so a missing or unreadable file is simply "no checkpoint".
func (s *Store) LoadCheckpoint(j sim.GridJob) ([]byte, bool) {
	blob, err := os.ReadFile(s.checkpointPath(j))
	if err != nil {
		return nil, false
	}
	return blob, true
}

// DropCheckpoint removes j's checkpoint file, if any, and forgets its
// name. It is the sim.GridOptions.DropCheckpoint hook, called when a job
// completes.
func (s *Store) DropCheckpoint(j sim.GridJob) {
	os.Remove(s.checkpointPath(j))
	s.ckMu.Lock()
	delete(s.ckPaths, j)
	s.ckMu.Unlock()
}
