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
// checkpoints are disposable accelerators. A staged store keeps each
// job's newest blob in memory instead, until it is written out. sim
// treats an unreadable or stale blob as "replay from scratch", so nothing
// here needs fsync or crash-ordering guarantees.

// checkpointsDir is the per-store directory holding mid-job checkpoints.
const checkpointsDir = "checkpoints"

// checkpointPath names a job's checkpoint file. Job identity fields are
// hashed (not embedded) so scenario names never meet filesystem naming
// rules, and the filename stays stable for the same job across runs. A
// job's name is made once, at its LoadCheckpoint, and kept until its
// DropCheckpoint, so its saves in between reuse it. Callers hold s.ckMu.
func (s *Store) checkpointPath(j sim.GridJob) string {
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

// SaveCheckpoint replaces j's checkpoint: a staged store keeps blob,
// which the caller must not modify afterwards, and a store on disk
// replaces j's file atomically. It is the sim.GridOptions.SaveCheckpoint
// hook of a store-backed run.
func (s *Store) SaveCheckpoint(j sim.GridJob, blob []byte) error {
	s.ckMu.Lock()
	if s.ckBlobs != nil {
		s.ckBlobs[j] = blob
		s.ckMu.Unlock()
		return nil
	}
	path := s.checkpointPath(j)
	s.ckMu.Unlock()
	if err := writeCheckpoint(path, blob); err != nil {
		return fmt.Errorf("report: checkpoint for %s: %w", j, err)
	}
	return nil
}

// writeCheckpoint atomically replaces the checkpoint file at path. A
// store's first write creates checkpoints/ when it finds it missing, so
// the writes after it make no directory calls.
func writeCheckpoint(path string, blob []byte) error {
	err := wal.WriteAtomic(path, blob, false)
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		err = wal.WriteAtomic(path, blob, false)
	}
	return err
}

// writeOutCheckpoints writes a staged store's checkpoints to their
// files, after which saves and drops go to the files. It holds s.ckMu
// throughout, so a save or drop that races it waits and then goes to
// the file: an older blob never replaces a newer one, and a finished
// job leaves no checkpoint behind.
func (s *Store) writeOutCheckpoints() error {
	s.ckMu.Lock()
	defer s.ckMu.Unlock()
	for j, blob := range s.ckBlobs {
		if err := writeCheckpoint(s.checkpointPath(j), blob); err != nil {
			return fmt.Errorf("checkpoint for %s: %w", j, err)
		}
		delete(s.ckBlobs, j)
	}
	s.ckBlobs = nil
	return nil
}

// LoadCheckpoint returns j's checkpoint blob, if one exists. It is the
// sim.GridOptions.LoadCheckpoint hook; sim validates the blob's integrity
// itself, so a missing or unreadable file is simply "no checkpoint".
func (s *Store) LoadCheckpoint(j sim.GridJob) ([]byte, bool) {
	s.ckMu.Lock()
	if s.ckBlobs != nil {
		blob, ok := s.ckBlobs[j]
		s.ckMu.Unlock()
		return blob, ok
	}
	path := s.checkpointPath(j)
	s.ckMu.Unlock()
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	return blob, true
}

// DropCheckpoint removes j's checkpoint, if any, and forgets its file
// name. It is the sim.GridOptions.DropCheckpoint hook, called when a job
// completes.
func (s *Store) DropCheckpoint(j sim.GridJob) {
	s.ckMu.Lock()
	if s.ckBlobs != nil {
		delete(s.ckBlobs, j)
		s.ckMu.Unlock()
		return
	}
	path := s.checkpointPath(j)
	delete(s.ckPaths, j)
	s.ckMu.Unlock()
	os.Remove(path)
}
