package report

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Store discovery: the experiment service (internal/serve) keeps every run
// store it owns under one root directory, addressed by the run's spec
// hash. Discovery is what makes the root a durable queue and a
// content-addressed result cache at once — after a crash, scanning the
// root finds both the finished stores (cache hits) and the interrupted
// ones (jobs to resume), with no bookkeeping beyond the stores themselves.

// DirForHash returns the canonical store directory for a spec hash under
// root: the first 16 hex characters of the hash. The truncation is a
// directory-naming convenience, not an identity. Open verifies that the
// manifest's specs hash to its full SpecHash, and FindByHash compares
// that full hash with the one asked for, so a (vanishingly unlikely)
// prefix collision surfaces as a hash mismatch, never as silent reuse.
func DirForHash(root, specHash string) string {
	if len(specHash) > 16 {
		specHash = specHash[:16]
	}
	return filepath.Join(root, specHash)
}

// StoreInfo describes one discovered run store.
type StoreInfo struct {
	Dir      string
	Manifest Manifest
	// Recorded is the number of completed jobs in the log; Missing is how
	// many of the store's shard slice have no outcome yet (0 = complete).
	Recorded int
	Missing  int
}

// Complete reports whether the store holds every job of its shard slice.
func (i StoreInfo) Complete() bool { return i.Missing == 0 }

// Discover scans the immediate subdirectories of root for run stores and
// returns one StoreInfo per store, sorted by directory name. Non-store
// subdirectories are skipped; a missing root is an empty result, not an
// error. An unreadable store is reported in err (first one wins) but does
// not hide the readable ones.
func Discover(root string) ([]StoreInfo, error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var infos []StoreInfo
	var firstErr error
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if !Exists(dir) {
			continue
		}
		info, err := Inspect(dir)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(a, b int) bool { return infos[a].Dir < infos[b].Dir })
	return infos, firstErr
}

// Inspect opens dir as Open does (trimming a torn tail off the job log,
// creating a missing one) and summarizes it as a StoreInfo.
func Inspect(dir string) (StoreInfo, error) {
	s, err := Open(dir)
	if err != nil {
		return StoreInfo{}, err
	}
	defer s.Close()
	missing, err := s.Missing()
	if err != nil {
		return StoreInfo{}, err
	}
	return StoreInfo{
		Dir:      dir,
		Manifest: s.Manifest(),
		Recorded: s.Len(),
		Missing:  len(missing),
	}, nil
}

// FindByHash locates the store holding specHash under root, preferring
// the canonical DirForHash location and falling back to a scan (stores
// merged or created by hand can live under any name). ok is false when no
// store under root holds the hash.
func FindByHash(root, specHash string) (StoreInfo, bool, error) {
	canonical := DirForHash(root, specHash)
	if Exists(canonical) {
		info, err := Inspect(canonical)
		if err != nil {
			return StoreInfo{}, false, err
		}
		if info.Manifest.SpecHash != specHash {
			return StoreInfo{}, false, fmt.Errorf(
				"report: %s holds spec hash %.12s, not the requested %.12s (hash-prefix collision or stale store)",
				canonical, info.Manifest.SpecHash, specHash)
		}
		return info, true, nil
	}
	infos, err := Discover(root)
	if err != nil {
		return StoreInfo{}, false, err
	}
	for _, info := range infos {
		if info.Manifest.SpecHash == specHash {
			return info, true, nil
		}
	}
	return StoreInfo{}, false, nil
}
