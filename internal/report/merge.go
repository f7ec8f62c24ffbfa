package report

import (
	"fmt"
	"os"

	"obm/internal/sim"
)

// Merge folds the logs of srcDirs — typically one store per shard of the
// same grid — into a new full-grid store at dstDir. All sources must share
// the first source's spec hash (same normalized specs, same curve
// checkpointing). Each source's log is absorbed in turn (Store.Absorb),
// so where sources overlap, the deterministic fields (final routing and
// reconfiguration cost, the cost curve) must agree exactly or Merge
// fails — identical seeds must mean identical costs, so a mismatch
// signals a real problem, not noise. Missing jobs are allowed: merging
// partial shard logs yields a partial store that a later run can resume.
func Merge(dstDir string, srcDirs ...string) (*Store, error) {
	if len(srcDirs) == 0 {
		return nil, fmt.Errorf("report: merge with no source stores")
	}
	srcs := make([]*Store, len(srcDirs))
	for i, dir := range srcDirs {
		s, err := Open(dir) // trims a torn tail, which Absorb would reject
		if err != nil {
			return nil, err
		}
		defer s.Close()
		srcs[i] = s
		if got, want := s.manifest.SpecHash, srcs[0].manifest.SpecHash; got != want {
			return nil, fmt.Errorf("report: %s and %s hold different grids (spec hash %.12s vs %.12s)",
				srcDirs[i], srcDirs[0], got, want)
		}
	}

	first := srcs[0].manifest
	m, err := NewManifest(first.Name, first.Specs, first.CurvePoints, Shard{})
	if err != nil {
		return nil, err
	}
	if m.SpecHash != first.SpecHash {
		return nil, fmt.Errorf("report: %s: manifest spec hash %.12s does not match its specs (%.12s)",
			srcDirs[0], first.SpecHash, m.SpecHash)
	}
	dst, err := Create(dstDir, m)
	if err != nil {
		return nil, err
	}
	for _, src := range srcs {
		log, err := os.Open(src.LogPath())
		if err == nil {
			_, err = dst.Absorb(log)
			log.Close()
		}
		if err != nil {
			dst.Close()
			return nil, fmt.Errorf("report: merging %s: %w", src.dir, err)
		}
	}
	if err := dst.Sync(); err != nil {
		dst.Close()
		return nil, err
	}
	return dst, nil
}

// sameOutcome compares the deterministic fields of two outcomes (wall
// time excluded).
func sameOutcome(a, b sim.JobOutcome) bool {
	if a.Routing != b.Routing || a.Reconfig != b.Reconfig {
		return false
	}
	if len(a.X) != len(b.X) ||
		len(a.RoutingCurve) != len(b.RoutingCurve) || len(a.ReconfigCurve) != len(b.ReconfigCurve) {
		return false
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.RoutingCurve[i] != b.RoutingCurve[i] || a.ReconfigCurve[i] != b.ReconfigCurve[i] {
			return false
		}
	}
	return true
}
