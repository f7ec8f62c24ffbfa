package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"obm/internal/report"
	"obm/internal/sim"
)

// TestRunShardReplacesUnusableShardStore: a shard store is only a resume
// cache, so one that cannot be opened — an empty manifest.json, or a job
// log whose CRC fails — must not block its shard. RunShard logs it,
// removes it and runs the shard afresh; the upload completes the job,
// whose summary is byte-identical to the direct run's.
func TestRunShardReplacesUnusableShardStore(t *testing.T) {
	damages := []struct {
		name  string
		plant func(t *testing.T, dir string, l Lease)
	}{
		{"empty manifest", func(t *testing.T, dir string, _ Lease) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"CRC-corrupt job log", func(t *testing.T, dir string, l Lease) {
			m, err := report.NewManifest(l.Name, l.Specs, l.CurvePoints, report.Shard{Index: l.Shard, Count: l.Shards})
			if err != nil {
				t.Fatal(err)
			}
			st, err := report.Create(dir, m)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.Run(sim.GridOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			st.Close()
			// Change the first recorded routing cost's leading digit: the
			// record still parses, only its CRC no longer matches.
			log, err := os.ReadFile(st.LogPath())
			if err != nil {
				t.Fatal(err)
			}
			key := []byte(`"routing":`)
			i := bytes.Index(log, key) + len(key)
			if i < len(key) || log[i] < '1' || log[i] > '9' {
				t.Fatalf("no nonzero routing cost to flip in %q", log)
			}
			log[i] = '1' + (log[i]-'1'+1)%9
			if err := os.WriteFile(st.LogPath(), log, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			s, j := coordinator(t, Options{ShardSize: 5, CurvePoints: 2})
			var logged []string
			for {
				l, err := s.lease(j, "w0")
				if errors.Is(err, ErrNoLease) {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				dir := filepath.Join(t.TempDir(), "shard")
				if l.Shard == 0 {
					d.plant(t, dir, l)
				}
				res := RunShard(context.Background(), ShardRun{
					Lease: l,
					Dir:   dir,
					Grid:  sim.GridOptions{Workers: 1},
					Heartbeat: func(_ context.Context, done int) error {
						_, err := s.heartbeat(j, l.Shard, l.Token, done)
						return err
					},
					Complete: func(_ context.Context, logPath, failMsg string) error {
						blob, err := os.ReadFile(logPath)
						if err == nil {
							_, err = s.completeShard(j, l.Shard, l.Token, "w0", failMsg, bytes.NewReader(blob))
						}
						return err
					},
					Logf: func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
				})
				if res.Outcome != ShardCompleted || res.CompleteErr != nil {
					t.Fatalf("shard %d: outcome %d, run error %v, hand-in error %v", l.Shard, res.Outcome, res.RunErr, res.CompleteErr)
				}
			}
			if st := j.status(); st.State != StateDone {
				t.Fatalf("job after every shard ran: %+v", st)
			}
			if got, want := summaryBytes(t, s, j), directSummary(t, leaseSpecs(), 2); !bytes.Equal(got, want) {
				t.Fatalf("summary differs from the direct run:\n--- fleet\n%s--- direct\n%s", got, want)
			}
			if !strings.Contains(strings.Join(logged, "\n"), "discarding shard store") {
				t.Fatalf("the replaced shard store was not logged: %q", logged)
			}
		})
	}
}
