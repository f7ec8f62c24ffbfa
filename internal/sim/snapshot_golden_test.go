package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"obm/internal/trace"
)

// snapshotGolden pins the SHA-256 of fixed snapshot blobs: the "OBMI"
// Incremental state that engine sessions and checkpoints embed (R-BMA,
// BMA and a three-plane R-BMA), and an "OBMC" replay checkpoint. The
// encoders may change how they batch their writes, never a byte of what
// they write. Regenerate with
//
//	OBM_PRINT_GOLDEN=1 go test ./internal/sim -run TestSnapshotBlobsGolden -v
//
// and paste the printed literal, but only for an intended format change.
var snapshotGolden = map[string]string{
	"obmi/r-bma":          "3fb68af7f416b1ef1e04c36f11ab8c35e34937215c4cef3133f4b51ef0e401e9",
	"obmi/bma":            "fb7a8629790d7fadf625b089abfe3fd2e2bfcf315844b6cb5e6c42f63ec4da89",
	"obmi/r-bma/shards=3": "59a08f609e81ab9c8e5f0974e7a39b188e724cf29f9051d3bc8b764718faf474",
	"obmc/bma":            "5e0a36519c2f103b02b7fef36c186dc1e8613cfabaab4b806426c4f53e633649",
}

// goldenSpec is the scenario every golden blob is taken on.
func goldenSpec(family string, racks, shards int) ScenarioSpec {
	return ScenarioSpec{
		Name: "golden", Family: family, Racks: racks, Requests: 20000, Seed: 5,
		Alpha: 30, Bs: []int{6}, Shards: shards,
	}
}

// goldenIncrementalBlob feeds the spec's whole trace to alg through an
// Incremental, in 1000-request chunks, and returns its snapshot.
func goldenIncrementalBlob(t *testing.T, spec ScenarioSpec, alg string) []byte {
	t.Helper()
	a, err := spec.BuildAlgorithm(alg, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	in := NewIncremental(a, spec.Alpha)
	chunk := trace.NewChunk(1000)
	src.Reset()
	for {
		n, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		in.FeedChunk(chunk.Reqs[:n])
	}
	var buf bytes.Buffer
	if err := in.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenCheckpointBlob replays the spec's trace through a BMA job with a
// ten-point curve and saves a checkpoint after the whole trace.
func goldenCheckpointBlob(t *testing.T, spec ScenarioSpec) []byte {
	t.Helper()
	a, err := spec.BuildAlgorithm("bma", 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	var res RunResult
	var r replay
	if err := r.begin(&res, a, src.Len(), spec.Alpha, Checkpoints(src.Len(), 10), ckHooks{}, nil); err != nil {
		t.Fatal(err)
	}
	chunk := trace.NewChunk(1000)
	src.Reset()
	for {
		n, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := r.feed(chunk.Reqs[:n]); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := saveReplayCheckpoint(&r.m, r.pos, 1234567*time.Microsecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSnapshotBlobsGolden(t *testing.T) {
	blobs := map[string][]byte{
		"obmi/r-bma":          goldenIncrementalBlob(t, goldenSpec("microsoft", 50, 0), "r-bma"),
		"obmi/bma":            goldenIncrementalBlob(t, goldenSpec("facebook-database", 100, 0), "bma"),
		"obmi/r-bma/shards=3": goldenIncrementalBlob(t, goldenSpec("microsoft", 50, 3), "r-bma"),
		"obmc/bma":            goldenCheckpointBlob(t, goldenSpec("microsoft", 50, 0)),
	}
	printMode := os.Getenv("OBM_PRINT_GOLDEN") != ""
	for _, name := range []string{"obmi/r-bma", "obmi/bma", "obmi/r-bma/shards=3", "obmc/bma"} {
		sum := sha256.Sum256(blobs[name])
		got := hex.EncodeToString(sum[:])
		if printMode {
			fmt.Printf("\t%q: %q, // %d bytes\n", name, got, len(blobs[name]))
			continue
		}
		if want := snapshotGolden[name]; got != want {
			t.Errorf("%s: blob of %d bytes has SHA-256 %s, golden %s", name, len(blobs[name]), got, want)
		}
	}
}
