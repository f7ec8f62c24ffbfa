package trace

import (
	"bytes"
	"io"
	"slices"
	"testing"
)

// The trace readers decode files a user hands to bmatch and tracegen, so
// they are fuzzed like every other decoder of untrusted bytes. The
// committed corpora under testdata/fuzz/FuzzReadCSV and
// testdata/fuzz/FuzzReadBinary hold a valid trace, a truncated body, a
// bad magic (for CSV: a binary trace), a huge request count (for CSV: an
// index implying a huge inferred rack count), a huge declared rack count,
// a self-loop and a negative index.

// checkAccepted holds a trace a reader accepted to the readers' contract:
// it validates, within MaxRacks, and reads back unchanged after the
// matching writer wrote it.
func checkAccepted(t *testing.T, tr *Trace, write func(io.Writer, *Trace) error, read func(io.Reader) (*Trace, error)) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("accepted trace fails Validate: %v", err)
	}
	if tr.NumRacks > MaxRacks {
		t.Fatalf("accepted trace has %d racks, more than MaxRacks %d", tr.NumRacks, MaxRacks)
	}
	var buf bytes.Buffer
	if err := write(&buf, tr); err != nil {
		t.Fatalf("writing the accepted trace back: %v", err)
	}
	again, err := read(&buf)
	if err != nil {
		t.Fatalf("re-reading the written trace: %v", err)
	}
	if again.Name != tr.Name || again.NumRacks != tr.NumRacks || !slices.Equal(again.Reqs, tr.Reqs) {
		t.Fatalf("round trip changed the trace: %q %d racks %d requests, then %q %d racks %d requests",
			tr.Name, tr.NumRacks, tr.Len(), again.Name, again.NumRacks, again.Len())
	}
}

func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkAccepted(t, tr, WriteCSV, ReadCSV)
	})
}

func FuzzReadBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkAccepted(t, tr, WriteBinary, ReadBinary)
	})
}
