package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"obm/internal/snap"
)

// collect opens path and gathers every replayed payload.
func collect(t *testing.T, path string) (*Log, [][]byte) {
	t.Helper()
	var got [][]byte
	l, n, err := Open(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if n != len(got) {
		t.Fatalf("Open replayed %d records, callback saw %d", n, len(got))
	}
	return l, got
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("one"), {}, []byte("three-with-longer-payload"), {0, 1, 2, 3}}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, got := collect(t, path)
	defer l2.Close()
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
	// The reopened log keeps appending on a clean boundary.
	if err := l2.Append([]byte("five")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, got := collect(t, path)
	l3.Close()
	if len(got) != len(recs)+1 || !bytes.Equal(got[len(recs)], []byte("five")) {
		t.Fatalf("after reopen-append: %d records, last %q", len(got), got[len(got)-1])
	}
}

// TestTornTailTrimmedAtEveryBoundary cuts the file at every byte length
// inside the final record (and inside the header) and requires Open to
// recover exactly the whole records before the tear — and to trim the
// file so a subsequent append starts clean.
func TestTornTailTrimmedAtEveryBoundary(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	l, err := Create(full)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("alpha"), []byte("beta-beta"), []byte("gamma")}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	blob, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets of each record's start.
	bounds := []int{len(Header)}
	for _, r := range recs {
		bounds = append(bounds, bounds[len(bounds)-1]+4+len(r)+4)
	}
	for cut := 0; cut < len(blob); cut++ {
		path := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(path, blob[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantWhole := 0
		for _, b := range bounds[1:] {
			if cut >= b {
				wantWhole++
			}
		}
		l, got := collect(t, path)
		if len(got) != wantWhole {
			t.Fatalf("cut at %d: replayed %d records, want %d", cut, len(got), wantWhole)
		}
		if torn := cut > 0 && !slices.Contains(bounds, cut); l.Trimmed() != torn {
			t.Fatalf("cut at %d: Trimmed() = %v, want %v", cut, l.Trimmed(), torn)
		}
		// The trim is durable: append and re-open must see whole+1.
		if err := l.Append([]byte("tail")); err != nil {
			t.Fatalf("cut at %d: append after trim: %v", cut, err)
		}
		l.Close()
		l2, got2 := collect(t, path)
		l2.Close()
		if l2.Trimmed() {
			t.Fatalf("cut at %d: the reopened log trimmed again", cut)
		}
		if len(got2) != wantWhole+1 || !bytes.Equal(got2[wantWhole], []byte("tail")) {
			t.Fatalf("cut at %d: after trim+append replayed %d records", cut, len(got2))
		}
		os.Remove(path)
	}
}

func TestCorruptionMidFileIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("first"))
	l.Append([]byte("second"))
	l.Close()
	blob, _ := os.ReadFile(path)

	// Flip one payload byte of the FIRST record: a CRC mismatch with more
	// records following is corruption, not a torn tail.
	bad := append([]byte(nil), blob...)
	bad[len(Header)+4] ^= 0xff
	os.WriteFile(path, bad, 0o644)
	if _, _, err := Open(path, nil); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("mid-file corruption: %v, want ErrCorrupt", err)
	}

	// A wrong header is corruption too.
	bad = append([]byte(nil), blob...)
	bad[0] = 'X'
	os.WriteFile(path, bad, 0o644)
	if _, _, err := Open(path, nil); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("bad header: %v, want ErrCorrupt", err)
	}

	// An oversized length whose claimed extent is fully present is
	// corruption (a torn write can only truncate, never extend).
	var frame []byte
	frame = binary.LittleEndian.AppendUint32(frame, MaxRecord+1)
	frame = append(frame, make([]byte, MaxRecord+1)...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame[4:]))
	os.WriteFile(path, append([]byte(Header), frame...), 0o644)
	if _, _, err := Open(path, nil); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("oversized record: %v, want ErrCorrupt", err)
	}
}

func TestCallbackErrorAbortsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := Create(path)
	l.Append([]byte("ok"))
	l.Append([]byte("poison"))
	l.Close()
	want := errors.New("semantic failure")
	_, n, err := Open(path, func(p []byte) error {
		if bytes.Equal(p, []byte("poison")) {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) || n != 1 {
		t.Fatalf("Open = (%d, %v), want fn error after 1 record", n, err)
	}
}

func TestRemove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.wal")
	l, _ := Create(path)
	l.Append([]byte("x"))
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("file still present after Remove: %v", err)
	}
	// Removing a missing file is not an error (idempotent cleanup).
	if err := l.Remove(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	// Missing file: created fresh.
	l, n, err := Open(filepath.Join(dir, "fresh.wal"), nil)
	if err != nil || n != 0 {
		t.Fatalf("Open missing = (%d, %v)", n, err)
	}
	l.Append([]byte("a"))
	l.Close()
	// Zero-byte file (crash before the header write landed): reset.
	empty := filepath.Join(dir, "empty.wal")
	os.WriteFile(empty, nil, 0o644)
	l2, n, err := Open(empty, nil)
	if err != nil || n != 0 {
		t.Fatalf("Open empty = (%d, %v)", n, err)
	}
	if err := l2.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, got := collect(t, empty)
	l3.Close()
	if len(got) != 1 || !bytes.Equal(got[0], []byte("b")) {
		t.Fatalf("reset empty file replay = %q", got)
	}
}

// TestWriteAtomic: the file is replaced whole, with or without sync, and
// a failed replace leaves the old file and no temp file behind.
func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.json")
	for _, sync := range []bool{false, true} {
		want := []byte(fmt.Sprintf("sync=%v\n", sync))
		if err := WriteAtomic(path, want, sync); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after WriteAtomic(sync=%v): %q, %v", sync, got, err)
		}
	}
	squatted := filepath.Join(dir, "squat")
	if err := os.MkdirAll(filepath.Join(squatted, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteAtomic(squatted, []byte("x"), false); err == nil {
		t.Fatal("WriteAtomic replaced a non-empty directory")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}
