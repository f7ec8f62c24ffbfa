// Package wal holds the repository's two durable-file mechanisms. Log
// is a compact append-only record log with crash-safe recovery, shared by
// every subsystem that keeps a durable event stream: the run store's job
// log (internal/report) and the coordinator's lease WAL (internal/serve).
// WriteAtomic replaces a whole file at once, for the small files that are
// rewritten rather than appended to: manifests, rendered summaries and
// replay checkpoints.
//
// It deliberately mirrors the internal/snap discipline: little-endian
// framing, CRC-32 (IEEE) integrity trailers, and a decoder that is safe
// on adversarial input — no allocation is ever sized from the input
// beyond a fixed cap, and corrupt bytes produce an error wrapping
// snap.ErrCorrupt, never a panic.
//
// On-disk format:
//
//	header   8 bytes  "OBMWAL1\n"
//	record   u32 payload length (LE)
//	         payload bytes (opaque to this package)
//	         u32 CRC-32 IEEE over the payload (LE)
//	...      records repeat to EOF
//
// Recovery is the torn-tail contract: appends are one write() each, so a
// crash tears at most the final record. Open trims an incomplete trailing
// record (including a partially written header of a just-created file)
// back to the last whole record and positions the log for clean appends.
// Anything else — a CRC mismatch, even in the last whole record, an
// oversized length mid-file, trailing garbage that parses as neither —
// is corruption and surfaces as snap.ErrCorrupt: the log refuses to open
// rather than replaying a lie. A torn write only ever shortens the file,
// so a record whose whole extent is present was written whole.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"obm/internal/snap"
)

// Header opens every WAL file and names its format version; bump the
// digit to invalidate old logs on an incompatible change.
const Header = "OBMWAL1\n"

// MaxRecord caps a single record's payload. Lease records are tens of
// bytes and job records a few hundred plus their curve points, which
// report.NewManifest bounds to fit; the cap exists so a corrupt length
// field can never drive an attacker-sized allocation.
const MaxRecord = 1 << 20

// Log is an open write-ahead log positioned for appends. Create/Open
// construct it; Append adds one record, Sync makes the appended records
// durable, Close releases it.
// A Log is not safe for concurrent use — callers serialize (the
// coordinator appends under its per-job lock).
type Log struct {
	path    string
	f       *os.File
	buf     []byte // reused append frame
	trimmed bool
}

// Create truncates any existing log at path and starts a fresh one.
func Create(path string) (*Log, error) { return CreateImage(path, []byte(Header)) }

// CreateImage truncates any existing log at path and writes image, a log
// image built as Header plus AppendFrame frames, in one write: the log
// then holds image's records and is positioned for appends.
func CreateImage(path string, image []byte) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(image); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{path: path, f: f}, nil
}

// Open reads the log at path, invoking fn once per decoded record payload
// in append order, then returns the log positioned for further appends
// (trimming a torn tail first; Trimmed reports whether it did). A missing
// file is created empty. The returned count is the number of records
// replayed.
//
// Decoding errors wrap snap.ErrCorrupt. An error from fn aborts the open
// and is returned as-is — the caller decides whether a semantically
// invalid log is discardable.
func Open(path string, fn func(payload []byte) error) (*Log, int, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	goodEnd, n, err := Decode(data, fn)
	if err != nil {
		return nil, n, err
	}
	if goodEnd == 0 {
		// A missing file, or one whose header was torn (created and
		// killed within one write): start it over.
		l, err := Create(path)
		if l != nil {
			l.trimmed = len(data) > 0
		}
		return l, 0, err
	}
	if goodEnd < len(data) {
		if err := os.Truncate(path, int64(goodEnd)); err != nil {
			return nil, n, fmt.Errorf("wal: trimming torn tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, n, err
	}
	return &Log{path: path, f: f, trimmed: goodEnd < len(data)}, n, nil
}

// Decode scans data as a WAL image, invoking fn per record payload.
// It returns the byte offset just past the last whole record (the torn
// tail, if any, lies beyond goodEnd), the number of records decoded, and
// the first error: snap.ErrCorrupt-wrapped for bad bytes, or fn's error
// verbatim. It never allocates from lengths found in the input.
func Decode(data []byte, fn func(payload []byte) error) (goodEnd, records int, err error) {
	if len(data) < len(Header) {
		// A torn header: nothing replayable, trim to zero.
		return 0, 0, nil
	}
	for i := range len(Header) {
		if data[i] != Header[i] {
			return 0, 0, snap.Corruptf("wal: bad header %q", data[:len(Header)])
		}
	}
	pos := len(Header)
	for {
		rest := len(data) - pos
		if rest == 0 {
			return pos, records, nil
		}
		if rest < 4 {
			return pos, records, nil // torn length prefix
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		if rest-4 < n || rest-4-n < 4 {
			// Fewer bytes than the record claims: a torn append (or a
			// corrupt length so large the distinction is moot) — trim.
			return pos, records, nil
		}
		if n > MaxRecord {
			// The full claimed extent is present, so this is no torn
			// write — it is corruption.
			return pos, records, snap.Corruptf("wal: record %d claims %d bytes (max %d)", records, n, MaxRecord)
		}
		payload := data[pos+4 : pos+4+n]
		stored := binary.LittleEndian.Uint32(data[pos+4+n:])
		if got := crc32.ChecksumIEEE(payload); got != stored {
			return pos, records, snap.Corruptf("wal: record %d CRC mismatch: stored %#08x, computed %#08x", records, stored, got)
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return pos, records, err
			}
		}
		records++
		pos += 4 + n + 4
	}
}

// Append adds one record: length, payload and CRC framed into a single
// write, so a crash tears at most this record and Open trims it. Append
// only writes; the record is durable once Sync returns.
func (l *Log) Append(payload []byte) error {
	if l.f == nil {
		return fmt.Errorf("wal: %s is closed", l.path)
	}
	if len(payload) > MaxRecord {
		return fmt.Errorf("wal: record of %d bytes exceeds max %d", len(payload), MaxRecord)
	}
	l.buf = AppendFrame(l.buf[:0], payload)
	_, err := l.f.Write(l.buf)
	return err
}

// AppendFrame appends payload's record frame — length, payload, CRC — to
// b: the bytes Append writes, and what follows Header in an image.
func AppendFrame(b, payload []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	if l.f == nil {
		return nil
	}
	return l.f.Sync()
}

// Trimmed reports whether Open cut a torn tail off the log.
func (l *Log) Trimmed() bool { return l.trimmed }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close releases the log. Further Appends fail.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Remove closes the log and deletes its file — the caller has decided the
// state it journals is terminal (or superseded) and must not be replayed.
func (l *Log) Remove() error {
	cerr := l.Close()
	rerr := os.Remove(l.path)
	if cerr != nil {
		return cerr
	}
	if rerr != nil && !os.IsNotExist(rerr) {
		return rerr
	}
	return nil
}

// WriteAtomic replaces the file at path with data through a temp file in
// the same directory that is renamed over it, so readers and a crash see
// the old file or the new one, never a torn one. With sync, the temp file
// is flushed to stable storage before the rename.
func WriteAtomic(path string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil && sync {
		err = tmp.Sync()
	}
	if err = errors.Join(err, tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
