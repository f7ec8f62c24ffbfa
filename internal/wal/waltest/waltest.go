// Package waltest builds and cuts internal/wal images for tests that
// plant job logs or shard uploads, so that every planted byte lies on a
// record boundary unless a test tears a record on purpose.
package waltest

import (
	"testing"

	"obm/internal/wal"
)

// Image returns the wal image holding payloads, in order: the bytes a
// Log that appended them holds.
func Image(payloads ...[]byte) []byte {
	image := []byte(wal.Header)
	for _, p := range payloads {
		image = wal.AppendFrame(image, p)
	}
	return image
}

// Records decodes image, which must be whole, into its payloads.
func Records(t testing.TB, image []byte) [][]byte {
	t.Helper()
	var recs [][]byte
	end, _, err := wal.Decode(image, func(p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	})
	if err != nil || end != len(image) {
		t.Fatalf("waltest: not a whole wal image (%d of %d bytes decode): %v", end, len(image), err)
	}
	return recs
}

// Prefix cuts image after its first n records, the shape of a partial
// shard upload. It fails t unless 1 <= n <= the records image holds, so
// a cut always carries exactly n.
func Prefix(t testing.TB, image []byte, n int) []byte {
	t.Helper()
	recs := Records(t, image)
	if n < 1 || n > len(recs) {
		t.Fatalf("waltest: cannot cut %d records off an image holding %d", n, len(recs))
	}
	return Image(recs[:n]...)
}
