// Package snap provides the little-endian binary primitives shared by
// every snapshot encoder/decoder in this repository (algorithm state,
// simulation counters, engine session blobs, grid checkpoints).
//
// A Writer wraps an io.Writer and a Reader wraps an io.Reader; both keep a
// running CRC-32 (IEEE) over every byte that passes through and both
// implement the plain stream interfaces, so nested Snapshot/Restore calls
// compose: an outer format wraps the stream once, inner sections write
// through it, and the outer trailer (WriteCRC / VerifyCRC) then covers the
// whole blob. Errors are sticky — after the first failure every call is a
// no-op and Err returns the original cause — so encoders can be written as
// straight-line sequences with a single error check at the end.
//
// Both sides move bytes a block at a time, because a snapshot is mostly
// long runs of 4- and 8-byte fields and every byte crosses one CRC per
// nesting level: a Writer stages its fields in a 1 KiB block and hands the
// block on when it fills, when raw bytes pass through it, and at Err and
// WriteCRC — so every section ends with Err (the outermost format with
// WriteCRC), which is also where its bytes reach the enclosing stream. A
// Reader reads the slice fields (I32s, U64s, F64s) a block at a time, and
// never more than they ask for, since the rest of the stream belongs to
// the enclosing sections.
//
// Decoders are written to be safe on adversarial input (the fuzz targets
// feed them arbitrary bytes): every variable-length field is validated
// against shape the restoring instance already knows, so a corrupt or
// truncated snapshot produces an error, never a panic or an
// attacker-controlled allocation.
package snap

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// ErrCorrupt tags snapshot decoding failures caused by the input bytes
// (bad magic, shape mismatch, failed CRC) as opposed to I/O errors.
var ErrCorrupt = fmt.Errorf("snap: corrupt snapshot")

// Corruptf returns an error wrapping ErrCorrupt, so callers can classify
// "bad bytes" separately from "broken transport" with errors.Is.
func Corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// blockSize is the staging block of a Writer and the read block of a
// Reader's slice fields.
const blockSize = 1024

// Writer encodes little-endian primitives onto an io.Writer with a running
// CRC-32 and a sticky error. Fields are staged in a block that reaches the
// underlying writer when it fills, before raw bytes pass through, and at
// Err and WriteCRC.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	err error
	n   int // staged bytes in blk
	blk [blockSize]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, crc: crc32.NewIEEE()}
}

// Err hands the staged fields to the underlying writer and returns the
// first error encountered, if any. A section's encoder ends with it.
func (w *Writer) Err() error {
	w.flush()
	return w.err
}

// Write implements io.Writer: raw bytes pass through the CRC accumulator,
// after the staged fields, which is what lets nested snapshot sections
// share one trailer.
func (w *Writer) Write(p []byte) (int, error) {
	w.flush()
	if w.err != nil {
		return 0, w.err
	}
	return w.pass(p)
}

// pass writes p to the underlying writer and the CRC.
func (w *Writer) pass(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.crc.Write(p[:n])
	if err != nil {
		w.err = err
	}
	return n, err
}

// flush hands the staged block on; after an error it is dropped.
func (w *Writer) flush() {
	n := w.n
	w.n = 0
	if n > 0 && w.err == nil {
		w.pass(w.blk[:n])
	}
}

// stage returns the next size bytes of the staging block, flushing it
// first when they do not fit. size is at most blockSize.
func (w *Writer) stage(size int) []byte {
	if w.n+size > blockSize {
		w.flush()
	}
	p := w.blk[w.n : w.n+size]
	w.n += size
	return p
}

// Bytes writes p verbatim.
func (w *Writer) Bytes(p []byte) {
	if len(p) <= blockSize {
		copy(w.stage(len(p)), p)
		return
	}
	w.Write(p)
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.stage(1)[0] = v }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { binary.LittleEndian.PutUint32(w.stage(4), v) }

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) { binary.LittleEndian.PutUint64(w.stage(8), v) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 writes a float64 as its IEEE-754 bits (bit-exact round trips).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// I32s writes each element of vs as a little-endian uint32 bit pattern.
func (w *Writer) I32s(vs []int32) {
	for _, v := range vs {
		w.U32(uint32(v))
	}
}

// U64s writes each element of vs.
func (w *Writer) U64s(vs []uint64) {
	for _, v := range vs {
		w.U64(v)
	}
}

// F64s writes each element of vs bit-exactly.
func (w *Writer) F64s(vs []float64) {
	for _, v := range vs {
		w.F64(v)
	}
}

// WriteCRC appends the running CRC-32 as a little-endian trailer. The
// trailer itself feeds the CRC too (harmlessly — the matching VerifyCRC
// compares before consuming it), so nested sections must not call this;
// only the outermost format does, exactly once, as its final field.
func (w *Writer) WriteCRC() {
	w.flush()
	w.U32(w.crc.Sum32())
	w.flush()
}

// Reader decodes little-endian primitives from an io.Reader with a running
// CRC-32 and a sticky error.
type Reader struct {
	r   io.Reader
	crc hash.Hash32
	err error
	buf [8]byte
	blk [blockSize]byte
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, crc: crc32.NewIEEE()}
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// fail records the sticky error (first one wins).
func (r *Reader) fail(err error) {
	if r.err == nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = Corruptf("truncated snapshot")
		}
		r.err = err
	}
}

// Read implements io.Reader, feeding the CRC accumulator.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.r.Read(p)
	r.crc.Write(p[:n])
	if err != nil && err != io.EOF {
		r.err = err
	}
	return n, err
}

// Bytes fills p from the stream.
func (r *Reader) Bytes(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r, p); err != nil {
		r.fail(err)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	r.Bytes(r.buf[:1])
	if r.err != nil {
		return 0
	}
	return r.buf[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	r.Bytes(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	r.Bytes(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// I32s fills vs with little-endian int32 values, a block at a time. On
// error it stops and leaves the unread elements as they were.
func (r *Reader) I32s(vs []int32) {
	for len(vs) > 0 {
		k := min(len(vs), blockSize/4)
		r.Bytes(r.blk[:4*k])
		if r.err != nil {
			return
		}
		for i := range vs[:k] {
			vs[i] = int32(binary.LittleEndian.Uint32(r.blk[4*i:]))
		}
		vs = vs[k:]
	}
}

// U64s fills vs, a block at a time. On error it stops and leaves the
// unread elements as they were.
func (r *Reader) U64s(vs []uint64) {
	for len(vs) > 0 {
		k := min(len(vs), blockSize/8)
		r.Bytes(r.blk[:8*k])
		if r.err != nil {
			return
		}
		for i := range vs[:k] {
			vs[i] = binary.LittleEndian.Uint64(r.blk[8*i:])
		}
		vs = vs[k:]
	}
}

// F64s fills vs bit-exactly, a block at a time. On error it stops and
// leaves the unread elements as they were.
func (r *Reader) F64s(vs []float64) {
	for len(vs) > 0 {
		k := min(len(vs), blockSize/8)
		r.Bytes(r.blk[:8*k])
		if r.err != nil {
			return
		}
		for i := range vs[:k] {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.blk[8*i:]))
		}
		vs = vs[k:]
	}
}

// Expect reads len(want) bytes and fails unless they equal want; used for
// magic tags.
func (r *Reader) Expect(want []byte) {
	got := make([]byte, len(want))
	r.Bytes(got)
	if r.err != nil {
		return
	}
	for i := range want {
		if got[i] != want[i] {
			r.fail(Corruptf("bad magic %q, want %q", got, want))
			return
		}
	}
}

// VerifyCRC reads the little-endian CRC-32 trailer and compares it with
// the running CRC over everything read so far. Call exactly once, as the
// outermost format's final field.
func (r *Reader) VerifyCRC() {
	if r.err != nil {
		return
	}
	want := r.crc.Sum32()
	got := r.U32()
	if r.err != nil {
		return
	}
	if got != want {
		r.fail(Corruptf("CRC mismatch: stored %#08x, computed %#08x", got, want))
	}
}
