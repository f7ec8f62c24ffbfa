package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"testing"
)

// TestRoundTrip checks that every primitive round-trips bit-exactly and
// that the CRC trailer verifies.
func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes([]byte("MAGI"))
	w.U8(7)
	w.U32(0xdeadbeef)
	w.U64(1 << 60)
	w.I64(-42)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.I32s([]int32{-1, 0, 1 << 30})
	w.U64s([]uint64{0, ^uint64(0)})
	w.F64s([]float64{0.5, -0.0})
	w.WriteCRC()
	if err := w.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Expect([]byte("MAGI"))
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d, want 7", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 1<<60 {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 = %v, want -Inf", got)
	}
	i32 := make([]int32, 3)
	r.I32s(i32)
	if i32[0] != -1 || i32[2] != 1<<30 {
		t.Errorf("I32s = %v", i32)
	}
	u64 := make([]uint64, 2)
	r.U64s(u64)
	if u64[1] != ^uint64(0) {
		t.Errorf("U64s = %v", u64)
	}
	f64 := make([]float64, 2)
	r.F64s(f64)
	if math.Float64bits(f64[1]) != math.Float64bits(-0.0) {
		t.Errorf("F64s negative zero lost: %v", f64)
	}
	r.VerifyCRC()
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
}

// TestCorruption checks that flipped bits fail the CRC and that truncation
// and bad magic surface as ErrCorrupt, never as success.
func TestCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Bytes([]byte("MAGI"))
	w.U64(12345)
	w.WriteCRC()
	blob := buf.Bytes()

	for i := range blob {
		bad := bytes.Clone(blob)
		bad[i] ^= 0x40
		r := NewReader(bytes.NewReader(bad))
		r.Expect([]byte("MAGI"))
		r.U64()
		r.VerifyCRC()
		if r.Err() == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("flip at byte %d: error %v does not wrap ErrCorrupt", i, r.Err())
		}
	}
	for n := 0; n < len(blob); n++ {
		r := NewReader(bytes.NewReader(blob[:n]))
		r.Expect([]byte("MAGI"))
		r.U64()
		r.VerifyCRC()
		if !errors.Is(r.Err(), ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v", n, r.Err())
		}
	}
}

// TestStickyWriterError checks that a failing sink poisons the writer once
// and for all.
func TestStickyWriterError(t *testing.T) {
	w := NewWriter(failWriter{})
	w.U64(1)
	first := w.Err()
	if first == nil {
		t.Fatal("no error from failing sink")
	}
	w.U64(2)
	w.WriteCRC()
	if w.Err() != first {
		t.Fatalf("sticky error replaced: %v -> %v", first, w.Err())
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// TestBlocksKeepStreamOrder writes fields that span several staging
// blocks, raw bytes longer than a block and a nested section, and checks
// the stream against the same fields encoded one by one: staging may
// change how bytes reach the sink, never which bytes or in what order.
// The reader's block-wise slice fields must read it back, and fail on
// every truncation.
func TestBlocksKeepStreamOrder(t *testing.T) {
	i32 := make([]int32, 700)
	u64 := make([]uint64, 300)
	f64 := make([]float64, 200)
	raw := make([]byte, 3*blockSize+5)
	for i := range i32 {
		i32[i] = int32(i*7919 - 100000)
	}
	for i := range u64 {
		u64[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := range f64 {
		f64[i] = float64(i) / 3
	}
	for i := range raw {
		raw[i] = byte(i * 31)
	}

	var want bytes.Buffer
	put := func(v any) { binary.Write(&want, binary.LittleEndian, v) }
	put(uint8(9))
	put(i32)
	put(u64)
	want.Write(raw)
	put(uint32(77))
	put(f64)
	put(crc32.ChecksumIEEE(want.Bytes()))

	var got bytes.Buffer
	w := NewWriter(&got)
	w.U8(9)
	w.I32s(i32)
	inner := NewWriter(w)
	inner.U64s(u64)
	if err := inner.Err(); err != nil {
		t.Fatal(err)
	}
	w.Bytes(raw)
	w.U32(77)
	w.F64s(f64)
	w.WriteCRC()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("staged stream of %d bytes differs from the field-by-field encoding of %d bytes", got.Len(), want.Len())
	}

	read := func(blob []byte) error {
		r := NewReader(bytes.NewReader(blob))
		g8 := r.U8()
		gi := make([]int32, len(i32))
		r.I32s(gi)
		gu := make([]uint64, len(u64))
		NewReader(r).U64s(gu)
		gr := make([]byte, len(raw))
		r.Bytes(gr)
		r.U32()
		gf := make([]float64, len(f64))
		r.F64s(gf)
		r.VerifyCRC()
		if r.Err() != nil {
			return r.Err()
		}
		if g8 != 9 {
			return errors.New("U8 mismatch")
		}
		for i := range gi {
			if gi[i] != i32[i] {
				return errors.New("I32s mismatch")
			}
		}
		for i := range gu {
			if gu[i] != u64[i] {
				return errors.New("U64s mismatch")
			}
		}
		for i := range gf {
			if math.Float64bits(gf[i]) != math.Float64bits(f64[i]) {
				return errors.New("F64s mismatch")
			}
		}
		if !bytes.Equal(gr, raw) {
			return errors.New("Bytes mismatch")
		}
		return nil
	}
	blob := got.Bytes()
	if err := read(blob); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n += 97 {
		if err := read(blob[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v", n, err)
		}
	}
}
