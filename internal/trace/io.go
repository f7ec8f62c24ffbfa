package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// CSV format: a header line "src,dst" followed by one "u,v" line per
// request. Binary format: magic "OBMT", uint32 version, uint32 numRacks,
// uint64 count, then count little-endian (int32, int32) pairs.

const (
	binaryMagic   = "OBMT"
	binaryVersion = 1
)

// WriteCSV writes the trace in CSV form.
func WriteCSV(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# racks=%d name=%s\nsrc,dst\n", t.NumRacks, t.Name); err != nil {
		return err
	}
	for _, r := range t.Reqs {
		if _, err := fmt.Fprintf(bw, "%d,%d\n", r.Src, r.Dst); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCSVStream drains s (resetting it first) straight into w in CSV
// form, chunk by chunk — the whole trace is never materialized, so a
// stream of any length writes under O(1) memory. By the stream contract
// the output is byte-identical to WriteCSV over Collect(s).
func WriteCSVStream(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# racks=%d name=%s\nsrc,dst\n", s.NumRacks(), s.Name()); err != nil {
		return err
	}
	s.Reset()
	var buf [4096]Request
	seen := 0
	for {
		n := s.Next(buf[:])
		if n == 0 {
			break
		}
		seen += n
		for _, r := range buf[:n] {
			if _, err := fmt.Fprintf(bw, "%d,%d\n", r.Src, r.Dst); err != nil {
				return err
			}
		}
	}
	if seen != s.Len() {
		return fmt.Errorf("trace: stream %q produced %d requests, declared %d", s.Name(), seen, s.Len())
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV. The "# racks=… name=…"
// comment is optional; if absent, NumRacks is inferred as max index + 1.
// A declared or inferred rack count above MaxRacks is an error.
func ReadCSV(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Trace{}
	maxIdx := int32(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			for _, field := range strings.Fields(line[1:]) {
				if v, ok := strings.CutPrefix(field, "racks="); ok {
					n, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("trace: line %d: bad racks= value %q", lineNo, v)
					}
					if n > MaxRacks {
						return nil, fmt.Errorf("trace: line %d: racks=%d, at most %d", lineNo, n, MaxRacks)
					}
					t.NumRacks = n
				} else if v, ok := strings.CutPrefix(field, "name="); ok {
					t.Name = v
				}
			}
			continue
		}
		if line == "src,dst" {
			continue
		}
		a, b, ok := strings.Cut(line, ",")
		if !ok {
			return nil, fmt.Errorf("trace: line %d: malformed request %q", lineNo, line)
		}
		u, err := strconv.Atoi(strings.TrimSpace(a))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad src %q", lineNo, a)
		}
		v, err := strconv.Atoi(strings.TrimSpace(b))
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad dst %q", lineNo, b)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("trace: line %d: negative rack index", lineNo)
		}
		if u >= MaxRacks || v >= MaxRacks {
			return nil, fmt.Errorf("trace: line %d: rack index %d out of range [0,%d)", lineNo, max(u, v), MaxRacks)
		}
		if u == v {
			return nil, fmt.Errorf("trace: line %d: self-loop request at %d", lineNo, u)
		}
		t.Reqs = append(t.Reqs, Request{Src: int32(u), Dst: int32(v)})
		if int32(u) > maxIdx {
			maxIdx = int32(u)
		}
		if int32(v) > maxIdx {
			maxIdx = int32(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if t.NumRacks == 0 {
		t.NumRacks = int(maxIdx) + 1
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadFile reads a trace file in either format: the binary format when
// the file starts with its magic, CSV otherwise.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if magic, _ := br.Peek(len(binaryMagic)); string(magic) == binaryMagic {
		return ReadBinary(br)
	}
	return ReadCSV(br)
}

// WriteBinary writes the trace in the compact binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], binaryVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(t.NumRacks))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(t.Reqs)))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	buf := make([]byte, 8)
	for _, r := range t.Reqs {
		binary.LittleEndian.PutUint32(buf[0:], uint32(r.Src))
		binary.LittleEndian.PutUint32(buf[4:], uint32(r.Dst))
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteBinaryStream drains s (resetting it first) straight into w in the
// compact binary format, chunk by chunk under O(1) memory. The request
// count every Stream knows a priori (Len) goes into the header up front,
// so the output is byte-identical to WriteBinary over Collect(s).
func WriteBinaryStream(w io.Writer, s Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint32(hdr[0:], binaryVersion)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(s.NumRacks()))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(s.Len()))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	s.Reset()
	var (
		reqs [4096]Request
		rec  [8]byte
		seen int
	)
	for {
		n := s.Next(reqs[:])
		if n == 0 {
			break
		}
		seen += n
		for _, r := range reqs[:n] {
			binary.LittleEndian.PutUint32(rec[0:], uint32(r.Src))
			binary.LittleEndian.PutUint32(rec[4:], uint32(r.Dst))
			if _, err := bw.Write(rec[:]); err != nil {
				return err
			}
		}
	}
	if seen != s.Len() {
		return fmt.Errorf("trace: stream %q produced %d requests, declared %d", s.Name(), seen, s.Len())
	}
	return bw.Flush()
}

// ReadBinary parses a trace written by WriteBinary. A rack count above
// MaxRacks is an error, and the header's request count is only a claim:
// the request slice grows as records arrive, so a short body is an error,
// never an allocation sized from the header.
func ReadBinary(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	hdr := make([]byte, 16)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	racks := binary.LittleEndian.Uint32(hdr[4:])
	if racks > MaxRacks {
		return nil, fmt.Errorf("trace: %d racks, at most %d", racks, MaxRacks)
	}
	t := &Trace{NumRacks: int(racks)}
	count := binary.LittleEndian.Uint64(hdr[8:])
	t.Reqs = make([]Request, 0, min(count, 1<<16))
	var buf [8]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: reading request %d of %d: %w", i, count, err)
		}
		t.Reqs = append(t.Reqs, Request{
			Src: int32(binary.LittleEndian.Uint32(buf[0:])),
			Dst: int32(binary.LittleEndian.Uint32(buf[4:])),
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
