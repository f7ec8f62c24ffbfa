package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	tr := Uniform(12, 500, 3)
	tr.Name = "rt"
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || got.NumRacks != 12 || got.Len() != 500 {
		t.Fatalf("round trip header mismatch: %+v", got)
	}
	for i := range tr.Reqs {
		if got.Reqs[i] != tr.Reqs[i] {
			t.Fatalf("request %d mismatch", i)
		}
	}
}

func TestCSVInfersRacks(t *testing.T) {
	in := "src,dst\n0,5\n2,3\n"
	tr, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumRacks != 6 {
		t.Fatalf("inferred racks = %d, want 6", tr.NumRacks)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []string{
		"src,dst\n0\n",
		"src,dst\nx,1\n",
		"src,dst\n1,y\n",
		"src,dst\n-1,2\n",
		"src,dst\n3,3\n",
		"# racks=zz\nsrc,dst\n0,1\n",
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: expected error for %q", i, in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := MicrosoftStyle(10, 2000, 7)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRacks != tr.NumRacks || got.Len() != tr.Len() {
		t.Fatal("binary round trip shape mismatch")
	}
	for i := range tr.Reqs {
		if got.Reqs[i] != tr.Reqs[i] {
			t.Fatalf("request %d mismatch", i)
		}
	}
}

// TestReadFileSniffsFormat: ReadFile reads both formats of one trace to
// the same requests, picking binary by its magic and CSV otherwise.
func TestReadFileSniffsFormat(t *testing.T) {
	tr := MicrosoftStyle(10, 2000, 7)
	dir := t.TempDir()
	for name, write := range map[string]func(io.Writer, *Trace) error{"t.csv": WriteCSV, "t.bin": WriteBinary} {
		var buf bytes.Buffer
		if err := write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.NumRacks != tr.NumRacks || !slices.Equal(got.Reqs, tr.Reqs) {
			t.Fatalf("%s: read a different trace", name)
		}
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file read")
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE1234567890123456")); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestBinaryTruncated(t *testing.T) {
	tr := Uniform(5, 100, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	tr := &Trace{Name: "empty", NumRacks: 4}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.NumRacks != 4 {
		t.Fatal("empty trace round trip failed")
	}
}

func TestAnalyzeEmptyTrace(t *testing.T) {
	c := Analyze(&Trace{NumRacks: 3})
	if c.UniquePairs != 0 || c.RepeatRatio != 0 {
		t.Fatal("empty trace should produce zero stats")
	}
}

func TestAnalyzePointMass(t *testing.T) {
	reqs := make([]Request, 100)
	for i := range reqs {
		reqs[i] = Request{0, 1}
	}
	c := Analyze(&Trace{NumRacks: 2, Reqs: reqs})
	if c.UniquePairs != 1 || c.RepeatRatio != 1 || c.PairEntropy != 0 {
		t.Fatalf("point-mass stats wrong: %+v", c)
	}
	if c.Top10Share != 1 {
		t.Fatalf("Top10Share = %v, want 1", c.Top10Share)
	}
}

// TestStreamWritersMatchMaterialized: the streaming writers must emit
// byte-identical files to their materialized twins over Collect of the
// same stream — the stream contract, applied to trace I/O.
func TestStreamWritersMatchMaterialized(t *testing.T) {
	streams := []func() Stream{
		func() Stream { s, _ := NewUniformStream(10, 700, 5); return s },
		func() Stream { s, _ := NewMicrosoftStream(12, 600, 6); return s },
		func() Stream { s, _ := NewPermutationStream(8, 500, 7); return s },
		func() Stream {
			p := FacebookPreset(Hadoop, 14, 8)
			p.Requests = 650
			s, _ := NewFacebookStream(p)
			return s
		},
	}
	for _, mk := range streams {
		s := mk()
		tr := Collect(mk())

		var matCSV, strCSV bytes.Buffer
		if err := WriteCSV(&matCSV, tr); err != nil {
			t.Fatal(err)
		}
		if err := WriteCSVStream(&strCSV, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(matCSV.Bytes(), strCSV.Bytes()) {
			t.Errorf("%s: streamed CSV differs from materialized", s.Name())
		}

		var matBin, strBin bytes.Buffer
		if err := WriteBinary(&matBin, tr); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinaryStream(&strBin, s); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(matBin.Bytes(), strBin.Bytes()) {
			t.Errorf("%s: streamed binary differs from materialized", s.Name())
		}

		// And the streamed binary reads back as the collected trace.
		got, err := ReadBinary(&strBin)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != tr.Len() || got.NumRacks != tr.NumRacks {
			t.Errorf("%s: read-back mismatch: %d/%d racks %d/%d",
				s.Name(), got.Len(), tr.Len(), got.NumRacks, tr.NumRacks)
		}
	}
}

// TestWriteCSVStreamIsResumable: writing twice from the same stream
// instance yields identical output (the writer resets the stream).
func TestWriteCSVStreamIsResumable(t *testing.T) {
	s, err := NewUniformStream(6, 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteCSVStream(&a, s); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSVStream(&b, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("second streamed write differs from the first")
	}
}

// TestReadBinaryHugeCountIsAnError: a 20-byte binary trace whose header
// declares 2³² requests is a truncated body, and an error, not a 32 GiB
// allocation sized from the header. A rack count beyond MaxRacks is an
// error too.
func TestReadBinaryHugeCountIsAnError(t *testing.T) {
	hdr := func(racks uint32, count uint64) []byte {
		b := []byte(binaryMagic)
		b = binary.LittleEndian.AppendUint32(b, binaryVersion)
		b = binary.LittleEndian.AppendUint32(b, racks)
		return binary.LittleEndian.AppendUint64(b, count)
	}
	probe := hdr(8, 1<<32)
	if len(probe) != 20 {
		t.Fatalf("probe is %d bytes, want 20", len(probe))
	}
	if _, err := ReadBinary(bytes.NewReader(probe)); err == nil {
		t.Fatal("a 20-byte trace declaring 2^32 requests was accepted")
	}
	huge := binary.LittleEndian.AppendUint64(hdr(MaxRacks+1, 1), 1)
	if _, err := ReadBinary(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "racks") {
		t.Fatalf("a trace of %d racks: err = %v, want the rack bound", MaxRacks+1, err)
	}
}

// TestReadCSVHugeRackCountIsAnError: a CSV declaring 100000 racks, or one
// whose largest index implies more than MaxRacks, is an error: the caller
// would otherwise build a racks² table for it. An index past int32 is
// refused too, rather than wrapped to a small one.
func TestReadCSVHugeRackCountIsAnError(t *testing.T) {
	for _, in := range []string{
		"# racks=100000 name=probe\nsrc,dst\n0,1\n1,2\n",
		"src,dst\n0,1\n1,4096\n",
		"src,dst\n0,1\n1,4294967296\n",
	} {
		if tr, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%q: accepted as %d racks, want the %d-rack bound", in, tr.NumRacks, MaxRacks)
		}
	}
	if tr, err := ReadCSV(strings.NewReader("src,dst\n0,1\n1,4095\n")); err != nil || tr.NumRacks != MaxRacks {
		t.Fatalf("a trace at the bound: %v, %v; want %d racks", tr, err, MaxRacks)
	}
}
