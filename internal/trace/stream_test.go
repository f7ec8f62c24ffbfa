package trace

import (
	"io"
	"reflect"
	"testing"
)

// streamFamilies enumerates every stream constructor next to the
// materialized generator it must reproduce bit-for-bit (nil for the new
// scenario families, which have no materialized twin).
func streamFamilies(t *testing.T) []struct {
	name   string
	stream func() (Stream, error)
	mat    func() (*Trace, error)
} {
	t.Helper()
	fbParams := FacebookPreset(Database, 20, 7)
	fbParams.Requests = 5000
	m := SkewedMatrix(16, 1.0, 8, 8, 3)
	return []struct {
		name   string
		stream func() (Stream, error)
		mat    func() (*Trace, error)
	}{
		{
			name:   "facebook",
			stream: func() (Stream, error) { return NewFacebookStream(fbParams) },
			mat:    func() (*Trace, error) { return FacebookStyle(fbParams) },
		},
		{
			name:   "uniform",
			stream: func() (Stream, error) { return NewUniformStream(18, 4000, 5) },
			mat:    func() (*Trace, error) { return Uniform(18, 4000, 5), nil },
		},
		{
			name:   "microsoft",
			stream: func() (Stream, error) { return NewMicrosoftStream(16, 4000, 3) },
			mat:    func() (*Trace, error) { return MicrosoftStyle(16, 4000, 3), nil },
		},
		{
			name:   "iid-matrix",
			stream: func() (Stream, error) { return NewIIDStream(m, 3000, 9, "") },
			mat:    func() (*Trace, error) { return m.SampleIID(3000, 9), nil },
		},
		{
			name:   "phase-shift",
			stream: func() (Stream, error) { return NewPhaseShiftStream(14, 4500, 3, 11) },
			mat:    func() (*Trace, error) { return PhaseShift(14, 4500, 3, 11) },
		},
		{
			name:   "permutation",
			stream: func() (Stream, error) { return NewPermutationStream(12, 2000, 13) },
			mat:    func() (*Trace, error) { return Permutation(12, 2000, 13), nil },
		},
		{
			name: "diurnal",
			stream: func() (Stream, error) {
				return NewDiurnalStream(DiurnalParams{Racks: 16, Requests: 4000, Seed: 17})
			},
		},
		{
			name: "hotspot",
			stream: func() (Stream, error) {
				return NewHotspotStream(HotspotParams{Racks: 16, Requests: 4000, Seed: 19, MigrateEvery: 500})
			},
		},
		{
			name: "tenant-mix",
			stream: func() (Stream, error) {
				return NewTenantMixStream(TenantMixParams{Racks: 16, Requests: 4000, Seed: 23})
			},
		},
	}
}

// drainSizes reads the stream to exhaustion with the given batch sizes,
// cycling through them.
func drainSizes(s Stream, sizes ...int) []Request {
	var out []Request
	buf := make([]Request, 8192)
	for i := 0; ; i++ {
		n := s.Next(buf[:sizes[i%len(sizes)]])
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestStreamMatchesMaterializedGenerator(t *testing.T) {
	for _, f := range streamFamilies(t) {
		if f.mat == nil {
			continue
		}
		t.Run(f.name, func(t *testing.T) {
			s, err := f.stream()
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.mat()
			if err != nil {
				t.Fatal(err)
			}
			got := Collect(s)
			if got.Name != want.Name || got.NumRacks != want.NumRacks {
				t.Fatalf("stream metadata (%q, %d) != materialized (%q, %d)",
					got.Name, got.NumRacks, want.Name, want.NumRacks)
			}
			if !reflect.DeepEqual(got.Reqs, want.Reqs) {
				t.Fatalf("stream drain differs from materialized generator")
			}
		})
	}
}

func TestStreamChunkSizeIndependence(t *testing.T) {
	for _, f := range streamFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.stream()
			if err != nil {
				t.Fatal(err)
			}
			whole := drainSizes(s, 8192)
			if len(whole) != s.Len() {
				t.Fatalf("stream produced %d requests, Len() = %d", len(whole), s.Len())
			}
			s.Reset()
			ragged := drainSizes(s, 1, 7, 97, 1024)
			if !reflect.DeepEqual(whole, ragged) {
				t.Fatal("request sequence depends on the batch sizes used to read it")
			}
			if tr := (&Trace{Name: "x", NumRacks: s.NumRacks(), Reqs: whole}); tr.Validate() != nil {
				t.Fatalf("stream produced invalid requests: %v", tr.Validate())
			}
		})
	}
}

func TestStreamResetReproducesSequence(t *testing.T) {
	for _, f := range streamFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.stream()
			if err != nil {
				t.Fatal(err)
			}
			// Read part of the stream, then Reset mid-flight: the second
			// pass must reproduce the full sequence bit-identically.
			partial := make([]Request, s.Len()/3+1)
			s.Next(partial)
			s.Reset()
			first := drainSizes(s, 4096)
			s.Reset()
			second := drainSizes(s, 4096)
			if !reflect.DeepEqual(first, second) {
				t.Fatal("Reset does not reproduce the stream")
			}
		})
	}
}

func TestSourceMatchesMaterializedCompile(t *testing.T) {
	dist := func(u, v int) int { // any deterministic metric ≥ 1 will do
		if (u+v)%3 == 0 {
			return 4
		}
		return 2
	}
	for _, f := range streamFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			s, err := f.stream()
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewSource(s, dist)
			if err != nil {
				t.Fatal(err)
			}
			chunked, err := DrainSource(src)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Collect(s).Compile(dist)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(chunked.Reqs, want.Reqs) {
				t.Fatal("chunked compilation differs from Trace.Compile")
			}
			// The materialized adapter must round-trip as well.
			roundTrip, err := DrainSource(want.Source())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(roundTrip.Reqs, want.Reqs) {
				t.Fatal("(*Compiled).Source does not round-trip")
			}
		})
	}
}

func TestSourceEOFAndReset(t *testing.T) {
	s, err := NewUniformStream(10, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(s, func(u, v int) int { return 2 })
	if err != nil {
		t.Fatal(err)
	}
	chunk := NewChunk(64)
	total := 0
	for {
		n, err := src.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 100 {
		t.Fatalf("source produced %d requests, want 100", total)
	}
	// EOF is sticky until Reset.
	if n, err := src.Next(chunk); err != io.EOF || n != 0 {
		t.Fatalf("post-EOF Next = (%d, %v), want (0, EOF)", n, err)
	}
	src.Reset()
	if n, err := src.Next(chunk); err != nil || n != 64 {
		t.Fatalf("post-Reset Next = (%d, %v), want (64, nil)", n, err)
	}
}

// A materialized source hands out views of the trace itself, so a chunk
// read from one and then reused with a generating source must never write
// into the trace, and appending to a view must not overwrite the requests
// after it.
func TestChunkReuseNeverWritesTrace(t *testing.T) {
	dist := func(u, v int) int { return 2 }
	s, err := NewUniformStream(10, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Collect(s).Compile(dist)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]CompiledReq(nil), ct.Reqs...)
	chunk := NewChunk(64)
	if n, err := ct.Source().Next(chunk); err != nil || n != 64 {
		t.Fatalf("materialized Next = (%d, %v), want (64, nil)", n, err)
	}
	if &chunk.Reqs[0] != &ct.Reqs[0] {
		t.Fatal("materialized source copied instead of handing out a view")
	}
	_ = append(chunk.Reqs, CompiledReq{ID: 1 << 20})

	other, err := NewUniformStream(10, 300, 99)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(other, dist)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := src.Next(chunk); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ct.Reqs, want) {
		t.Fatal("reusing a chunk wrote into the materialized trace")
	}
}

func TestSourceRejectsBadDistance(t *testing.T) {
	s, err := NewUniformStream(10, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(s, func(u, v int) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(NewChunk(16)); err == nil {
		t.Fatal("zero distance accepted")
	}
	if _, err := NewSource(s, nil); err == nil {
		t.Fatal("nil distance oracle accepted")
	}
}
