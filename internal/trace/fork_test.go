package trace

import (
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// forkFamilies are the streams that implement Forker, at sizes where the
// Facebook presets' churn rewrites their working sets many times.
func forkFamilies() []struct {
	name   string
	stream func() (Stream, error)
} {
	var out []struct {
		name   string
		stream func() (Stream, error)
	}
	for _, c := range []Cluster{Database, WebService, Hadoop} {
		p := FacebookPreset(c, 20, 7)
		p.Requests = 6000
		out = append(out, struct {
			name   string
			stream func() (Stream, error)
		}{c.String(), func() (Stream, error) { return NewFacebookStream(p) }})
	}
	return append(out, []struct {
		name   string
		stream func() (Stream, error)
	}{
		{"microsoft", func() (Stream, error) { return NewMicrosoftStream(16, 5000, 3) }},
		{"diurnal", func() (Stream, error) {
			return NewDiurnalStream(DiurnalParams{Racks: 16, Requests: 5000, Seed: 17})
		}},
		{"tenant-mix", func() (Stream, error) {
			return NewTenantMixStream(TenantMixParams{Racks: 17, Requests: 5000, Seed: 23, Tenants: 3})
		}},
	}...)
}

// newPrototype builds a stream, sets it up, and returns it with the
// sequence a fresh stream of the same parameters produces.
func newPrototype(t *testing.T, build func() (Stream, error)) (Forker, []Request) {
	t.Helper()
	fresh, err := build()
	if err != nil {
		t.Fatal(err)
	}
	want := Collect(fresh).Reqs
	proto, err := build()
	if err != nil {
		t.Fatal(err)
	}
	f, ok := proto.(Forker)
	if !ok {
		t.Fatalf("%s does not implement Forker", proto.Name())
	}
	proto.Reset()
	return f, want
}

// TestForkMatchesFreshStream: a fork reproduces a fresh stream's sequence
// bit for bit, whatever the prototype did before and whatever the fork
// did before its last Reset.
func TestForkMatchesFreshStream(t *testing.T) {
	for _, f := range forkFamilies() {
		t.Run(f.name, func(t *testing.T) {
			proto, want := newPrototype(t, f.stream)
			if got := drainSizes(proto.Fork(), 4096); !reflect.DeepEqual(got, want) {
				t.Fatal("a fork differs from a fresh stream")
			}
			if got := Collect(proto.Fork()).Reqs; !reflect.DeepEqual(got, want) {
				t.Fatal("Collect of a fork differs from Collect of a fresh stream")
			}

			// A fork of an advanced prototype still starts at request 0,
			// and forking leaves the prototype's own cursor alone.
			s := proto.(Stream)
			head := make([]Request, len(want)/3)
			s.Next(head)
			if got := drainSizes(proto.Fork(), 777); !reflect.DeepEqual(got, want) {
				t.Fatal("a fork of an advanced prototype differs from a fresh stream")
			}
			if tail := drainSizes(s, 4096); !reflect.DeepEqual(append(head, tail...), want) {
				t.Fatal("forking moved the prototype's cursor")
			}

			// A fork read part way and Reset rewinds to request 0: churn
			// must not leak into the shared setup.
			g := proto.Fork()
			g.Next(make([]Request, len(want)/2))
			g.Reset()
			if got := drainSizes(g, 1000); !reflect.DeepEqual(got, want) {
				t.Fatal("a fork read part way and Reset differs from a fresh stream")
			}
			if got := Collect(proto.Fork()).Reqs; !reflect.DeepEqual(got, want) {
				t.Fatal("reading a fork changed what later forks produce")
			}
		})
	}
}

// TestForksReadInterleaved: two forks read alternately, with different
// batch sizes, each reproduce the fresh sequence — they share no mutable
// state.
func TestForksReadInterleaved(t *testing.T) {
	for _, f := range forkFamilies() {
		t.Run(f.name, func(t *testing.T) {
			proto, want := newPrototype(t, f.stream)
			a, b := proto.Fork(), proto.Fork()
			var gotA, gotB []Request
			bufA, bufB := make([]Request, 97), make([]Request, 613)
			for {
				na, nb := a.Next(bufA), b.Next(bufB)
				gotA, gotB = append(gotA, bufA[:na]...), append(gotB, bufB[:nb]...)
				if na == 0 && nb == 0 {
					break
				}
			}
			if !reflect.DeepEqual(gotA, want) || !reflect.DeepEqual(gotB, want) {
				t.Fatal("interleaved forks differ from a fresh stream")
			}
		})
	}
}

// TestForksDrainConcurrently: eight goroutines fork one prototype and
// drain their forks at once; every fork reproduces the fresh sequence.
// Run under -race it also checks that forks only read the shared setup.
func TestForksDrainConcurrently(t *testing.T) {
	for _, f := range forkFamilies() {
		t.Run(f.name, func(t *testing.T) {
			proto, want := newPrototype(t, f.stream)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(batch int) {
					defer wg.Done()
					if got := drainSizes(proto.Fork(), batch); !reflect.DeepEqual(got, want) {
						t.Errorf("a fork drained with batch %d differs from a fresh stream", batch)
					}
				}(64 << g)
			}
			wg.Wait()
		})
	}
}

// TestSourceReusesChunkScratch: a generating source reads raw requests
// into the chunk's scratch, so a job that builds a source and drains it
// through a reused chunk allocates its stream and source only.
func TestSourceReusesChunkScratch(t *testing.T) {
	chunk := NewChunk(0)
	drain := func() {
		st, err := NewUniformStream(16, 3*DefaultChunkSize, 5)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(st, func(u, v int) int { return 2 })
		if err != nil {
			t.Fatal(err)
		}
		for {
			_, err := src.Next(chunk)
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	drain() // the chunk allocates its buffers
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		drain()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("a source drained through a reused chunk allocated %d B, want < 1 KiB", per)
	}
}
