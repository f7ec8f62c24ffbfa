package trace

import (
	"fmt"
	"io"
)

// DefaultChunkSize is the chunk capacity used when a caller does not pick
// one. Large enough to amortize the per-chunk call overhead, small enough
// that per-worker chunk buffers stay in cache.
const DefaultChunkSize = 8192

// CompiledChunk is the unit of transfer between a Source and a replay
// loop: each Next points Reqs at up to the chunk's size in requests. A
// generating source compiles into the chunk's private buffer, allocated
// on first use and recycled for the whole run (the bounded-memory
// contract of streamed replay); a materialized trace's source hands out
// views of the trace itself. Reqs is therefore read-only, and a chunk
// reused across source kinds never writes into a trace.
type CompiledChunk struct {
	Reqs []CompiledReq
	size int
	buf  []CompiledReq
}

// NewChunk returns an empty chunk delivering up to size requests per Next
// (DefaultChunkSize if size <= 0).
func NewChunk(size int) *CompiledChunk {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &CompiledChunk{size: size}
}

// fillBuf returns the chunk's private buffer at full capacity.
func (c *CompiledChunk) fillBuf() []CompiledReq {
	if c.buf == nil {
		c.buf = make([]CompiledReq, c.size)
	}
	return c.buf
}

// Source is a stream of compiled requests: a trace generated, resolved
// against the metric, and consumed in fixed-size chunks, so replaying a
// 10⁸-request workload holds O(chunk) requests in memory rather than O(T).
//
// The request sequence is independent of the chunk sizes used to read it,
// Reset rewinds to the beginning bit-identically (sources are resumable
// across repetitions and b-sweeps), and Len is known a priori. A Source is
// not safe for concurrent use; parallel replays each build their own.
type Source interface {
	// Name identifies the workload.
	Name() string
	// NumRacks returns the rack universe size.
	NumRacks() int
	// Len returns the total number of requests the source produces over
	// one pass.
	Len() int
	// Index returns the pair universe the compiled requests refer to.
	Index() *PairIndex
	// Reset rewinds the source to its beginning.
	Reset()
	// Next points chunk.Reqs at up to the chunk's size of next compiled
	// requests and returns how many were produced; they stay valid until
	// the next call. It returns io.EOF (and n == 0) once the source is exhausted.
	Next(chunk *CompiledChunk) (n int, err error)
}

// streamSource compiles a raw request Stream chunk by chunk against a
// distance oracle: the streaming equivalent of Trace.Compile. Each chunk is
// validated as it is produced, so a malformed generator fails at the first
// bad request instead of poisoning the replay.
type streamSource struct {
	s    Stream
	dist func(u, v int) int
	idx  *PairIndex
	raw  []Request // scratch for the uncompiled chunk, grown to chunk capacity
	pos  int       // requests emitted so far (error reporting)
}

// NewSource wraps a raw request stream into a Source compiling against
// dist, the rack-to-rack distance oracle (typically graph.Metric.Dist).
func NewSource(s Stream, dist func(u, v int) int) (Source, error) {
	if s.NumRacks() < 2 {
		return nil, fmt.Errorf("trace: source %q: NumRacks = %d, need >= 2", s.Name(), s.NumRacks())
	}
	if dist == nil {
		return nil, fmt.Errorf("trace: source %q: nil distance oracle", s.Name())
	}
	src := &streamSource{s: s, dist: dist, idx: SharedPairIndex(s.NumRacks())}
	src.Reset()
	return src, nil
}

func (c *streamSource) Name() string      { return c.s.Name() }
func (c *streamSource) NumRacks() int     { return c.s.NumRacks() }
func (c *streamSource) Len() int          { return c.s.Len() }
func (c *streamSource) Index() *PairIndex { return c.idx }
func (c *streamSource) Reset()            { c.s.Reset(); c.pos = 0 }

func (c *streamSource) Next(chunk *CompiledChunk) (int, error) {
	capN := chunk.size
	if capN == 0 {
		return 0, fmt.Errorf("trace: source %q: Next with zero-capacity chunk", c.s.Name())
	}
	if cap(c.raw) < capN {
		c.raw = make([]Request, capN)
	}
	buf := chunk.fillBuf()
	n := c.s.Next(c.raw[:capN])
	chunk.Reqs = buf[:n]
	if n == 0 {
		return 0, io.EOF
	}
	racks := c.s.NumRacks()
	for i, r := range c.raw[:n] {
		u, v := int(r.Src), int(r.Dst)
		if u < 0 || u >= racks || v < 0 || v >= racks {
			return 0, fmt.Errorf("trace: source %q: request %d = (%d,%d) out of range [0,%d)",
				c.s.Name(), c.pos+i, u, v, racks)
		}
		if u == v {
			return 0, fmt.Errorf("trace: source %q: request %d is a self-loop at %d", c.s.Name(), c.pos+i, u)
		}
		if u > v {
			u, v = v, u
		}
		d := c.dist(u, v)
		if d < 1 {
			return 0, fmt.Errorf("trace: source %q: distance %d for pair {%d,%d}, need >= 1",
				c.s.Name(), d, u, v)
		}
		buf[i] = CompiledReq{ID: c.idx.ID(u, v), U: int32(u), V: int32(v), Dist: int32(d)}
	}
	c.pos += n
	return n, nil
}

// compiledSource adapts a materialized Compiled trace to the Source
// interface: the trivial (already-in-RAM) case, so the streamed replay path
// subsumes the materialized one.
type compiledSource struct {
	c   *Compiled
	pos int
}

// Source adapts the compiled trace to the streaming Source interface.
// Chunks are zero-copy, read-only views of the in-memory request slice.
func (c *Compiled) Source() Source { return &compiledSource{c: c} }

func (s *compiledSource) Name() string      { return s.c.Name }
func (s *compiledSource) NumRacks() int     { return s.c.NumRacks }
func (s *compiledSource) Len() int          { return s.c.Len() }
func (s *compiledSource) Index() *PairIndex { return s.c.Index }
func (s *compiledSource) Reset()            { s.pos = 0 }

func (s *compiledSource) Next(chunk *CompiledChunk) (int, error) {
	capN := chunk.size
	if capN == 0 {
		return 0, fmt.Errorf("trace: source %q: Next with zero-capacity chunk", s.c.Name)
	}
	end := min(s.pos+capN, len(s.c.Reqs))
	// The full slice expression caps the view, so an append to it
	// reallocates instead of overwriting the trace.
	chunk.Reqs = s.c.Reqs[s.pos:end:end]
	n := end - s.pos
	s.pos = end
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// DrainSource materializes a source into a Compiled trace (resetting it
// first): the inverse of (*Compiled).Source, used by tests to prove the
// chunked and materialized compilation paths agree.
func DrainSource(src Source) (*Compiled, error) {
	src.Reset()
	out := &Compiled{
		Name:     src.Name(),
		NumRacks: src.NumRacks(),
		Index:    src.Index(),
		Reqs:     make([]CompiledReq, 0, src.Len()),
	}
	chunk := NewChunk(0)
	for {
		n, err := src.Next(chunk)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Reqs = append(out.Reqs, chunk.Reqs[:n]...)
	}
}
