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
// generating source reads raw requests into the chunk's scratch and
// compiles them into its private buffer, both allocated on first use and
// recycled for the whole run (the bounded-memory contract of streamed
// replay), so a chunk reused across jobs allocates them once; a
// materialized trace's source hands out views of the trace itself. Reqs
// is therefore read-only, and a chunk reused across source kinds never
// writes into a trace.
type CompiledChunk struct {
	Reqs []CompiledReq
	size int
	buf  []CompiledReq
	raw  []Request
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

// rawChunkSize is the capacity of a chunk's scratch for uncompiled
// requests: a generating source fills the chunk through it a few hundred
// requests at a time, so the scratch (2 KB) stays in L1 beside the chunk.
const rawChunkSize = 256

// rawBuf returns the chunk's scratch for uncompiled requests.
func (c *CompiledChunk) rawBuf() []Request {
	if c.raw == nil {
		c.raw = make([]Request, min(c.size, rawChunkSize))
	}
	return c.raw
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
	pos  int // requests emitted so far (error reporting)
	// atStart reports that nothing was read since the last Reset, so the
	// next Reset has nothing to rewind: a replay's Reset right after
	// NewSource does not redo the stream's setup draws.
	atStart bool
}

// NewSource wraps a raw request stream into a Source compiling against
// dist, the rack-to-rack distance oracle (typically graph.Metric.Dist).
// It rewinds the stream, which builds the stream's tables, so the first
// Next reads requests only.
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

func (c *streamSource) Reset() {
	if !c.atStart {
		c.s.Reset()
		c.pos = 0
		c.atStart = true
	}
}

func (c *streamSource) Next(chunk *CompiledChunk) (int, error) {
	if chunk.size == 0 {
		return 0, fmt.Errorf("trace: source %q: Next with zero-capacity chunk", c.s.Name())
	}
	raw, buf := chunk.rawBuf(), chunk.fillBuf()
	c.atStart = false
	racks := c.s.NumRacks()
	// Fill the chunk through the raw scratch until it is full or the
	// stream ends.
	n := 0
	for n < len(buf) {
		k := c.s.Next(raw[:min(len(raw), len(buf)-n)])
		if k == 0 {
			break
		}
		for i, r := range raw[:k] {
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
			buf[n+i] = CompiledReq{ID: c.idx.ID(u, v), U: int32(u), V: int32(v), Dist: int32(d)}
		}
		n += k
		c.pos += k
	}
	chunk.Reqs = buf[:n]
	if n == 0 {
		return 0, io.EOF
	}
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
