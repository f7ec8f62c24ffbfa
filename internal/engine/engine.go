// Package engine is the live matching engine: a long-lived server that
// owns algorithm instances (sessions) and serves the paper's online
// (b, α)-matching decisions at line rate. Each session wraps one
// algorithm — the same core.CompiledServer / core.Sharded instances the
// offline replay paths drive — behind the shared incremental step surface
// (sim.Incremental), so a session fed a request sequence over the wire
// reports cumulative costs bit-identical to an offline sim.RunSource
// replay of that sequence. A binary batch is served and folded by one
// ServeChunk call (Session.FeedBinary → Incremental.FeedChunk).
//
// Two ingest paths share every session:
//
//   - HTTP/JSON (http.go): session lifecycle, a single-request serve path
//     for operability, and status with latency quantiles.
//   - A length-prefixed binary batch protocol over TCP (wire.go): the hot
//     path, zero allocations per batch on both ends once warm.
package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"

	"obm/internal/obs"
)

// Options tunes an Engine.
type Options struct {
	// MaxSessions caps live sessions (default 64): each session owns an
	// O(racks²) metric-backed algorithm, so the registry must not grow
	// unboundedly on behalf of remote callers.
	MaxSessions int
	// Logf, when non-nil, receives connection-level log lines.
	Logf func(format string, args ...any)
	// Registry, when non-nil, is where the engine registers its
	// obm_engine_* metrics (nil gets a private registry). Either way the
	// exposition is served at GET /metrics on the control plane.
	Registry *obs.Registry
}

// engineMetrics are the engine-wide ingest series. The per-batch updates
// in serveConn are two atomic adds and one mutexed histogram record per
// *batch* — engine_test.go pins that the ingest loop stays 0 allocs/op
// with them enabled.
type engineMetrics struct {
	requests  *obs.Counter
	batches   *obs.Counter
	errors    *obs.Counter
	conns     *obs.Gauge
	batchSize *obs.Histogram
}

// Engine is the session registry plus the binary ingest listener. One
// Engine serves any number of HTTP and TCP clients concurrently;
// per-session serialization happens inside Session.
type Engine struct {
	opts Options
	reg  *obs.Registry
	met  engineMetrics

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int
	closed   bool
	lns      []net.Listener
	conns    map[net.Conn]struct{}
}

// ErrClosed is returned by operations on a closed engine.
var ErrClosed = errors.New("engine: closed")

// New builds an empty engine.
func New(opts Options) *Engine {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = 64
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e := &Engine{
		opts:     opts,
		reg:      reg,
		sessions: make(map[string]*Session),
		conns:    make(map[net.Conn]struct{}),
	}
	e.met = engineMetrics{
		requests:  reg.Counter("obm_engine_ingest_requests_total", "Requests served over the binary ingest plane."),
		batches:   reg.Counter("obm_engine_ingest_batches_total", "Batch frames served over the binary ingest plane."),
		errors:    reg.Counter("obm_engine_ingest_errors_total", "Binary ingest connections failed by protocol or session errors."),
		conns:     reg.Gauge("obm_engine_ingest_connections", "Open binary ingest connections."),
		batchSize: reg.Histogram("obm_engine_batch_requests", "Requests per ingest batch frame.", 1),
	}
	reg.Collect(e.collect)
	return e
}

// collect emits the dynamic per-session series at scrape time, in sorted
// session order so the exposition is deterministic.
func (e *Engine) collect(x *obs.Exposition) {
	ss := e.Statuses()
	x.Gauge("obm_engine_sessions", "Live sessions.", float64(len(ss)))
	for i := range ss {
		st := &ss[i]
		lbl := obs.Label{Key: "session", Value: st.ID}
		x.Counter("obm_engine_session_served_total", "Requests served by the session.", uint64(st.Served), lbl)
		x.Counter("obm_engine_session_adds_total", "Matching edges added by the session.", uint64(st.Adds), lbl)
		x.Counter("obm_engine_session_removals_total", "Matching edges removed by the session.", uint64(st.Removals), lbl)
		x.Counter("obm_engine_session_batches_total", "Batches served by the session.", st.Latency.Batches, lbl)
		x.Gauge("obm_engine_session_routing_cost", "Cumulative routing cost.", st.Routing, lbl)
		x.Gauge("obm_engine_session_reconfig_cost", "Cumulative reconfiguration cost.", st.Reconfig, lbl)
		x.Gauge("obm_engine_session_matching_size", "Current matching size.", float64(st.MatchingSize), lbl)
		for _, p := range st.Planes {
			x.Counter("obm_engine_plane_served_total", "Requests served per switch plane of sharded sessions.",
				p.Served, lbl, obs.Label{Key: "plane", Value: strconv.Itoa(p.Plane)})
		}
	}
	// Latency summaries need the live sessions (statuses carry only the
	// derived microsecond views).
	e.mu.Lock()
	live := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		live = append(live, s)
	}
	e.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id < live[j].id })
	for _, s := range live {
		x.Summary("obm_engine_session_batch_seconds", "Per-batch serve latency.",
			s.Latency(), 1e-9, obs.Label{Key: "session", Value: s.id})
	}
}

func (e *Engine) logf(format string, args ...any) {
	if e.opts.Logf != nil {
		e.opts.Logf(format, args...)
	}
}

// CreateSession validates cfg, builds the algorithm instance and
// registers the session. An empty cfg.ID gets an assigned "s<n>" name;
// a duplicate ID is an error.
func (e *Engine) CreateSession(cfg SessionConfig) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if len(e.sessions) >= e.opts.MaxSessions {
		return nil, fmt.Errorf("engine: session limit %d reached", e.opts.MaxSessions)
	}
	id := cfg.ID
	if id == "" {
		e.seq++
		id = fmt.Sprintf("s%d", e.seq)
		cfg.ID = id
	}
	if _, ok := e.sessions[id]; ok {
		return nil, fmt.Errorf("engine: session %q already exists", id)
	}
	s, err := newSession(id, cfg)
	if err != nil {
		return nil, err
	}
	e.sessions[id] = s
	e.logf("engine: session %q created (racks=%d b=%d alg=%s alpha=%g shards=%d seed=%d)",
		id, cfg.Racks, cfg.B, cfg.Alg, cfg.Alpha, cfg.Shards, cfg.Seed)
	return s, nil
}

// Session looks up a live session.
func (e *Engine) Session(id string) (*Session, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.sessions[id]
	return s, ok
}

// DeleteSession removes a session, reporting whether it existed. Binary
// connections bound to it fail their next batch.
func (e *Engine) DeleteSession(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.sessions[id]
	delete(e.sessions, id)
	return ok
}

// Statuses snapshots every live session, sorted by ID.
func (e *Engine) Statuses() []SessionStatus {
	e.mu.Lock()
	ss := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		ss = append(ss, s)
	}
	e.mu.Unlock()
	out := make([]SessionStatus, len(ss))
	for i, s := range ss {
		out[i] = s.Status()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ServeIngest accepts binary-protocol connections on ln until the
// listener is closed (by Close or externally). Every connection gets its
// own goroutine and reused frame buffers.
func (e *Engine) ServeIngest(ln net.Listener) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	e.lns = append(e.lns, ln)
	e.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			e.mu.Lock()
			closed := e.closed
			e.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return nil
		}
		e.conns[conn] = struct{}{}
		e.mu.Unlock()
		e.met.conns.Add(1)
		go func() {
			defer func() {
				conn.Close()
				e.mu.Lock()
				delete(e.conns, conn)
				e.mu.Unlock()
				e.met.conns.Add(-1)
			}()
			if err := e.serveConn(conn); err != nil {
				e.logf("engine: conn %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// Close shuts the engine: ingest listeners stop accepting, open binary
// connections are severed, sessions are dropped.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	lns := e.lns
	e.lns = nil
	conns := make([]net.Conn, 0, len(e.conns))
	for c := range e.conns {
		conns = append(conns, c)
	}
	e.sessions = make(map[string]*Session)
	e.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// serveConn runs one binary-protocol connection: a hello frame binds it
// to a session, then batch frames stream until EOF or error. A protocol
// or session error is reported with an error frame and closes the
// connection; the session itself survives. The read buffer, scratch
// request buffer (inside the session) and the fixed-size result frame are
// all reused, so the per-batch loop allocates nothing.
func (e *Engine) serveConn(conn net.Conn) error {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 32<<10)
	var buf []byte

	fail := func(err error) error {
		e.met.errors.Inc()
		bw.Write(appendErrorFrame(nil, err.Error()))
		bw.Flush()
		return err
	}

	// Handshake: exactly one hello first.
	typ, payload, err := readFrame(br, &buf)
	if err != nil {
		return err
	}
	if typ != frameHello {
		return fail(fmt.Errorf("engine: first frame type 0x%02x, want hello", typ))
	}
	if len(payload) < len(helloMagic)+2 || [4]byte(payload[:4]) != helloMagic {
		return fail(errors.New("engine: bad hello magic"))
	}
	idLen := int(uint16(payload[4]) | uint16(payload[5])<<8)
	if 6+idLen != len(payload) {
		return fail(fmt.Errorf("engine: hello declares %d id bytes, carries %d", idLen, len(payload)-6))
	}
	id := string(payload[6 : 6+idLen])
	sess, ok := e.Session(id)
	if !ok {
		return fail(fmt.Errorf("engine: unknown session %q", id))
	}
	var okBuf [headerSize + helloOKSize]byte
	encodeHelloOK(&okBuf, sess.hello())
	if _, err := bw.Write(okBuf[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}

	// Steady state: batch in, result out. Flush only when no further
	// frame is buffered, so a pipelining client gets its results in
	// one segment.
	var res BatchResult
	var resBuf [headerSize + resultSize]byte
	for {
		typ, payload, err := readFrame(br, &buf)
		if err != nil {
			if err == io.EOF {
				return bw.Flush()
			}
			return err
		}
		if typ != frameBatch {
			return fail(fmt.Errorf("engine: frame type 0x%02x, want batch", typ))
		}
		if len(payload) < 4 {
			return fail(fmt.Errorf("engine: batch payload %d bytes, want >= 4", len(payload)))
		}
		count := int(binary.LittleEndian.Uint32(payload))
		if count == 0 || count > MaxBatch {
			return fail(fmt.Errorf("engine: batch count %d out of range [1, %d]", count, MaxBatch))
		}
		if 4+8*count != len(payload) {
			return fail(fmt.Errorf("engine: batch declares %d requests, carries %d bytes of pairs", count, len(payload)-4))
		}
		if _, live := e.Session(id); !live {
			return fail(fmt.Errorf("engine: session %q deleted", id))
		}
		if err := sess.FeedBinary(payload[4:], &res); err != nil {
			return fail(err)
		}
		e.met.requests.Add(uint64(count))
		e.met.batches.Inc()
		e.met.batchSize.Observe(uint64(count))
		encodeResult(&resBuf, &res)
		if _, err := bw.Write(resBuf[:]); err != nil {
			return err
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}
