package engine

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"obm/internal/core"
	"obm/internal/graph"
	"obm/internal/obs"
	"obm/internal/sim"
	"obm/internal/trace"
)

// SessionConfig describes one live matching session: a datacenter shape
// (racks, fat-tree metric), an algorithm instance and its parameters.
// The zero values of Alg, Alpha and Shards mean the paper defaults
// (r-bma, α = 30, one plane).
type SessionConfig struct {
	// ID names the session; empty lets the engine assign "s1", "s2", ….
	ID string `json:"id,omitempty"`
	// Racks is the number of racks (fat-tree leaves); requests address
	// racks in [0, Racks).
	Racks int `json:"racks"`
	// B is the matching degree cap per rack (per plane when sharded).
	B int `json:"b"`
	// Alg names the algorithm (sim registry; default "r-bma").
	Alg string `json:"alg,omitempty"`
	// Alpha is the reconfiguration cost (default 30, the figures' value).
	Alpha float64 `json:"alpha,omitempty"`
	// Seed seeds the randomized algorithms, playing the role a grid job's
	// repetition index plays: the instance is the one
	// sim.ScenarioSpec.BuildAlgorithm(Alg, B, Seed) builds, so an offline
	// replay with the same parameters reproduces the session bit for bit.
	Seed uint64 `json:"seed,omitempty"`
	// Shards, when > 1, runs the algorithm as that many independent switch
	// planes (core.Sharded), exactly like a grid scenario with Shards set.
	Shards int `json:"shards,omitempty"`
}

// withDefaults fills the optional fields.
func (c SessionConfig) withDefaults() SessionConfig {
	if c.Alg == "" {
		c.Alg = "r-bma"
	}
	if c.Alpha == 0 {
		c.Alpha = 30
	}
	return c
}

// spec maps the session onto a scenario spec so algorithm construction,
// sharding and seeding reuse the grid's registry verbatim. The family
// fields are irrelevant (the engine's workload arrives over the wire) but
// must parse; uniform with one request is the cheapest valid stand-in.
func (c SessionConfig) spec() sim.ScenarioSpec {
	return sim.ScenarioSpec{
		Name: "engine", Family: "uniform",
		Racks: c.Racks, Requests: 1,
		Alpha:  c.Alpha,
		Bs:     []int{c.B},
		Algs:   []string{c.Alg},
		Shards: c.Shards,
	}
}

// Validate reports whether the config can build a session.
func (c SessionConfig) Validate() error {
	c = c.withDefaults()
	if c.Racks < 2 {
		return fmt.Errorf("engine: racks = %d, need >= 2", c.Racks)
	}
	if c.B < 1 {
		return fmt.Errorf("engine: b = %d, need >= 1", c.B)
	}
	if sim.Offline(c.Alg) {
		return fmt.Errorf("engine: %s is built from a whole workload up front, which a live session does not have", c.Alg)
	}
	return c.spec().Validate()
}

// churnRing is how many per-batch churn events a session retains for the
// introspection stream: enough for a follower polling every few hundred
// milliseconds to never miss a batch at realistic batch rates, small
// enough (~64 KiB) to embed in every session.
const churnRing = 1024

// ChurnEvent is one batch's matching churn: what the batch did to the
// matching (edges added/removed, cost deltas) plus the cumulative
// counters after it. Events are numbered by batch (Seq, 1-based) and
// streamed as JSON deltas from the control plane's churn endpoint; the
// cumulative fields are the same Float64bits-exact values the wire's
// result frames carry, so a churn stream is a faithful decomposition of
// the session's cost curve.
type ChurnEvent struct {
	Seq           uint64  `json:"seq"`
	Requests      uint32  `json:"requests"`
	Adds          uint32  `json:"adds"`
	Removals      uint32  `json:"removals"`
	RoutingDelta  float64 `json:"routing_delta"`
	ReconfigDelta float64 `json:"reconfig_delta"`
	Served        uint64  `json:"served"`
	Routing       float64 `json:"routing_cost"`
	Reconfig      float64 `json:"reconfig_cost"`
	MatchingSize  uint32  `json:"matching_size"`
	UnixNano      int64   `json:"unix_nano"`
}

// Session is one live matching instance: an algorithm plus the shared
// incremental accumulator (sim.Incremental), a request compiler bound to
// the session's metric, and its observability (latency histogram, churn
// ring, per-plane served counters). All matching mutation happens under
// mu; the binary ingest path reuses the session's scratch buffer so a
// warmed session serves batches without allocating — the observability
// writes are an atomic-or-mutexed update per *batch*, never per request,
// and engine_test.go pins the 0 allocs/op contract with them enabled.
type Session struct {
	id      string
	cfg     SessionConfig // defaults filled
	created time.Time
	metric  *graph.Metric
	idx     *trace.PairIndex

	mu          sync.Mutex
	inc         sim.Incremental
	batches     uint64
	scratch     []trace.CompiledReq
	planeServed []uint64 // per-plane served counts, nil unless Shards > 1

	// hist and churn lock themselves; like the batch counter they are
	// observability, not matching state, and start fresh after a restore.
	hist  obs.Histogram
	churn *obs.Ring[ChurnEvent]
}

// newSession builds a session from a validated, defaults-filled config.
func newSession(id string, cfg SessionConfig) (*Session, error) {
	spec := cfg.spec()
	model := spec.Model()
	alg, err := spec.BuildAlgorithmWith(model, cfg.Alg, cfg.B, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:      id,
		cfg:     cfg,
		created: time.Now(),
		metric:  model.Metric,
		idx:     trace.SharedPairIndex(cfg.Racks),
		churn:   obs.NewRing[ChurnEvent](churnRing),
	}
	if cfg.Shards > 1 {
		s.planeServed = make([]uint64, cfg.Shards)
	}
	s.inc.Init(alg, cfg.Alpha)
	return s, nil
}

// ID returns the session's name.
func (s *Session) ID() string { return s.id }

// hello snapshots the fields of a helloOK frame.
func (s *Session) hello() HelloInfo {
	s.mu.Lock()
	served := uint64(s.inc.Counters().Served)
	s.mu.Unlock()
	return HelloInfo{Racks: s.cfg.Racks, B: s.cfg.B, Alpha: s.cfg.Alpha, Served: served}
}

// FeedBinary serves one wire-format batch: p is the pair array of a batch
// frame (count × 8 bytes, little-endian u32 rack pairs), already
// length-checked by the caller. The whole batch is validated before the
// first request is served, so an invalid batch leaves the session
// untouched. res is filled with the post-batch cumulative counters and
// the batch's matching deltas. Alloc-free once the scratch buffer has
// grown to the batch size.
func (s *Session) FeedBinary(p []byte, res *BatchResult) error {
	n := len(p) / 8
	racks := uint32(s.cfg.Racks)
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	if cap(s.scratch) < n {
		s.scratch = make([]trace.CompiledReq, n)
	}
	reqs := s.scratch[:n]
	for i := 0; i < n; i++ {
		u := binary.LittleEndian.Uint32(p[i*8:])
		v := binary.LittleEndian.Uint32(p[i*8+4:])
		if u >= racks || v >= racks {
			return fmt.Errorf("engine: request %d: pair (%d, %d) outside %d racks", i, u, v, racks)
		}
		if u == v {
			return fmt.Errorf("engine: request %d: self-pair (%d, %d)", i, u, v)
		}
		if u > v {
			u, v = v, u
		}
		iu, iv := int(u), int(v)
		reqs[i] = trace.CompiledReq{
			ID: s.idx.ID(iu, iv),
			U:  int32(u), V: int32(v),
			Dist: int32(s.metric.Dist(iu, iv)),
		}
	}
	s.countPlanes(reqs)
	before := s.inc.Counters()
	s.inc.FeedChunk(reqs)
	s.fill(res, before, start)
	s.hist.Observe(uint64(time.Since(start)))
	return nil
}

// countPlanes tallies per-plane served counts for sharded sessions.
// Requests are already canonicalized (U < V), so the owner is exactly
// core.Partition's int(U) % shards. Called after the whole batch
// validated — a rejected batch leaves the tallies untouched, matching
// the all-or-nothing serve contract.
func (s *Session) countPlanes(reqs []trace.CompiledReq) {
	if s.planeServed == nil {
		return
	}
	shards := len(s.planeServed)
	for i := range reqs {
		s.planeServed[int(reqs[i].U)%shards]++
	}
}

// ServeOne serves a single request (the HTTP path): endpoints in either
// order, validated like FeedBinary.
func (s *Session) ServeOne(u, v int, res *BatchResult) error {
	if u < 0 || v < 0 || u >= s.cfg.Racks || v >= s.cfg.Racks {
		return fmt.Errorf("engine: pair (%d, %d) outside %d racks", u, v, s.cfg.Racks)
	}
	if u == v {
		return fmt.Errorf("engine: self-pair (%d, %d)", u, v)
	}
	if u > v {
		u, v = v, u
	}
	req := trace.CompiledReq{
		ID: s.idx.ID(u, v),
		U:  int32(u), V: int32(v),
		Dist: int32(s.metric.Dist(u, v)),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	if s.planeServed != nil {
		s.planeServed[int(req.U)%len(s.planeServed)]++
	}
	before := s.inc.Counters()
	s.inc.Feed(req)
	s.fill(res, before, start)
	s.hist.Observe(uint64(time.Since(start)))
	return nil
}

// fill snapshots the post-batch cumulative counters into res, advances
// the batch count and appends the batch's churn event (computed against
// the pre-batch counters). Caller holds mu.
func (s *Session) fill(res *BatchResult, before sim.Counters, start time.Time) {
	c := s.inc.Counters()
	res.Served = uint64(c.Served)
	res.Routing = c.Routing
	res.Reconfig = c.Reconfig
	res.Adds = uint32(c.Adds - before.Adds)
	res.Removals = uint32(c.Removals - before.Removals)
	res.MatchingSize = uint32(s.inc.MatchingSize())
	s.batches++
	s.churn.Append(ChurnEvent{
		Seq:           s.batches,
		Requests:      uint32(c.Served - before.Served),
		Adds:          res.Adds,
		Removals:      res.Removals,
		RoutingDelta:  c.Routing - before.Routing,
		ReconfigDelta: c.Reconfig - before.Reconfig,
		Served:        res.Served,
		Routing:       res.Routing,
		Reconfig:      res.Reconfig,
		MatchingSize:  res.MatchingSize,
		UnixNano:      start.UnixNano(),
	})
}

// Churn returns the retained churn events with Seq > after, oldest
// first. A reader that fell behind the ring resumes at the oldest
// retained event (its Seq tells it how much it missed).
func (s *Session) Churn(after uint64) []ChurnEvent {
	ev, _ := s.churn.Since(after)
	return ev
}

// LatencySummary reports a session's per-batch serve latency distribution
// (microseconds, digested from the shared obs.Histogram — the same
// distribution /metrics exposes in seconds).
type LatencySummary struct {
	Batches uint64  `json:"batches"`
	P50us   float64 `json:"p50_us"`
	P90us   float64 `json:"p90_us"`
	P99us   float64 `json:"p99_us"`
	P999us  float64 `json:"p999_us"`
	MaxUs   float64 `json:"max_us"`
	MeanUs  float64 `json:"mean_us"`
}

// PlaneStatus is one switch plane of a sharded session: how many of the
// session's requests it owned and its current matching size.
type PlaneStatus struct {
	Plane        int    `json:"plane"`
	Served       uint64 `json:"served"`
	MatchingSize int    `json:"matching_size"`
}

// SessionStatus is one session's externally visible state: config,
// cumulative counters (the same numbers the wire's result frames carry),
// serve-latency quantiles, and per-plane counters when sharded.
type SessionStatus struct {
	ID           string         `json:"id"`
	Config       SessionConfig  `json:"config"`
	CreatedAt    time.Time      `json:"created_at"`
	Served       int64          `json:"served"`
	Routing      float64        `json:"routing_cost"`
	Reconfig     float64        `json:"reconfig_cost"`
	Total        float64        `json:"total_cost"`
	Adds         int            `json:"adds"`
	Removals     int            `json:"removals"`
	MatchingSize int            `json:"matching_size"`
	Latency      LatencySummary `json:"latency"`
	Planes       []PlaneStatus  `json:"planes,omitempty"`
}

// Latency digests the session's per-batch serve latency (nanoseconds).
func (s *Session) Latency() obs.Summary { return s.hist.Summary() }

// Status snapshots the session.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.inc.Counters()
	lat := s.hist.Summary()
	us := func(ns uint64) float64 { return float64(ns) / 1e3 }
	st := SessionStatus{
		ID:           s.id,
		Config:       s.cfg,
		CreatedAt:    s.created,
		Served:       c.Served,
		Routing:      c.Routing,
		Reconfig:     c.Reconfig,
		Total:        c.Total(),
		Adds:         c.Adds,
		Removals:     c.Removals,
		MatchingSize: s.inc.MatchingSize(),
		Latency: LatencySummary{
			Batches: s.batches,
			P50us:   us(lat.P50),
			P90us:   us(lat.P90),
			P99us:   us(lat.P99),
			P999us:  us(lat.P999),
			MaxUs:   us(lat.Max),
			MeanUs:  lat.Mean / 1e3,
		},
	}
	if s.planeServed != nil {
		st.Planes = make([]PlaneStatus, len(s.planeServed))
		sh, _ := s.inc.Algorithm().(*core.Sharded)
		for p := range st.Planes {
			st.Planes[p] = PlaneStatus{Plane: p, Served: s.planeServed[p]}
			if sh != nil {
				st.Planes[p].MatchingSize = sh.Shard(p).MatchingSize()
			}
		}
	}
	return st
}
