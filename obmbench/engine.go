package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"time"

	"obm/internal/engine"
	"obm/internal/sim"
	"obm/internal/trace"
)

// The client's batch size and pipelining depth: loadgen's defaults.
const (
	batchSize = 1024
	window    = 8
)

// enginePath serves one request sequence through a live engine session
// over a loopback TCP connection, fed by one pipelined engine.Client.
type enginePath struct {
	spec sim.ScenarioSpec // the family that generated reqs
	cfg  engine.SessionConfig
	reqs []trace.Request // generated before any timing

	// Offline sim.RunSource replays of the same sequence: the costs the
	// session must report bit for bit, and the oblivious routing cost.
	wantRouting, wantReconfig float64
	oblRouting                float64
}

// newEnginePath generates the sequence of spec and replays it offline
// through the session's algorithm and through oblivious routing.
func newEnginePath(spec sim.ScenarioSpec, b int, algSeed uint64) (*enginePath, error) {
	spec = spec.Normalize()
	p := &enginePath{
		spec: spec,
		cfg:  engine.SessionConfig{ID: "bench", Racks: spec.Racks, B: b, Alg: "r-bma", Alpha: spec.Alpha, Seed: algSeed},
		reqs: make([]trace.Request, spec.Requests),
	}
	st, err := spec.NewStream()
	if err != nil {
		return nil, err
	}
	for n := 0; n < len(p.reqs); {
		k := st.Next(p.reqs[n:])
		if k == 0 {
			return nil, fmt.Errorf("engine path: %s stream ended after %d of %d requests", spec.Name, n, len(p.reqs))
		}
		n += k
	}
	replay := func(alg string) (float64, float64, error) {
		a, err := spec.BuildAlgorithm(alg, b, algSeed)
		if err != nil {
			return 0, 0, err
		}
		src, err := spec.NewSource()
		if err != nil {
			return 0, 0, err
		}
		res, err := sim.RunSource(a, src, spec.Alpha, []int{spec.Requests}, 0)
		if err != nil {
			return 0, 0, err
		}
		return res.Series.Routing[0], res.Series.Reconfig[0], nil
	}
	if p.wantRouting, p.wantReconfig, err = replay(p.cfg.Alg); err != nil {
		return nil, err
	}
	if p.oblRouting, _, err = replay("oblivious"); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *enginePath) batches() int { return (len(p.reqs) + batchSize - 1) / batchSize }

func (p *enginePath) batchReqs(k int) []trace.Request {
	return p.reqs[k*batchSize : min((k+1)*batchSize, len(p.reqs))]
}

// checkCosts compares cumulative costs with the offline replay bit for bit.
func (p *enginePath) checkCosts(what string, served uint64, routing, reconfig float64) error {
	if served != uint64(len(p.reqs)) ||
		math.Float64bits(routing) != math.Float64bits(p.wantRouting) ||
		math.Float64bits(reconfig) != math.Float64bits(p.wantReconfig) {
		return fmt.Errorf("%s MISMATCH: served %d routing %v reconfig %v, offline replay: %d, %v, %v",
			what, served, routing, reconfig, len(p.reqs), p.wantRouting, p.wantReconfig)
	}
	return nil
}

// rep sets up a fresh engine, session, listener and client, streams the
// whole sequence (the timed phase), and checks the final costs.
func (p *enginePath) rep(rc *repCtx) (repResult, error) {
	var r repResult
	tr := rc.tr
	rc.begin()
	defer rc.end()
	t0 := time.Now()
	setup := tr.begin("ingest.setup", -1, -1)
	s := tr.begin("engine.New", setup, -1)
	eng := engine.New(engine.Options{})
	tr.end(s)
	defer eng.Close()
	s = tr.begin("engine.CreateSession", setup, -1)
	sess, err := eng.CreateSession(p.cfg)
	tr.end(s)
	if err != nil {
		return r, err
	}
	s = tr.begin("engine.listen", setup, -1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return r, err
	}
	served := make(chan error, 1)
	go func() { served <- eng.ServeIngest(ln) }()
	tr.end(s)
	// DialIngest, with the connection wrapped in a traced repetition so
	// that the client's time blocked on result frames can be measured.
	s = tr.begin("engine.DialIngest", setup, -1)
	var c *engine.Client
	conn, err := net.Dial("tcp", ln.Addr().String())
	wc := &waitConn{Conn: conn}
	if err == nil {
		var cc net.Conn = conn
		if tr != nil {
			cc = wc
		}
		if c, _, err = engine.NewClient(cc, p.cfg.ID, window); err != nil {
			conn.Close()
		}
	}
	tr.end(s)
	tr.end(setup)
	r.setup = time.Since(t0)
	defer func() {
		eng.Close()
		<-served
	}()
	if err != nil {
		return r, err
	}
	defer c.Close()

	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	nb := p.batches()
	r.rtts = make([]time.Duration, 0, nb)
	pend := make([]time.Time, 0, window+1) // send times of the batches in flight, oldest first
	stream := tr.begin("ingest.stream", -1, -1)
	start := time.Now()
	wc.blocked = 0
	for k := 0; k < nb; k++ {
		sent := time.Now()
		pend = append(pend, sent)
		res, err := c.Send(p.batchReqs(k))
		r.attempted++
		if err != nil {
			r.failed++
			return r, fmt.Errorf("batch %d: %w", k, err)
		}
		now := time.Now()
		name := "engine.Client.Send"
		if res != nil {
			r.rtts = append(r.rtts, now.Sub(pend[0]))
			pend = append(pend[:0], pend[1:]...)
			name = "engine.Client.Send+result"
		}
		tr.add(name, stream, k, sent, now)
	}
	d := tr.begin("engine.Client.Drain", stream, -1)
	final, err := c.Drain()
	end := time.Now()
	tr.end(d)
	tr.end(stream)
	r.wall = end.Sub(start)
	if tr != nil {
		runtime.ReadMemStats(&ms1)
	}
	r.peakHeap = rc.end()
	if err != nil {
		r.failed++
		return r, fmt.Errorf("drain: %w", err)
	}
	r.requests = len(p.reqs)
	if err := p.checkCosts("ingest verify", final.Served, final.Routing, final.Reconfig); err != nil {
		return r, err
	}
	r.ratio = final.Routing / p.oblRouting

	if tr != nil {
		lat := sess.Latency()
		st := sess.Status()
		n := float64(len(p.reqs))
		r.layers = map[string]float64{
			"engine.loopback_ns_per_req": float64(r.wall.Nanoseconds()) / n,
			"engine.batch_serve_p50_us":  float64(lat.P50) / 1e3,
			"engine.batch_serve_p99_us":  float64(lat.P99) / 1e3,
			"engine.client_wait_frac":    float64(wc.blocked) / float64(r.wall),
			"engine.alloc_b_per_req":     float64(ms1.TotalAlloc-ms0.TotalAlloc) / n,
			"engine.gc_cycles":           float64(ms1.NumGC - ms0.NumGC),
			"core.reconfigs_per_kreq":    float64(st.Adds+st.Removals) / float64(st.Served) * 1e3,
		}
	}
	return r, nil
}

// waitConn times the client's reads. The client reads only when it needs
// a result frame its buffer does not hold yet, so the time in Read is the
// time it spent blocked on the engine; encoding, buffering and the write
// syscalls are not in it.
type waitConn struct {
	net.Conn
	blocked time.Duration
}

func (c *waitConn) Read(p []byte) (int, error) {
	t := time.Now()
	n, err := c.Conn.Read(p)
	c.blocked += time.Since(t)
	return n, err
}

// stagePasses is how many times each stage replays the sequence. The
// ledger takes the median pass: a single pass takes a tenth of a second,
// and the machine's speed moves between passes.
const stagePasses = 5

// stages replays the sequence through the layers under the socket, one
// at a time, and adds their costs to layers (which already holds the
// traced repetitions' loopback cost).
func (p *enginePath) stages(tr *tracer, layers map[string]float64) error {
	sess, fold := make([]float64, stagePasses), make([]float64, stagePasses)
	for i := range sess {
		var err error
		if sess[i], err = p.sessionPass(tr); err != nil {
			return err
		}
		if fold[i], err = p.foldPass(tr); err != nil {
			return err
		}
	}
	layers["engine.session_ns_per_req"] = median(sess)
	layers["core.fold_ns_per_req"] = median(fold)
	layers["engine.decode_ns_per_req"] = layers["engine.session_ns_per_req"] - layers["core.fold_ns_per_req"]
	layers["engine.wire_ns_per_req"] = layers["engine.loopback_ns_per_req"] - layers["engine.session_ns_per_req"]

	srcNS, err := drainSources(tr, []sim.ScenarioSpec{p.spec})
	if err != nil {
		return err
	}
	layers["trace.source_ns_per_req"] = srcNS[p.spec.Name]
	return nil
}

// sessionPass feeds the wire-encoded batches straight into a fresh
// session's FeedBinary and returns its cost in ns per request.
func (p *enginePath) sessionPass(tr *tracer) (float64, error) {
	eng := engine.New(engine.Options{})
	defer eng.Close()
	sess, err := eng.CreateSession(p.cfg)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 8*batchSize)
	var res engine.BatchResult
	var total time.Duration
	root := tr.begin("stage.session", -1, -1)
	for k := 0; k < p.batches(); k++ {
		b := p.batchReqs(k)
		for i, q := range b {
			binary.LittleEndian.PutUint32(payload[8*i:], uint32(q.Src))
			binary.LittleEndian.PutUint32(payload[8*i+4:], uint32(q.Dst))
		}
		t := time.Now()
		err := sess.FeedBinary(payload[:8*len(b)], &res)
		e := time.Now()
		if err != nil {
			return 0, fmt.Errorf("session stage, batch %d: %w", k, err)
		}
		total += e.Sub(t)
		tr.add("engine.Session.FeedBinary", root, k, t, e)
	}
	tr.end(root)
	if err := p.checkCosts("session stage", res.Served, res.Routing, res.Reconfig); err != nil {
		return 0, err
	}
	return float64(total.Nanoseconds()) / float64(len(p.reqs)), nil
}

// foldPass compiles the same batches exactly as the session compiles them
// and feeds them to a fresh algorithm through sim.Incremental, returning
// the fold's cost in ns per request.
func (p *enginePath) foldPass(tr *tracer) (float64, error) {
	alg, err := p.spec.BuildAlgorithm(p.cfg.Alg, p.cfg.B, p.cfg.Seed)
	if err != nil {
		return 0, err
	}
	var inc sim.Incremental
	inc.Init(alg, p.cfg.Alpha)
	metric := p.spec.Model().Metric
	idx := trace.SharedPairIndex(p.spec.Racks)
	compiled := make([]trace.CompiledReq, batchSize)
	var total time.Duration
	root := tr.begin("stage.fold", -1, -1)
	for k := 0; k < p.batches(); k++ {
		b := p.batchReqs(k)
		for i, q := range b {
			u, v := int(q.Src), int(q.Dst)
			if u > v {
				u, v = v, u
			}
			compiled[i] = trace.CompiledReq{ID: idx.ID(u, v), U: int32(u), V: int32(v), Dist: int32(metric.Dist(u, v))}
		}
		t := time.Now()
		inc.FeedChunk(compiled[:len(b)])
		e := time.Now()
		total += e.Sub(t)
		tr.add("sim.Incremental.FeedChunk", root, k, t, e)
	}
	tr.end(root)
	c := inc.Counters()
	if err := p.checkCosts("fold stage", uint64(c.Served), c.Routing, c.Reconfig); err != nil {
		return 0, err
	}
	return float64(total.Nanoseconds()) / float64(len(p.reqs)), nil
}

// drainSources drains each spec's compiled source once and returns its
// generation-plus-compilation cost in ns per request, keyed by scenario
// name; the "" key holds the cost over all of them.
func drainSources(tr *tracer, specs []sim.ScenarioSpec) (map[string]float64, error) {
	out := make(map[string]float64, len(specs)+1)
	root := tr.begin("stage.source", -1, -1)
	defer tr.end(root)
	chunk := trace.NewChunk(0)
	var all time.Duration
	var allN int
	for si, spec := range specs {
		src, err := spec.NewSource()
		if err != nil {
			return nil, err
		}
		var total time.Duration
		got := 0
		for {
			t := time.Now()
			n, err := src.Next(chunk)
			e := time.Now()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
			total += e.Sub(t)
			got += n
			tr.add("trace.Source.Next", root, si, t, e)
		}
		if got != spec.Requests {
			return nil, fmt.Errorf("source stage: %s produced %d of %d requests", spec.Name, got, spec.Requests)
		}
		out[spec.Name] = float64(total.Nanoseconds()) / float64(got)
		all += total
		allN += got
	}
	out[""] = float64(all.Nanoseconds()) / float64(allN)
	return out, nil
}
