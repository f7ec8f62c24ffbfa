package sim

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"obm/internal/trace"
)

// The grid's group scheduler. A job's requests depend only on its
// scenario, so the grid's unit of work is a group: the jobs of one
// scenario that one RunGridContext call runs (for the coordinator and the
// fleet, the scenario's jobs in one shard), up to a cap on live algorithm
// state. A group reads one source, and every chunk it generates is fed to
// every job of the group through the job's own replay (its algorithm,
// cost meter and checkpoint hooks), so the trace is generated once per
// group instead of once per job. A job's outcome is exactly what
// RunSource over a fresh source computes: the chunks are the same
// requests in the same order, and nothing but the chunks is shared.
//
// Scheduling has no barriers: no worker is bound to a group or to a job.
// A worker looking for work takes, in this order,
//
//   - a free chunk buffer, to generate the next chunk of a group one of
//     whose jobs has fed every chunk so far (the first worker that needs
//     a chunk that does not exist yet generates it: a source reads one
//     chunk at a time, so generation is the path to keep moving);
//   - a job whose next chunk is ready, to feed it that chunk (or to end
//     the job once the source is drained);
//   - the next group, if a chunk buffer is free and the group's jobs fit
//     the live-state budget;
//
// and otherwise waits. The chunk buffers come from one pool of one chunk
// per worker, so a grid holds at most Workers chunks whatever its groups;
// a buffer goes back to the pool once every live job of its group has fed
// it. One worker runs the scheduler on the caller's goroutine. A
// multi-plane job is one job like any other: its planes serve the chunks
// in trace order, on whichever worker feeds the job.

// liveStateBudget caps the algorithm state a grid keeps live: groups are
// cut to fit it and admitted only while the live jobs fit it, except that
// a grid always runs as many jobs at once as it has workers, as many as a
// pool of workers replaying one job each holds. At the paper's sizes
// (100 racks: ~48 KB for a BMA job, ~2.2 MB for an r-bma-lru one) a group
// holds all of its scenario's jobs; at 300 racks, where one r-bma-lru job
// holds ~54 MB, or near MaxRacks, where one BMA holds ~68 MB, a group
// holds as many jobs as there are workers and runs alone.
const liveStateBudget = 64 << 20

// jobStateBytes bounds the memory one live job holds: its algorithm's
// registered live-state bound plus 16 KB for the instance's small
// objects and the page rounding of its tables, once per plane, and its
// replay (cost meter, curve buffers of curvePoints points). An algorithm
// without a bound counts as the whole budget, so its groups hold as many
// jobs as there are workers.
func jobStateBytes(rj *runtimeJob, curvePoints int) int64 {
	a, err := algFor(rj.Alg)
	if err != nil || a.state == nil {
		return liveStateBudget
	}
	bytes := a.state(rj.spec.Racks, rj.B) + 16<<10
	if a.planes && rj.spec.Shards > 1 {
		bytes *= int64(rj.spec.Shards)
	}
	return bytes + 4<<10 + 24*int64(curvePoints)
}

// group is the jobs of one scenario that replay off one source.
type group struct {
	scenario string
	jobs     []groupJob
	bytes    int64 // the jobs' live-state bounds (jobStateBytes), summed

	// Written once, by the worker that builds the source, before the
	// first chunk is published.
	src         trace.Source
	total       int
	checkpoints []int

	held       []heldChunk // generated chunks some live job has yet to feed, oldest first
	base       int         // sequence number of held[0]
	generated  int         // chunks generated so far
	generating bool        // a worker is reading the source
	eof        bool        // the source is drained
	err        error       // the source failed: every job that reaches the failure ends with it
	live       int         // jobs not yet finished
	// ready holds the jobs that can step: their next chunk is held, or the
	// source is drained or failed. waiting holds the jobs that have fed
	// every generated chunk.
	ready, waiting []*groupJob
}

// heldChunk is one generated chunk with the count of live jobs that have
// yet to feed it.
type heldChunk struct {
	buf     *trace.CompiledChunk
	reqs    []trace.CompiledReq
	readers int
}

// groupJob is one job of a group.
type groupJob struct {
	ri    int   // index in the run list
	bytes int64 // live-state bound (jobStateBytes)
	next  int   // sequence number of the chunk it feeds next
	begun bool
	rp    replay
	res   RunResult
}

// gridSched runs a grid's jobs as groups. Results, errors and completion
// flags are indexed like run and written once per job.
type gridSched struct {
	ctx       context.Context
	w         *Workloads
	opt       *GridOptions
	run       []runtimeJob
	results   []JobOutcome
	errs      []error
	completed []bool

	mu        sync.Mutex
	wake      sync.Cond
	free      []*trace.CompiledChunk
	pending   []*group // not yet admitted, in plan order
	active    []*group
	liveJobs  int
	liveBytes int64
	failed    bool // a job failed: admit no more groups

	doneMu sync.Mutex // serializes Persist and Progress
	done   int
}

// runGroups executes run as groups on opt.Workers workers and returns
// the scheduler, whose results, errs and completed slices hold every
// job's fate.
func runGroups(ctx context.Context, w *Workloads, run []runtimeJob, opt *GridOptions) *gridSched {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(run))
	s := &gridSched{
		ctx: ctx, w: w, opt: opt, run: run,
		results:   make([]JobOutcome, len(run)),
		errs:      make([]error, len(run)),
		completed: make([]bool, len(run)),
		pending:   planGroups(run, opt, workers),
	}
	s.wake.L = &s.mu
	for range workers {
		s.free = append(s.free, trace.NewChunk(opt.ChunkSize))
	}
	if workers <= 1 {
		s.worker()
		return s
	}
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.wake.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.worker()
		}()
	}
	wg.Wait()
	return s
}

// planGroups cuts run into groups: maximal runs of one scenario's jobs
// (plan order keeps them together) that fit the live-state budget or
// hold at most workers jobs.
func planGroups(run []runtimeJob, opt *GridOptions, workers int) []*group {
	var groups []*group
	for i := 0; i < len(run); {
		rj := &run[i]
		g := &group{scenario: rj.Scenario}
		for ; i < len(run) && run[i].Scenario == rj.Scenario; i++ {
			bytes := jobStateBytes(&run[i], opt.CurvePoints)
			if len(g.jobs) >= workers && g.bytes+bytes > liveStateBudget {
				break
			}
			g.jobs = append(g.jobs, groupJob{ri: i, bytes: bytes})
			g.bytes += bytes
		}
		groups = append(groups, g)
	}
	return groups
}

// worker runs scheduling steps until no group is left to run.
func (s *gridSched) worker() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if g := s.idleSource(); g != nil {
			s.generate(g)
		} else if g, j := s.readyJob(); j != nil {
			s.step(g, j)
		} else if s.admit() == nil {
			if len(s.active) == 0 {
				return
			}
			s.wake.Wait()
		}
	}
}

// readyJob takes a job that can step. Once the context is cancelled every
// waiting job can: its step ends it, with the context's error if it
// began and unreported if it did not.
func (s *gridSched) readyJob() (*group, *groupJob) {
	cancelled := s.ctx.Err() != nil
	for _, g := range s.active {
		if cancelled {
			g.ready = append(g.ready, g.waiting...)
			g.waiting = g.waiting[:0]
		}
		if len(g.ready) > 0 {
			j := g.ready[0]
			g.ready = g.ready[1:]
			return g, j
		}
	}
	return nil, nil
}

// idleSource picks a group whose next chunk a job is waiting for and
// can be generated now.
func (s *gridSched) idleSource() *group {
	if len(s.free) == 0 || s.ctx.Err() != nil {
		return nil
	}
	for _, g := range s.active {
		if len(g.waiting) > 0 && !g.generating && !g.eof && g.err == nil {
			return g
		}
	}
	return nil
}

// admit activates the next group if a chunk buffer is free and its jobs
// fit the live-state budget (or nothing is live), and returns it, or nil.
// No group is admitted after a failure or a cancellation.
func (s *gridSched) admit() *group {
	if len(s.pending) == 0 || len(s.free) == 0 || s.failed || s.ctx.Err() != nil {
		return nil
	}
	g := s.pending[0]
	if s.liveJobs > 0 && s.liveBytes+g.bytes > liveStateBudget {
		return nil
	}
	s.pending[0] = nil // a retired group is garbage
	s.pending = s.pending[1:]
	s.active = append(s.active, g)
	s.liveJobs += len(g.jobs)
	s.liveBytes += g.bytes
	g.live = len(g.jobs)
	for i := range g.jobs {
		g.waiting = append(g.waiting, &g.jobs[i])
	}
	return g
}

// generate reads g's next chunk into a pooled buffer, building the
// group's source on the first call. Called and returns with s.mu held.
func (s *gridSched) generate(g *group) {
	buf := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	g.generating = true
	s.mu.Unlock()
	var err error
	if g.src == nil {
		err = s.openSource(g)
	}
	n := 0
	if err == nil {
		n, err = g.src.Next(buf)
	}
	s.mu.Lock()
	g.generating = false
	switch {
	case err == io.EOF:
		g.eof = true
	case err != nil:
		g.err = err
	case g.live > 0:
		g.held = append(g.held, heldChunk{buf: buf, reqs: buf.Reqs[:n], readers: g.live})
		g.generated++
		buf = nil
	}
	if buf != nil {
		s.free = append(s.free, buf)
	}
	g.ready = append(g.ready, g.waiting...)
	g.waiting = g.waiting[:0]
	s.retireIfDone(g)
	s.wake.Broadcast()
}

// openSource builds the group's source and what its jobs read off it.
func (s *gridSched) openSource(g *group) error {
	src, err := s.w.Source(g.scenario)
	if err != nil {
		return err
	}
	g.src, g.total = src, src.Len()
	g.checkpoints = gridCheckpoints(g.total, s.opt.CurvePoints)
	return nil
}

// step advances job j of g by one chunk: it begins the job on its first
// step, feeds it its next chunk, or ends it once the source is drained.
// A job that ends or fails is finished (persisted, reported) and leaves
// the group; a job the cancellation reaches before it began never ran,
// and leaves unreported. Called and returns with s.mu held.
func (s *gridSched) step(g *group, j *groupJob) {
	seq := j.next
	if !j.begun && s.ctx.Err() != nil {
		s.leave(g, j, nil)
		return
	}
	var reqs []trace.CompiledReq
	srcErr := g.err
	if seq < g.generated {
		reqs = g.held[seq-g.base].reqs
		srcErr = nil
	}
	s.mu.Unlock()
	err := s.ctx.Err()
	if err == nil {
		err = srcErr
	}
	if err == nil && !j.begun {
		j.begun = true
		err = s.begin(g, j)
	}
	finished := err != nil
	if !finished {
		if reqs != nil {
			err = j.rp.feed(reqs)
			finished = err != nil
		} else {
			err = j.rp.end(g.src.Name())
			finished = true
		}
	}
	if finished {
		err = s.finish(j, err)
	}
	s.mu.Lock()
	if finished {
		s.leave(g, j, err)
		return
	}
	s.release(g, seq, seq+1)
	j.next = seq + 1
	if j.next < g.generated || g.eof || g.err != nil {
		g.ready = append(g.ready, j)
	} else {
		g.waiting = append(g.waiting, j)
	}
	s.wake.Broadcast()
}

// begin builds the job's algorithm and binds its replay to the group's
// source, loading the job's checkpoint if it has one.
func (s *gridSched) begin(g *group, j *groupJob) error {
	rj := &s.run[j.ri]
	alg, err := rj.spec.BuildAlgorithmWith(rj.model, rj.Alg, rj.B, uint64(rj.Rep))
	if err != nil {
		return err
	}
	return j.rp.begin(&j.res, alg, g.total, rj.spec.Alpha, g.checkpoints, gridCkHooks(s.opt, rj.GridJob), s.opt.Metrics)
}

// release drops one reader from g's held chunks [from, to) and returns
// every leading chunk that no live job still has to feed to the pool.
// Chunks are fed in order, so they empty in order.
func (s *gridSched) release(g *group, from, to int) {
	for seq := from; seq < to; seq++ {
		g.held[seq-g.base].readers--
	}
	for len(g.held) > 0 && g.held[0].readers == 0 {
		s.free = append(s.free, g.held[0].buf)
		g.held[0] = heldChunk{}
		g.held = g.held[1:]
		g.base++
	}
}

// leave takes job j, which ended with err, out of g: it gives up its
// claims on the held chunks it has not fed and its share of the live
// state. A failure stops admission. Called with s.mu held.
func (s *gridSched) leave(g *group, j *groupJob, err error) {
	s.release(g, j.next, g.generated)
	g.live--
	s.liveJobs--
	s.liveBytes -= j.bytes
	if err != nil && s.ctx.Err() == nil {
		s.failed = true
	}
	s.retireIfDone(g)
	s.wake.Broadcast()
}

// retireIfDone drops a group whose jobs have all finished once no worker
// is reading its source.
func (s *gridSched) retireIfDone(g *group) {
	if g.live > 0 || g.generating {
		return
	}
	for i, a := range s.active {
		if a == g {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// finish records a finished job: its outcome, Persist on success, and
// Progress either way, serialized across workers. It releases the job's
// algorithm and returns the job's error, a Persist failure included.
func (s *gridSched) finish(j *groupJob, err error) error {
	job := s.run[j.ri].GridJob
	if err != nil {
		err = fmt.Errorf("sim: grid %s: %w", job, err)
	} else {
		s.results[j.ri] = jobOutcome(&j.res, s.opt.CurvePoints)
	}
	j.rp, j.res = replay{}, RunResult{}
	s.doneMu.Lock()
	defer s.doneMu.Unlock()
	s.done++
	if err == nil && s.opt.Persist != nil {
		if perr := s.opt.Persist(job, s.results[j.ri]); perr != nil {
			err = fmt.Errorf("sim: grid %s: persisting: %w", job, perr)
		}
	}
	if err == nil {
		s.completed[j.ri] = true
		s.opt.Metrics.jobDone()
	}
	if s.opt.Progress != nil {
		s.opt.Progress(s.done, len(s.run), job, err)
	}
	s.errs[j.ri] = err
	return err
}
