// Package serve is the experiment service: a long-running HTTP/JSON
// front end over the scenario grid that accepts, queues, deduplicates and
// executes experiment requests, and serves their rendered artifacts.
//
// A request is the same ScenarioSpec JSON list the `experiments grid
// -scenarios` flag reads. Submitting one yields a job whose identity IS
// the run store's SHA-256 spec hash — the service is a content-addressed
// result cache: submitting an identical spec list again returns the
// already-finished (or in-flight) job instead of recomputing, across
// restarts, because the cache is the store root directory itself.
//
// Execution is shard leasing. The coordinator partitions a job's grid
// into leasable shards (see lease.go), and lease consumers drain them:
// the Options.Workers local workers inside this process, a fleet of
// external worker processes (internal/work, `experiments worker`), or
// both at once on the same job. Every consumer leases a shard, executes
// it against a shard store of its own through RunShard (shard.go),
// heartbeats to keep the lease, and hands the shard's log in; the
// coordinator folds it into the job's store under exact-agreement
// conflict checks. Local workers make the same three calls in process
// that fleet workers make over HTTP. A queued or running job holds its
// store open from submission (or recovery) until it finishes, together
// with the shard table planned from it, so a hand-in costs one absorb
// into memory and the log, never a reopen. Everything durable lives in
// the store root:
//
//	root/
//	├── <spec-hash[:16]>/    one run store per submitted grid
//	│   ├── manifest.json    (written at submission — the durable queue)
//	│   ├── jobs.log         (job log: appended as shard logs are absorbed; held open while the job is live)
//	│   ├── lease.wal        (lease journal, from the job's first lease until it finishes)
//	│   ├── shards/          (local workers' shard stores, removed when the job finishes)
//	│   ├── summary.csv      (rendered on completion)
//	│   └── report.md        (rendered on completion)
//	└── queue.json           (queued-job order, written on graceful shutdown)
//
// Crash recovery is therefore discovery: on startup the service scans the
// root; complete stores re-register as cache hits, incomplete ones are
// queued again and resume mid-grid (their absorbed jobs are never re-run),
// and a lease WAL restores the lease table of a job a fleet is still
// draining. Only full-grid stores are jobs: a shard store found under the
// root is logged and skipped. queue.json only orders the queued jobs —
// losing it (a hard kill) or finding it torn loses no work.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"obm/internal/obs"
	"obm/internal/report"
	"obm/internal/sim"
	"obm/internal/wal"
)

// Options configures a Server.
type Options struct {
	// StoreRoot is the directory holding one run store per job (required).
	StoreRoot string
	// Workers is the number of local workers: lease consumers inside this
	// process that drain shards through the same leases as fleet workers
	// (default 1). A negative value starts none: the server is then a pure
	// coordinator and jobs only progress when fleet workers lease their
	// shards.
	Workers int
	// QueueDepth bounds the number of jobs in state queued (no shard
	// leased yet); a submission beyond it is refused with 429 (default 16).
	QueueDepth int
	// GridWorkers sizes the sim worker pool inside each local shard run
	// (default GOMAXPROCS).
	GridWorkers int
	// ChunkSize is the streaming chunk size per grid worker (0 = default).
	ChunkSize int
	// Parallel, when > 1, replays multi-plane jobs (scenario Shards > 1)
	// with that many goroutines each (sim.GridOptions.Parallel). Job
	// outcomes are byte-identical for every value, so it is safe to vary
	// per deployment without invalidating stores or caches.
	Parallel int
	// CurvePoints is the cost-curve checkpoint count recorded per job
	// (default 10; it is part of the spec hash, so changing it changes
	// every job identity).
	CurvePoints int
	// LeaseTTL is how long a shard lease stays valid without a heartbeat
	// before the shard is requeued for another worker (default 30s).
	LeaseTTL time.Duration
	// ShardSize is the target number of grid jobs per leasable shard;
	// a job's grid is partitioned into ceil(total/ShardSize) modulo
	// shards (default 16).
	ShardSize int
	// Logf, when non-nil, receives one line per job state change.
	Logf func(format string, args ...any)
	// Registry, when non-nil, is where the server registers its
	// obm_serve_* and obm_grid_* metrics (nil gets a private registry).
	// Either way the exposition is served at GET /metrics.
	Registry *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Workers < 0 {
		o.Workers = 0 // coordinator-only: no local workers
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.ShardSize <= 0 {
		o.ShardSize = 16
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.CurvePoints == 0 {
		o.CurvePoints = 10
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// State is a job's lifecycle state.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// queueFile persists queued-job order across graceful restarts.
const queueFile = "queue.json"

// localShardsDir holds the local workers' shard stores inside a job's
// store directory — not at the store root, where report.Discover would
// take a shard store (it carries the job's spec hash) for a job.
const localShardsDir = "shards"

// localWorkerPrefix names the local workers in lease state ("local/0",
// "local/1", …). Recovery requeues their leases at once — they died with
// the process that granted them — so fleet workers may not use it.
const localWorkerPrefix = "local/"

// job is one submitted grid: a run store plus in-memory execution state.
// A queued or running job holds its store open and its shard table; both
// are set together once the store is created or opened, and a finished
// job drops the store. The coordinator is the only writer of that store.
type job struct {
	id       string // the full spec hash — job identity == result identity
	dir      string
	total    int // full-grid job count, from the manifest
	manifest report.Manifest

	mu         sync.Mutex
	state      State
	done       int // completed grid jobs (including previously persisted)
	errMsg     string
	createdAt  time.Time
	finishedAt time.Time
	store      *report.Store // open while the job is queued or running
	dist       *distJob      // lease state; nil until store is set, and for jobs recovered done
	wal        *wal.Log      // lease-state journal; nil until the first lease, and after an append failure
	hub        *hub
}

// Status is the JSON shape of a job's state, returned by the status and
// list endpoints and carried by every SSE event.
type Status struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Done       int    `json:"done"`
	Total      int    `json:"total"`
	Error      string `json:"error,omitempty"`
	Cached     bool   `json:"cached,omitempty"`
	CreatedAt  string `json:"created_at,omitempty"`
	FinishedAt string `json:"finished_at,omitempty"`
}

func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Status{
		ID:    j.id,
		State: j.state,
		Done:  j.done,
		Total: j.total,
		Error: j.errMsg,
	}
	if !j.createdAt.IsZero() {
		s.CreatedAt = j.createdAt.UTC().Format(time.RFC3339)
	}
	if !j.finishedAt.IsZero() {
		s.FinishedAt = j.finishedAt.UTC().Format(time.RFC3339)
	}
	return s
}

// events returns the job's current hub; a failed-and-resubmitted job
// swaps in a fresh hub, so reads go through the lock.
func (j *job) events() *hub {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hub
}

// publish pushes the job's current status to its SSE subscribers.
func (j *job) publish() { j.events().publish(j.status()) }

// Server is the experiment service. Create with New, mount Handler on an
// http.Server, stop with Shutdown.
type Server struct {
	opt Options
	reg *obs.Registry
	met serverMetrics
	sim *sim.Metrics // obm_grid_* instruments for local workers' shard runs

	mu     sync.Mutex
	jobs   map[string]*job // by spec hash
	order  []string        // submission order: the list endpoint's and the local workers' lease order
	closed bool

	// wake holds up to one token per local worker: a job may have a
	// shard to lease.
	wake chan struct{}

	stop      chan struct{} // closed by Shutdown: idle local workers exit, SSE streams end
	runCtx    context.Context
	cancelRun context.CancelFunc // interrupts local shard runs when Shutdown's drain budget runs out
	wg        sync.WaitGroup
	shutOnce  sync.Once

	// crashHook, when non-nil, is invoked at every lease-WAL persistence
	// boundary (see crashPoint). Production servers never set it; the
	// fault-injection harness panics from it to simulate a coordinator
	// dying at exactly that boundary. Set before any request traffic.
	crashHook func(crashPoint)
}

// New builds the service and recovers the store root: finished stores
// become cache entries, interrupted ones are queued again (in queue.json
// order where available) and will resume mid-grid. Local workers start
// immediately.
func New(opt Options) (*Server, error) {
	opt = opt.withDefaults()
	if opt.StoreRoot == "" {
		return nil, fmt.Errorf("serve: Options.StoreRoot is required")
	}
	if err := os.MkdirAll(opt.StoreRoot, 0o755); err != nil {
		return nil, err
	}
	reg := opt.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		opt:  opt,
		reg:  reg,
		met:  newServerMetrics(reg),
		sim:  sim.NewMetrics(reg),
		jobs: make(map[string]*job),
		wake: make(chan struct{}, opt.Workers),
		stop: make(chan struct{}),
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())
	reg.Collect(s.collect)
	s.recover()
	for w := 0; w < opt.Workers; w++ {
		s.wg.Add(1)
		go s.localWorker(fmt.Sprintf("%s%d", localWorkerPrefix, w))
	}
	return s, nil
}

// recover scans the store root and registers every full-grid store:
// complete ones as done (cache hits), incomplete ones as queued — or as
// running, when their lease WAL shows a fleet still draining them. An
// incomplete store is opened once more and held, like a submitted job's.
// A shard store is never a job: its Missing counts only its own slice,
// so it would pass for the whole grid. queue.json, when present and
// readable, orders the incomplete ones; stores it does not mention (hard
// kill, manual drops) follow in directory order.
func (s *Server) recover() {
	// Discover is best-effort: a corrupt store must not take the healthy
	// ones (and the whole service) down with it — log and skip.
	infos, err := report.Discover(s.opt.StoreRoot)
	if err != nil {
		s.opt.Logf("serve: store root has unreadable stores (skipped): %v", err)
	}
	var order []string
	qPath := filepath.Join(s.opt.StoreRoot, queueFile)
	if blob, err := os.ReadFile(qPath); err == nil {
		if err := json.Unmarshal(blob, &order); err != nil {
			// The file only orders recovery: a torn one costs the order,
			// never work or the service.
			s.opt.Logf("serve: ignoring corrupt %s (recovering in directory order): %v", qPath, err)
			order = nil
		}
		os.Remove(qPath) // consumed; from here the stores are the truth
	}

	now := time.Now()
	for _, info := range infos { // directory order: deterministic
		if !info.Manifest.Shard.IsFull() {
			s.opt.Logf("serve: skipping shard store %s (shard %s of job %.12s): only full-grid stores are jobs",
				info.Dir, info.Manifest.Shard, info.Manifest.SpecHash)
			continue
		}
		h := info.Manifest.SpecHash
		if _, dup := s.jobs[h]; dup {
			s.opt.Logf("serve: skipping store %s: job %.12s is already recovered from another store", info.Dir, h)
			continue
		}
		j := &job{
			id:        h,
			dir:       info.Dir,
			total:     info.Manifest.TotalJobs,
			manifest:  info.Manifest,
			done:      info.Recorded,
			createdAt: now,
			hub:       newHub(),
		}
		if !info.Complete() {
			store, err := report.Open(info.Dir)
			if err != nil {
				s.opt.Logf("serve: skipping store %s: %v", info.Dir, err)
				continue
			}
			j.state = StateQueued
			s.attach(j, store)
			// A lease WAL means the job was being drained when the
			// previous coordinator died; restore the lease table so live
			// fleet workers keep their shards.
			s.recoverDist(j, now)
		} else {
			j.state = StateDone
			j.finishedAt = now
			j.publish()
			j.hub.close()
			// A complete store may predate rendering (killed between the
			// last append and Render); rendered artifacts are re-derivable,
			// so artifact handlers re-render on demand instead of blocking
			// startup here. A lease WAL or local shard stores next to a
			// finished store are leftovers of the run that completed it —
			// never replay them.
			os.Remove(filepath.Join(info.Dir, leaseWALFile))
			os.RemoveAll(filepath.Join(info.Dir, localShardsDir))
		}
		order = append(order, h)
		s.jobs[h] = j
	}
	// Finished jobs are listed first, then the others in recovery order:
	// the order local workers lease in.
	listed := make(map[string]bool)
	for _, done := range []bool{true, false} {
		for _, h := range order {
			j, ok := s.jobs[h]
			if !ok || listed[h] || (j.state == StateDone) != done {
				continue
			}
			listed[h] = true
			s.order = append(s.order, h)
			if j.state == StateQueued {
				s.opt.Logf("serve: recovered job %.12s (%d/%d done)", h, j.done, j.total)
			}
		}
	}
}

// ErrQueueFull is returned by Submit when QueueDepth jobs are already
// queued; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: job queue is full")

// ErrClosed is returned by Submit after Shutdown has begun.
var ErrClosed = errors.New("serve: server is shutting down")

// ErrStorage marks server-side store failures (disk full, permissions),
// as opposed to invalid specs; the HTTP layer maps it to 500, not 400.
var ErrStorage = errors.New("serve: run-store storage error")

// Submit registers the grid described by specs and returns its job plus
// whether the result was already available (a cache hit: the identical
// spec list was run before, possibly in a previous process). A fresh
// submission creates the job's run store (manifest only) before queueing
// it, so an accepted job survives any crash. Resubmitting a failed grid
// queues it again — its store is intact, so the retry resumes past
// everything that succeeded before the failure. Either way the job then
// holds its open store and shard table until it finishes; the store is
// created or reopened outside the server lock. The returned status is
// taken before any worker can lease the job.
func (s *Server) Submit(specs []sim.ScenarioSpec) (Status, error) {
	m, err := report.NewManifest("experiments serve", specs, s.opt.CurvePoints, report.Shard{})
	if err != nil {
		return Status{}, err
	}
	s.met.submissions.Inc()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, ErrClosed
	}
	j, known := s.jobs[m.SpecHash]
	if known {
		if st := j.status(); st.State != StateFailed {
			st.Cached = st.State == StateDone
			s.mu.Unlock()
			if st.Cached {
				s.met.cacheHits.Inc()
			}
			return st, nil
		}
	}
	if s.queuedLocked() >= s.opt.QueueDepth {
		s.mu.Unlock()
		return Status{}, ErrQueueFull
	}
	if known {
		// Failed jobs must not poison their hash: queue again (the store
		// keeps every job that succeeded, so the retry is a resume).
		j.mu.Lock()
		j.state = StateQueued
		j.dist = nil // stale lease bookkeeping; the reopen re-plans the shards
		j.errMsg = ""
		j.finishedAt = time.Time{}
		j.hub = newHub() // the failed run's hub is closed; subscribers need a live one
		j.mu.Unlock()
		st := j.status()
		s.mu.Unlock()
		store, err := report.Open(j.dir)
		if err != nil {
			err = fmt.Errorf("%w: reopening run store: %v", ErrStorage, err)
			s.finishJob(j, err)
			return Status{}, err
		}
		s.attach(j, store)
		s.wakeWorkers()
		s.opt.Logf("serve: re-queued failed job %.12s", m.SpecHash)
		return st, nil
	}
	// Reserve the hash (so duplicates dedupe onto this job and the queue
	// bound holds), then do the store-creation disk I/O outside the server
	// lock — status/list/health requests must not stall behind a slow
	// filesystem.
	dir := report.DirForHash(s.opt.StoreRoot, m.SpecHash)
	j = &job{
		id:        m.SpecHash,
		dir:       dir,
		total:     m.TotalJobs,
		manifest:  m,
		state:     StateQueued,
		createdAt: time.Now(),
		hub:       newHub(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	store, err := report.Create(dir, m)
	if err != nil {
		// Roll the reservation back; the hash stays submittable.
		s.mu.Lock()
		delete(s.jobs, j.id)
		for i, id := range s.order {
			if id == j.id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return Status{}, fmt.Errorf("%w: creating run store: %v", ErrStorage, err)
	}
	st := j.status()
	s.attach(j, store)
	s.wakeWorkers()
	s.opt.Logf("serve: queued job %.12s (%d grid jobs)", j.id, j.total)
	return st, nil
}

// queuedLocked counts the jobs in state queued. Callers hold s.mu.
func (s *Server) queuedLocked() int {
	n := 0
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.state == StateQueued {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// Job returns the status of the job with the given id (the spec hash).
func (s *Server) Job(id string) (Status, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// Jobs returns every known job's status in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// wakeWorkers wakes the idle local workers: a shard may have become
// leasable (a submission, a requeue, a resubmitted failure). A worker
// busy looking finds a token when it is done, so no wake-up is lost.
func (s *Server) wakeWorkers() {
	for range cap(s.wake) {
		select {
		case s.wake <- struct{}{}:
		default:
			return
		}
	}
}

// localWorker is one of the Options.Workers lease consumers inside the
// coordinator. It leases shards in submission order through the same
// lease call a fleet worker's HTTP request makes and runs each through
// RunShard. With nothing to lease it idles until woken, or for a third
// of the lease TTL — the next look reaps fleet leases that expired
// meanwhile and takes their shards over.
func (s *Server) localWorker(name string) {
	defer s.wg.Done()
	for {
		j, l, err := s.leaseNext(name)
		if errors.Is(err, ErrClosed) {
			return
		}
		if err == nil {
			s.runLocalShard(j, l, name)
			continue
		}
		select {
		case <-s.stop:
			return
		case <-s.wake:
		case <-time.After(s.opt.LeaseTTL / 3):
		}
	}
}

// leaseNext leases the first pending shard of any job, in submission
// order. ErrNoLease means there is nothing to lease anywhere.
func (s *Server) leaseNext(worker string) (*job, Lease, error) {
	s.mu.Lock()
	jobs := make([]*job, len(s.order))
	for i, id := range s.order {
		jobs[i] = s.jobs[id]
	}
	s.mu.Unlock()
	for _, j := range jobs {
		l, err := s.lease(j, worker)
		switch {
		case err == nil:
			return j, l, nil
		case errors.Is(err, ErrClosed):
			return nil, Lease{}, err
		case !errors.Is(err, ErrNoLease):
			s.opt.Logf("serve: %s: leasing job %.12s: %v", worker, j.id, err)
		}
	}
	return nil, Lease{}, ErrNoLease
}

// runLocalShard runs one leased shard in process: RunShard, as on a fleet
// worker, with direct calls for transport and a heartbeat after every
// finished grid job, so status and SSE move job by job. A shard that
// fails here fails its job, as a grid run does — retrying it in this
// process would only fail again; resubmitting the job retries it.
func (s *Server) runLocalShard(j *job, l Lease, name string) {
	logf := func(format string, args ...any) { s.opt.Logf("serve: %s "+format, append([]any{name}, args...)...) }
	res := RunShard(s.runCtx, ShardRun{
		Lease: l,
		Dir:   filepath.Join(j.dir, localShardsDir, fmt.Sprintf("%d-of-%d", l.Shard, l.Shards)),
		Grid: sim.GridOptions{
			Workers:   s.opt.GridWorkers,
			ChunkSize: s.opt.ChunkSize,
			Parallel:  s.opt.Parallel,
			Metrics:   s.sim,
		},
		Heartbeat: func(_ context.Context, done int) error {
			_, err := s.heartbeat(j, l.Shard, l.Token, done)
			return err
		},
		BeatPerJob: true,
		Complete: func(_ context.Context, logPath, failMsg string) error {
			log, err := os.Open(logPath)
			if err != nil {
				return err
			}
			defer log.Close()
			_, err = s.completeShard(j, l.Shard, l.Token, name, failMsg, log)
			return err
		},
		Logf: logf,
	})
	switch res.Outcome {
	case ShardNotRun, ShardFailed:
		s.finishJob(j, res.RunErr)
	case ShardLeaseLost:
		logf("lost the lease on shard %d of job %.12s — aborted at a chunk boundary", l.Shard, l.JobID)
	}
	if res.CompleteErr != nil {
		logf("handing in shard %d of job %.12s: %v", l.Shard, l.JobID, res.CompleteErr)
	}
}

// finishJob moves a job to its terminal state, closes its store and its
// event hub, and removes the local workers' shard stores: everything
// they hold is in the job's store (a failed shard's partial log is
// absorbed before the job fails). Finishing an already-finished job is a
// no-op, so racing completion paths (an upload's terminal check vs.
// lease-time finalization) are benign. An upload racing this close fails
// with a storage error and is retried against the finished job.
func (s *Server) finishJob(j *job, err error) {
	j.mu.Lock()
	if j.state == StateDone || j.state == StateFailed {
		j.mu.Unlock()
		return
	}
	j.walDrop() // terminal state: the journal must never be replayed
	store := j.store
	j.store = nil
	j.finishedAt = time.Now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.done = j.total
	}
	h := j.hub
	j.mu.Unlock()
	if store != nil {
		if cerr := store.Close(); cerr != nil {
			s.opt.Logf("serve: job %.12s: closing store: %v", j.id, cerr)
		}
	}
	os.RemoveAll(filepath.Join(j.dir, localShardsDir))
	h.publish(j.status())
	h.close()
	if err != nil {
		s.opt.Logf("serve: job %.12s failed: %v", j.id, err)
	} else {
		s.opt.Logf("serve: job %.12s done (%d grid jobs)", j.id, j.total)
	}
}

// Shutdown stops the service gracefully: submissions and new leases are
// refused, idle local workers exit, and busy ones finish their in-flight
// shards — until ctx expires, at which point they stop at the next chunk
// boundary and hand each partial log in as a failed shard, so the shard
// requeues and the lease WAL records it. A job left with no leased shard
// goes back to queued; their order is written to queue.json so a restart
// resumes them in submission order. A job a fleet worker still holds a
// lease on stays running, its WAL kept for the next process. Live jobs'
// stores are closed (a later upload fails with a storage error), and
// their event hubs too, so SSE subscribers are released rather than left
// waiting on a process that will publish nothing more.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.shutOnce.Do(func() { close(s.stop) })

	interrupt := context.AfterFunc(ctx, s.cancelRun)
	s.wg.Wait()
	interrupt()
	s.cancelRun()

	var queued []string
	var stores []*report.Store
	s.mu.Lock()
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		live := j.state == StateQueued || j.state == StateRunning
		requeued := j.state == StateRunning && !j.leased()
		if requeued {
			j.state = StateQueued
		}
		if j.state == StateQueued {
			queued = append(queued, id)
		}
		if j.wal != nil {
			// Keep the journal (the next process replays it and the fleet
			// carries on) but flush and release the handle.
			j.wal.Sync()
			j.wal.Close()
			j.wal = nil
		}
		if j.store != nil { // only live jobs hold one
			stores = append(stores, j.store)
		}
		h := j.hub
		j.mu.Unlock()
		if requeued {
			h.publish(j.status())
		}
		if live {
			h.close()
		}
	}
	s.mu.Unlock()
	for _, st := range stores {
		if err := st.Close(); err != nil {
			s.opt.Logf("serve: closing store %s: %v", st.Dir(), err)
		}
	}

	if len(queued) == 0 {
		return nil
	}
	return writeQueue(s.opt.StoreRoot, queued)
}

// writeQueue replaces root/queue.json atomically and durably (synced
// before the rename), so a crash leaves the old file or the new one,
// never a torn one.
func writeQueue(root string, ids []string) error {
	blob, err := json.Marshal(ids)
	if err != nil {
		return err
	}
	return wal.WriteAtomic(filepath.Join(root, queueFile), append(blob, '\n'), true)
}
