package sim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"obm/internal/core"
	"obm/internal/obs"
	"obm/internal/trace"
)

// The lockstep tests pin the group scheduler: the jobs of one scenario
// replay off one source, and each job's outcome must still be exactly
// what a replay of a fresh source through a fresh algorithm computes,
// for every worker count, curve setting and shard; failures and
// cancellations stay per job.

// lockstepSpecs runs every registered algorithm on a uniform, a
// microsoft and a Facebook workload, and every online one on three
// planes at a non-integer α, whose inexact cost sums pin the order in
// which a job's costs accumulate.
func lockstepSpecs() []ScenarioSpec {
	algs := Algorithms()
	var online []string
	for _, a := range algs {
		if !Offline(a) {
			online = append(online, a)
		}
	}
	return []ScenarioSpec{
		{Name: "uni", Family: "uniform", Racks: 12, Requests: 1500, Seed: 3, Bs: []int{2, 4}, Reps: 2, Algs: algs},
		{Name: "ms", Family: "microsoft", Racks: 12, Requests: 1500, Seed: 4, Bs: []int{2, 4}, Reps: 2, Algs: algs},
		{Name: "fb", Family: "facebook-hadoop", Racks: 16, Requests: 1500, Seed: 5, Bs: []int{2, 4}, Reps: 2, Algs: algs},
		{Name: "planes", Family: "uniform", Racks: 12, Requests: 1500, Seed: 6, Bs: []int{2}, Reps: 2, Shards: 3, Alpha: 30.1, Algs: online},
	}
}

// gridOutcomes runs specs and returns every executed job's outcome.
func gridOutcomes(t *testing.T, specs []ScenarioSpec, opt GridOptions) map[GridJob]JobOutcome {
	t.Helper()
	out := make(map[GridJob]JobOutcome)
	opt.Persist = func(j GridJob, o JobOutcome) error {
		out[j] = o // Persist calls are serialized
		return nil
	}
	if _, err := RunGrid(specs, opt); err != nil {
		t.Fatal(err)
	}
	return out
}

// soloOutcome replays job j on its own: a fresh source, a fresh
// algorithm, RunSource.
func soloOutcome(t *testing.T, spec ScenarioSpec, j GridJob, curvePoints int) JobOutcome {
	t.Helper()
	alg, err := spec.BuildAlgorithm(j.Alg, j.B, uint64(j.Rep))
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSource(alg, src, spec.Normalize().Alpha, gridCheckpoints(src.Len(), curvePoints), 0)
	if err != nil {
		t.Fatal(err)
	}
	return jobOutcome(&res, curvePoints)
}

// sameOutcome reports whether two outcomes agree bit for bit on costs and
// curves (elapsed time aside).
func sameOutcome(a, b JobOutcome) bool {
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	return math.Float64bits(a.Routing) == math.Float64bits(b.Routing) &&
		math.Float64bits(a.Reconfig) == math.Float64bits(b.Reconfig) &&
		slices.Equal(a.X, b.X) &&
		slices.Equal(bits(a.RoutingCurve), bits(b.RoutingCurve)) &&
		slices.Equal(bits(a.ReconfigCurve), bits(b.ReconfigCurve))
}

func TestLockstepMatchesRunSource(t *testing.T) {
	specs := lockstepSpecs()
	plan, err := PlanGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]ScenarioSpec, len(specs))
	for _, s := range specs {
		byName[s.Name] = s
	}
	for _, curve := range []int{0, 5} {
		want := make(map[GridJob]JobOutcome, len(plan.Jobs))
		for _, j := range plan.Jobs {
			want[j] = soloOutcome(t, byName[j.Scenario], j, curve)
		}
		for _, workers := range []int{1, 2, 3} {
			for _, shard := range [][2]int{{0, 0}, {1, 3}} {
				got := gridOutcomes(t, specs, GridOptions{
					Workers: workers, ChunkSize: 128, CurvePoints: curve,
					Shard: shard[0], Shards: shard[1],
				})
				owned := plan.ShardSlice(shard[0], shard[1])
				if len(got) != len(owned) {
					t.Fatalf("curve=%d workers=%d shard=%v: %d outcomes, want %d", curve, workers, shard, len(got), len(owned))
				}
				for _, j := range owned {
					o, ok := got[j]
					if !ok {
						t.Fatalf("curve=%d workers=%d shard=%v: %s did not run", curve, workers, shard, j)
					}
					if !sameOutcome(o, want[j]) {
						t.Fatalf("curve=%d workers=%d shard=%v: %s = %+v, RunSource gives %+v", curve, workers, shard, j, o, want[j])
					}
				}
			}
		}
	}
}

// TestLockstepSaveFailureNamesJob: a job whose checkpoint cannot be saved
// fails with its own identity, the rest of its group still completes, and
// the run returns instead of waiting for the failed job's chunks.
func TestLockstepSaveFailureNamesJob(t *testing.T) {
	specs := []ScenarioSpec{{Name: "uni", Family: "uniform", Racks: 10, Requests: 3000, Seed: 1, Bs: []int{2, 3}, Reps: 2}}
	plan, err := PlanGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	bad := plan.Jobs[3]
	boom := errors.New("checkpoint store full")
	for _, workers := range []int{1, 2, 3} {
		var mu sync.Mutex
		persisted := make(map[GridJob]bool)
		opt := GridOptions{
			Workers: workers, ChunkSize: 128, CheckpointEvery: 256,
			SaveCheckpoint: func(j GridJob, _ []byte) error {
				if j == bad {
					return boom
				}
				return nil
			},
			Persist: func(j GridJob, _ JobOutcome) error {
				mu.Lock()
				defer mu.Unlock()
				persisted[j] = true
				return nil
			},
		}
		done := make(chan error, 1)
		go func() {
			_, err := RunGrid(specs, opt)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, boom) || !strings.Contains(err.Error(), bad.String()) {
				t.Fatalf("workers=%d: error %v does not name %s and the save failure", workers, err, bad)
			}
			if strings.Count(err.Error(), boom.Error()) != 1 {
				t.Fatalf("workers=%d: error %v blames more than one job", workers, err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("workers=%d: grid still running a minute after %s failed", workers, bad)
		}
		mu.Lock()
		if persisted[bad] || len(persisted) != len(plan.Jobs)-1 {
			t.Fatalf("workers=%d: %d of %d jobs persisted (failed job persisted: %v), want every other job of the group", workers, len(persisted), len(plan.Jobs), persisted[bad])
		}
		mu.Unlock()
	}
}

// memCheckpoints is an in-memory checkpoint store that counts saves and
// loads per job.
type memCheckpoints struct {
	mu     sync.Mutex
	blobs  map[GridJob][]byte
	saves  map[GridJob]int
	loads  map[GridJob]int
	onSave func(total int)
	total  int
}

func newMemCheckpoints() *memCheckpoints {
	return &memCheckpoints{blobs: map[GridJob][]byte{}, saves: map[GridJob]int{}, loads: map[GridJob]int{}}
}

func (m *memCheckpoints) hooks(opt *GridOptions) {
	opt.SaveCheckpoint = func(j GridJob, blob []byte) error {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.blobs[j] = bytes.Clone(blob)
		m.saves[j]++
		m.total++
		if m.onSave != nil {
			m.onSave(m.total)
		}
		return nil
	}
	opt.LoadCheckpoint = func(j GridJob) ([]byte, bool) {
		m.mu.Lock()
		defer m.mu.Unlock()
		blob, ok := m.blobs[j]
		if ok {
			m.loads[j]++
		}
		return blob, ok
	}
	opt.DropCheckpoint = func(j GridJob) {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(m.blobs, j)
	}
}

// TestLockstepCancelResumesEveryJob: a two-worker run cancelled in the
// middle of its groups leaves every in-flight job its own checkpoint, a
// resumed run loads each of them once and feeds each job only the
// requests after its checkpoint, and the summary matches an
// uninterrupted run.
func TestLockstepCancelResumesEveryJob(t *testing.T) {
	specs := []ScenarioSpec{
		{Name: "uni", Family: "uniform", Racks: 12, Requests: 4000, Seed: 7, Bs: []int{2, 4}, Reps: 2},
		{Name: "fb", Family: "facebook-database", Racks: 16, Requests: 4000, Seed: 8, Bs: []int{2, 4}, Reps: 2},
	}
	// Saves land every 256 fed requests (two 128-request chunks), so a
	// job's k-th checkpoint sits at request 256k.
	base := GridOptions{Workers: 2, ChunkSize: 128, CurvePoints: 5, CheckpointEvery: 256}
	full := gridOutcomes(t, specs, base)

	ck := newMemCheckpoints()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ck.onSave = func(total int) {
		if total == 15 {
			cancel()
		}
	}
	persisted := make(map[GridJob]JobOutcome)
	opt := base
	ck.hooks(&opt)
	opt.Persist = func(j GridJob, o JobOutcome) error {
		persisted[j] = o
		return nil
	}
	if _, err := RunGridContext(ctx, specs, opt); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, want context.Canceled", err)
	}
	inFlight := make(map[GridJob]int) // checkpoint position per job
	for j := range ck.blobs {
		inFlight[j] = 256 * ck.saves[j]
	}
	if len(inFlight) < 2 {
		t.Fatalf("%d jobs left a checkpoint, want the in-flight jobs of a group", len(inFlight))
	}

	fed := &obs.Counter{}
	opt = base
	ck.hooks(&opt)
	opt.Metrics = &Metrics{Requests: fed}
	opt.Lookup = func(j GridJob) (JobOutcome, bool) {
		o, ok := persisted[j]
		return o, ok
	}
	resumed := make(map[GridJob]JobOutcome)
	opt.Persist = func(j GridJob, o JobOutcome) error {
		resumed[j] = o
		return nil
	}
	res, err := RunGrid(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantFed := 0
	for j := range resumed {
		wantFed += 4000 - inFlight[j]
	}
	for j, pos := range inFlight {
		if ck.loads[j] != 1 {
			t.Errorf("%s (checkpoint at %d) loaded %d times on resume, want 1", j, pos, ck.loads[j])
		}
	}
	if len(ck.loads) != len(inFlight) {
		t.Errorf("resume loaded checkpoints of %d jobs, %d had one", len(ck.loads), len(inFlight))
	}
	if got := int(fed.Value()); got != wantFed {
		t.Errorf("resumed run fed %d requests, want %d (each job from its own checkpoint)", got, wantFed)
	}
	if len(ck.blobs) != 0 {
		t.Errorf("%d checkpoints left after the resumed run", len(ck.blobs))
	}
	if len(persisted)+len(resumed) != len(full) {
		t.Fatalf("%d + %d outcomes, want %d", len(persisted), len(resumed), len(full))
	}
	for j, want := range full {
		o, ok := resumed[j]
		if !ok {
			o = persisted[j]
		}
		if !sameOutcome(o, want) {
			t.Fatalf("%s: resumed outcome %+v, uninterrupted %+v", j, o, want)
		}
	}
	ref, err := RunGrid(specs, base)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := trimElapsed(t, res), trimElapsed(t, ref); got != want {
		t.Fatalf("resumed summary differs:\n%s\nwant:\n%s", got, want)
	}
}

// TestLockstepCancelReportsOnlyBegunJobs: a cancelled run reports
// through Progress exactly the jobs that had begun (consulted their
// checkpoint), each once with the cancellation; a job that never ran is
// not reported as failed. The cancellation fires inside the first save,
// before any job completes; with one worker, before any other job began.
func TestLockstepCancelReportsOnlyBegunJobs(t *testing.T) {
	specs := []ScenarioSpec{
		{Name: "uni", Family: "uniform", Racks: 12, Requests: 4000, Seed: 7, Bs: []int{2, 4}, Reps: 2},
		{Name: "fb", Family: "facebook-database", Racks: 16, Requests: 4000, Seed: 8, Bs: []int{2, 4}, Reps: 2},
	}
	plan, err := PlanGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var mu sync.Mutex
		begun := make(map[GridJob]bool)
		var reported []GridJob
		opt := GridOptions{
			Workers: workers, ChunkSize: 128, CheckpointEvery: 128,
			SaveCheckpoint: func(GridJob, []byte) error {
				cancel()
				return nil
			},
			LoadCheckpoint: func(j GridJob) ([]byte, bool) {
				mu.Lock()
				defer mu.Unlock()
				begun[j] = true
				return nil, false
			},
			Progress: func(_, _ int, j GridJob, err error) {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("workers=%d: %s reported %v, want the cancellation", workers, j, err)
				}
				reported = append(reported, j) // Progress calls are serialized
			},
		}
		if _, err := RunGridContext(ctx, specs, opt); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: %v, want context.Canceled", workers, err)
		}
		cancel()
		for _, j := range reported {
			if !begun[j] {
				t.Errorf("workers=%d: %s reported, but it never began", workers, j)
			}
		}
		if len(reported) != len(begun) {
			t.Errorf("workers=%d: %d jobs reported, %d began", workers, len(reported), len(begun))
		}
		if workers == 1 && !slices.Equal(reported, plan.Jobs[:1]) {
			t.Errorf("one worker reported %v, want only the first job %s", reported, plan.Jobs[0])
		}
	}
}

// trimElapsed renders a grid result as CSV without the wall-time column.
func trimElapsed(t *testing.T, res *GridResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		rows = append(rows, line[:strings.LastIndex(line, ",")])
	}
	return strings.Join(rows, "\n")
}

// TestLockstepGroupCap: at the paper's sizes a group holds all of its
// scenario's jobs. Past that, the live jobs' state bounds stay within
// the live-state budget, or no more jobs are live than the grid has
// workers: with r-bma-lru's per-rack dense tables at 300 racks, with a
// multi-plane spec whose every plane is a full instance, and near
// MaxRacks, where a group holds exactly as many jobs as there are
// workers and no second group is admitted while one is live.
func TestLockstepGroupCap(t *testing.T) {
	paper := ScenarioSpec{Name: "p", Family: "uniform", Racks: 100, Requests: 100, Seed: 1, Bs: []int{6, 12, 18}, Reps: 5,
		Algs: []string{"r-bma", "r-bma-lru", "bma", "oblivious"}}
	lru := paper
	lru.Name, lru.Racks, lru.Algs = "lru", 300, Algorithms()
	planesSpec := paper
	planesSpec.Name, planesSpec.Racks, planesSpec.Shards, planesSpec.Algs = "planes", 150, 4, []string{"r-bma-lru"}
	big := paper
	big.Name, big.Racks, big.Algs = "big", MaxRacks, []string{"r-bma", "bma"}
	opt := &GridOptions{}
	plannedRun := func(spec ScenarioSpec) []runtimeJob {
		plan, err := PlanGrid([]ScenarioSpec{spec})
		if err != nil {
			t.Fatal(err)
		}
		run := make([]runtimeJob, len(plan.Jobs))
		for i, j := range plan.Jobs {
			run[i] = runtimeJob{GridJob: j, spec: spec.Normalize()}
		}
		return run
	}
	if groups := planGroups(plannedRun(paper), opt, 2); len(groups) != 1 {
		t.Fatalf("a 100-rack scenario's %d jobs plan as %d groups, want 1", len(plannedRun(paper)), len(groups))
	}
	for _, spec := range []ScenarioSpec{lru, planesSpec, big} {
		for workers := 1; workers <= 4; workers++ {
			run := plannedRun(spec)
			s := &gridSched{ctx: context.Background(), opt: opt, pending: planGroups(run, opt, workers)}
			s.free = make([]*trace.CompiledChunk, workers)
			left, peak := 0, 0
			for len(s.pending) > 0 || len(s.active) > 0 {
				for g := s.admit(); g != nil; g = s.admit() {
					if s.liveBytes > liveStateBudget && s.liveJobs > workers {
						t.Fatalf("%s, workers=%d: %d jobs live with %d bytes of state, budget %d", spec.Name, workers, s.liveJobs, s.liveBytes, liveStateBudget)
					}
					peak = max(peak, s.liveJobs)
				}
				if len(s.active) == 0 {
					t.Fatalf("%s, workers=%d: nothing live, yet the next group is not admitted", spec.Name, workers)
				}
				g := s.active[0] // its first unfinished job leaves
				s.leave(g, &g.jobs[len(g.jobs)-g.live], nil)
				left++
			}
			if left != len(run) || s.liveJobs != 0 || s.liveBytes != 0 {
				t.Fatalf("%s, workers=%d: %d of %d jobs left, %d jobs and %d bytes still live", spec.Name, workers, left, len(run), s.liveJobs, s.liveBytes)
			}
			if spec.Name == "big" && peak != workers {
				t.Fatalf("workers=%d: at most %d %d-rack jobs live, want %d", workers, peak, MaxRacks, workers)
			}
			if spec.Name == "planes" && peak != max(workers, 2) {
				// Two 4-plane r-bma-lru jobs at 150 racks fit the budget.
				t.Fatalf("workers=%d: at most %d 4-plane jobs live, want %d", workers, peak, max(workers, 2))
			}
		}
	}
}

// TestAlgStateBoundsLiveHeap: the live-state bound of every registered
// algorithm covers the heap one of its jobs keeps live once it has
// served requests, on one plane and on several, so the grid's live-state
// budget caps real memory; and it is at most about twice that heap, so
// groups are not cut for state that is not there.
func TestAlgStateBoundsLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under race instrumentation")
	}
	for _, tc := range []struct{ racks, b, shards int }{{40, 4, 1}, {300, 12, 1}, {64, 6, 4}} {
		spec := ScenarioSpec{Name: "m", Family: "uniform", Racks: tc.racks, Requests: 20000, Seed: 1, Bs: []int{tc.b}, Reps: 1, Shards: tc.shards}
		for _, name := range Algorithms() {
			if Offline(name) && tc.shards > 1 {
				continue
			}
			spec.Algs = []string{name}
			plan, err := PlanGrid([]ScenarioSpec{spec})
			if err != nil {
				t.Fatal(err)
			}
			rj := runtimeJob{GridJob: plan.Jobs[0], spec: spec.Normalize()}
			model := rj.spec.Model()
			src, err := rj.spec.NewSource()
			if err != nil {
				t.Fatal(err)
			}
			replayed := func(name string, b int) core.Algorithm {
				alg, err := rj.spec.BuildAlgorithmWith(model, name, b, 1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := RunSource(alg, src, rj.spec.Alpha, gridCheckpoints(src.Len(), 0), 0); err != nil {
					t.Fatal(err)
				}
				return alg
			}
			// A first replay, of R-BMA, builds what instances share (the
			// pair index, the k_e table) and the source's tables.
			replayed("r-bma", tc.b)
			// Two collections: the first leaves pooled objects in the
			// pools' victim caches, the second frees them.
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			alg := replayed(name, rj.B)
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			bound := jobStateBytes(&rj, 0)
			if live > bound || bound > 2*live+64<<10 {
				t.Errorf("%s at %d racks, b=%d, %d planes keeps %d bytes live, bound %d", name, tc.racks, rj.B, tc.shards, live, bound)
			}
			runtime.KeepAlive(src)
			runtime.KeepAlive(alg)
		}
	}
}
