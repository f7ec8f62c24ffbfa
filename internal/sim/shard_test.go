package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// cutSpecs plans n oblivious jobs over scenarios of one to five
// repetitions, with request counts drawn from r: mostly small, some zero,
// some a hundred times larger.
func cutSpecs(r *rand.Rand, n int) []ScenarioSpec {
	var specs []ScenarioSpec
	for i := 0; n > 0; i++ {
		reps := min(n, 1+r.Intn(5))
		req := r.Intn(1000)
		switch r.Intn(6) {
		case 0:
			req = 0
		case 1:
			req *= 100
		}
		specs = append(specs, ScenarioSpec{
			Name: fmt.Sprintf("s%d", i), Family: "uniform", Racks: 4, Requests: req, Seed: 1,
			Bs: []int{2}, Reps: reps, Algs: []string{"oblivious"},
		})
		n -= reps
	}
	return specs
}

// checkCut checks the cut of plan into count shards: contiguous, covering
// every job once, non-empty when count <= jobs, each shard's requests at
// most W/count plus the largest job's, and ShardSlice agrees. Where no
// shard would be empty anyway, job i is in shard ⌊prefix·count/W⌋, prefix
// the requests of the jobs before it.
func checkCut(t *testing.T, plan *GridPlan, reqs []int, count int, balanced bool) {
	t.Helper()
	n := len(plan.Jobs)
	cuts := plan.ShardCuts(count)
	if len(cuts) != count+1 || cuts[0] != 0 || cuts[count] != n {
		t.Fatalf("%d jobs, %d shards: cuts %v", n, count, cuts)
	}
	var total, largest int
	for _, r := range reqs {
		total += r
		largest = max(largest, r)
	}
	if balanced && total > 0 {
		raw := make([]int, n)
		hit := make([]bool, count)
		prefix := 0
		for i, r := range reqs {
			raw[i] = min(prefix*count/total, count-1)
			hit[raw[i]] = true
			prefix += r
		}
		for k := range count {
			for i := cuts[k]; i < cuts[k+1]; i++ {
				if raw[i] != k && !slices.Contains(hit, false) {
					t.Fatalf("%d jobs, %d shards: job %d is in shard %d, ⌊prefix·count/W⌋ = %d (cuts %v, requests %v)", n, count, i, k, raw[i], cuts, reqs)
				}
			}
		}
	}
	for k := range count {
		lo, hi := cuts[k], cuts[k+1]
		if hi < lo || (count <= n && hi == lo) {
			t.Fatalf("%d jobs, %d shards: shard %d is [%d,%d) (cuts %v)", n, count, k, lo, hi, cuts)
		}
		if got := plan.ShardSlice(k, count); !slices.Equal(got, plan.Jobs[lo:hi]) {
			t.Fatalf("%d jobs, %d shards: ShardSlice(%d) = %v, cut [%d,%d)", n, count, k, got, lo, hi)
		}
		sum := 0
		for _, r := range reqs[lo:hi] {
			sum += r
		}
		if balanced && sum*count > total+largest*count {
			t.Fatalf("%d jobs, %d shards: shard %d replays %d requests, more than W/count + largest = %d/%d + %d (cuts %v, requests %v)",
				n, count, k, sum, total, count, largest, cuts, reqs)
		}
	}
}

// jobRequests lists each plan job's request count.
func jobRequests(t *testing.T, specs []ScenarioSpec, plan *GridPlan) []int {
	t.Helper()
	byName := make(map[string]int, len(specs))
	for _, s := range specs {
		byName[s.Name] = s.Requests
	}
	reqs := make([]int, len(plan.Jobs))
	for i, j := range plan.Jobs {
		reqs[i] = byName[j.Scenario]
	}
	return reqs
}

// TestShardCut: over exhaustive small plans (1–40 jobs, 1–7 shards,
// mixed request counts) the cut is a contiguous partition, non-empty
// when there are no more shards than jobs, balanced to within the
// largest job, and the same for the same specs.
func TestShardCut(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 1; n <= 40; n++ {
		for trial := 0; trial < 8; trial++ {
			specs := cutSpecs(r, n)
			plan, err := PlanGrid(specs)
			if err != nil {
				t.Fatal(err)
			}
			again, err := PlanGrid(specs)
			if err != nil {
				t.Fatal(err)
			}
			reqs := jobRequests(t, specs, plan)
			for count := 1; count <= 7; count++ {
				checkCut(t, plan, reqs, count, true)
				if !slices.Equal(plan.ShardCuts(count), again.ShardCuts(count)) {
					t.Fatalf("%d jobs, %d shards: cuts %v, then %v", n, count, plan.ShardCuts(count), again.ShardCuts(count))
				}
			}
		}
	}
	// Request counts past the per-job cap still cut into a partition.
	specs := cutSpecs(r, 12)
	specs[0].Requests = math.MaxInt
	specs[len(specs)-1].Requests = math.MaxInt / 3
	plan, err := PlanGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	for count := 1; count <= 15; count++ {
		checkCut(t, plan, jobRequests(t, specs, plan), count, false)
	}
}

// paperSpecs is the paper's evaluation grid at 1/div of its request
// counts with reps repetitions: the specs of the repository benchmark's
// grid-paper (div 1, 1 rep) and fleet-drain (div 100, 4 reps) workloads.
func paperSpecs(div, reps int) []ScenarioSpec {
	fams := []struct {
		name     string
		racks    int
		requests int
		bs       []int
	}{
		{"microsoft", 50, 1750000, []int{3, 6, 9}},
		{"facebook-webservice", 100, 400000, []int{6, 12, 18}},
		{"facebook-database", 100, 350000, []int{6, 12, 18}},
		{"facebook-hadoop", 100, 185000, []int{6, 12, 18}},
	}
	specs := make([]ScenarioSpec, len(fams))
	for i, f := range fams {
		specs[i] = ScenarioSpec{Name: f.name, Family: f.name, Racks: f.racks, Requests: f.requests / div, Seed: 1, Bs: f.bs, Reps: reps}
	}
	return specs
}

// TestShardCutGeneratedRequests pins what the cut saves on the benchmark
// plans, each cut the way the experiment service cuts a job (one shard
// per shardSize jobs): a shard's groups generate each of its scenarios'
// traces once, so a grid run as shards generates, per shard, the requests
// of the scenarios it holds jobs of. Dealing the jobs out modulo the
// shard count gave every shard every scenario: 5,370,000 generated
// requests on grid-paper's 2 shards, 751,800 on fleet-drain's 28.
func TestShardCutGeneratedRequests(t *testing.T) {
	for _, c := range []struct {
		name               string
		specs              []ScenarioSpec
		shardSize          int
		generated          int
		sizes              []int
		minShard, maxShard int
	}{
		{"grid-paper", paperSpecs(1, 1), 16, 4435000, []int{6, 22}, 8295000, 10500000},
		{"fleet-drain", paperSpecs(100, 4), 4, 352700, nil, 17500, 35000},
	} {
		plan, err := PlanGrid(c.specs)
		if err != nil {
			t.Fatal(err)
		}
		reqs := jobRequests(t, c.specs, plan)
		count := (len(plan.Jobs) + c.shardSize - 1) / c.shardSize
		cuts := plan.ShardCuts(count)
		generated, minShard, maxShard := 0, math.MaxInt, 0
		var sizes []int
		for k := range count {
			sum := 0
			for i := cuts[k]; i < cuts[k+1]; i++ {
				if i == cuts[k] || plan.Jobs[i].Scenario != plan.Jobs[i-1].Scenario {
					generated += reqs[i]
				}
				sum += reqs[i]
			}
			sizes = append(sizes, cuts[k+1]-cuts[k])
			minShard, maxShard = min(minShard, sum), max(maxShard, sum)
		}
		if generated != c.generated {
			t.Errorf("%s: %d shards generate %d requests, want %d (shard sizes %v)", c.name, count, generated, c.generated, sizes)
		}
		if c.sizes != nil && !slices.Equal(sizes, c.sizes) {
			t.Errorf("%s: shard sizes %v, want %v", c.name, sizes, c.sizes)
		}
		if minShard != c.minShard || maxShard != c.maxShard {
			t.Errorf("%s: shards replay %d–%d requests, want %d–%d", c.name, minShard, maxShard, c.minShard, c.maxShard)
		}
	}
}
