package graph

import (
	"fmt"

	"obm/internal/stats"
)

// Topology bundles a static network with the subset of nodes that act as
// racks (top-of-rack switches): the endpoints between which reconfigurable
// matching edges may be installed. Non-rack nodes (aggregation and core
// switches) only participate in routing.
type Topology struct {
	g     *Graph
	racks []int
	name  string
}

// Graph returns the underlying static network.
func (t *Topology) Graph() *Graph { return t.g }

// NumRacks returns the number of racks.
func (t *Topology) NumRacks() int { return len(t.racks) }

// RackNode returns the graph node id of rack i.
func (t *Topology) RackNode(i int) int { return t.racks[i] }

// Name returns a human-readable topology name.
func (t *Topology) Name() string { return t.name }

// Metric is the rack-to-rack hop-count distance oracle ℓ of the paper's cost
// model, restricted to rack indices 0..NumRacks-1.
type Metric struct {
	n   int
	d   []int32
	max int
}

// Metric computes rack-to-rack distances with one BFS per rack over the full
// static network. It panics if any two racks are disconnected.
func (t *Topology) Metric() *Metric {
	nr := len(t.racks)
	m := &Metric{n: nr, d: make([]int32, nr*nr)}
	n := t.g.N()
	dist := make([]int32, n)
	queue := make([]int, 0, n)
	rackIndex := make(map[int]int, nr)
	for i, v := range t.racks {
		rackIndex[v] = i
	}
	for i, s := range t.racks {
		for j := range dist {
			dist[j] = -1
		}
		dist[s] = 0
		queue = queue[:0]
		queue = append(queue, s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range t.g.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		row := m.d[i*nr : (i+1)*nr]
		for v, ri := range rackIndex {
			if dist[v] < 0 {
				panic(fmt.Sprintf("graph: racks %d and %d disconnected", i, ri))
			}
			row[ri] = dist[v]
			if int(dist[v]) > m.max {
				m.max = int(dist[v])
			}
		}
	}
	return m
}

// N returns the number of racks covered by the metric.
func (m *Metric) N() int { return m.n }

// Dist returns the static-network hop count between racks u and v.
func (m *Metric) Dist(u, v int) int { return int(m.d[u*m.n+v]) }

// Max returns ℓmax, the largest rack-to-rack distance.
func (m *Metric) Max() int { return m.max }

// UniformMetric returns a metric with Dist(u,v) = d for all u != v, used by
// the uniform-case analysis (d = 1) and by star-topology shortcuts.
func UniformMetric(n, d int) *Metric {
	m := &Metric{n: n, d: make([]int32, n*n), max: d}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v {
				m.d[u*n+v] = int32(d)
			}
		}
	}
	if n <= 1 {
		m.max = 0
	}
	return m
}

// FatTree builds a standard k-ary fat-tree (Al-Fares et al.): k pods, each
// with k/2 edge (ToR) and k/2 aggregation switches, plus (k/2)² core
// switches. Racks are the edge switches: k²/2 in total. Rack distances are
// 2 within a pod and 4 across pods. k must be even and >= 2.
func FatTree(k int) *Topology {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("graph: FatTree requires even k >= 2, got %d", k))
	}
	half := k / 2
	numEdge := k * half
	numAgg := k * half
	numCore := half * half
	g := New(numEdge + numAgg + numCore)
	edgeID := func(pod, i int) int { return pod*half + i }
	aggID := func(pod, i int) int { return numEdge + pod*half + i }
	coreID := func(i, j int) int { return numEdge + numAgg + i*half + j }
	for pod := 0; pod < k; pod++ {
		// Full bipartite edge<->agg within the pod.
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				g.MustAddEdge(edgeID(pod, e), aggID(pod, a))
			}
		}
		// Aggregation switch a of each pod connects to core row a.
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				g.MustAddEdge(aggID(pod, a), coreID(a, j))
			}
		}
	}
	racks := make([]int, numEdge)
	for i := range racks {
		racks[i] = i
	}
	return &Topology{g: g, racks: racks, name: fmt.Sprintf("fat-tree(k=%d)", k)}
}

// FatTreeRacks builds the smallest fat-tree with at least n racks and keeps
// only the first n edge switches as racks (the paper's "fat-tree with 100
// nodes" / "50 nodes" setups). The remaining switches still route.
func FatTreeRacks(n int) *Topology {
	if n < 1 {
		panic("graph: FatTreeRacks requires n >= 1")
	}
	k := fatTreeArity(n)
	t := FatTree(k)
	t.racks = t.racks[:n]
	t.name = fmt.Sprintf("fat-tree(k=%d, racks=%d)", k, n)
	return t
}

// fatTreeArity returns the smallest even k whose k-ary fat-tree has at
// least n racks (k²/2 edge switches).
func fatTreeArity(n int) int {
	k := 2
	for k*k/2 < n {
		k += 2
	}
	return k
}

// FatTreeMetric returns FatTreeRacks(n).Metric() without building the
// graph. Rack i is edge switch i, which sits in pod i/(k/2), so two racks
// are 2 hops apart (edge, aggregation, edge) within a pod and 4 hops
// apart (up through an aggregation and a core switch, and down) across
// pods. The fill costs O(n²) with no search, against one BFS per rack
// over all 5k²/4 switches for Metric.
func FatTreeMetric(n int) *Metric {
	if n < 1 {
		panic("graph: FatTreeMetric requires n >= 1")
	}
	half := fatTreeArity(n) / 2
	m := &Metric{n: n, d: make([]int32, n*n)}
	for u := 0; u < n; u++ {
		row := m.d[u*n : (u+1)*n]
		for v := range row {
			row[v] = 4
		}
		lo := u / half * half
		for v := lo; v < min(lo+half, n); v++ {
			row[v] = 2
		}
		row[u] = 0
	}
	switch {
	case n > half:
		m.max = 4
	case n > 1:
		m.max = 2
	}
	return m
}

// LeafSpine builds a two-tier Clos: every leaf connects to every spine.
// Racks are the leaves; any two racks are at distance 2.
func LeafSpine(leaves, spines int) *Topology {
	if leaves < 1 || spines < 1 {
		panic("graph: LeafSpine requires leaves, spines >= 1")
	}
	g := New(leaves + spines)
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			g.MustAddEdge(l, leaves+s)
		}
	}
	racks := make([]int, leaves)
	for i := range racks {
		racks[i] = i
	}
	return &Topology{g: g, racks: racks, name: fmt.Sprintf("leaf-spine(%d,%d)", leaves, spines)}
}

// Star builds a star on n+1 nodes: node 0 is the hub, nodes 1..n are leaves.
// All n+1 nodes are racks. This is the topology of the paper's lower-bound
// construction (Lemma 1): requests {v0, vi} have ℓ = 1.
func Star(nLeaves int) *Topology {
	if nLeaves < 1 {
		panic("graph: Star requires nLeaves >= 1")
	}
	g := New(nLeaves + 1)
	for i := 1; i <= nLeaves; i++ {
		g.MustAddEdge(0, i)
	}
	racks := make([]int, nLeaves+1)
	for i := range racks {
		racks[i] = i
	}
	return &Topology{g: g, racks: racks, name: fmt.Sprintf("star(%d)", nLeaves)}
}

// Ring builds a cycle on n >= 3 nodes; all nodes are racks.
func Ring(n int) *Topology {
	if n < 3 {
		panic("graph: Ring requires n >= 3")
	}
	g := New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	return &Topology{g: g, racks: allNodes(n), name: fmt.Sprintf("ring(%d)", n)}
}

// Torus2D builds a rows×cols wrap-around grid; all nodes are racks.
// Both dimensions must be >= 3 to avoid parallel edges.
func Torus2D(rows, cols int) *Topology {
	if rows < 3 || cols < 3 {
		panic("graph: Torus2D requires rows, cols >= 3")
	}
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.MustAddEdge(id(r, c), id(r, (c+1)%cols))
			g.MustAddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return &Topology{g: g, racks: allNodes(rows * cols), name: fmt.Sprintf("torus(%dx%d)", rows, cols)}
}

// Hypercube builds a dim-dimensional hypercube on 2^dim nodes (all racks).
func Hypercube(dim int) *Topology {
	if dim < 1 || dim > 20 {
		panic("graph: Hypercube requires 1 <= dim <= 20")
	}
	n := 1 << dim
	g := New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << b)
			if u < v {
				g.MustAddEdge(u, v)
			}
		}
	}
	return &Topology{g: g, racks: allNodes(n), name: fmt.Sprintf("hypercube(%d)", dim)}
}

// Complete builds the complete graph on n nodes (all racks, all distances 1).
func Complete(n int) *Topology {
	if n < 1 {
		panic("graph: Complete requires n >= 1")
	}
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return &Topology{g: g, racks: allNodes(n), name: fmt.Sprintf("complete(%d)", n)}
}

// RandomRegular builds a random d-regular simple graph on n nodes using the
// pairing model with restarts, then verifies connectivity (restarting if
// needed). n*d must be even, d < n. All nodes are racks.
func RandomRegular(n, d int, seed uint64) *Topology {
	if n < 2 || d < 1 || d >= n || n*d%2 != 0 {
		panic(fmt.Sprintf("graph: RandomRegular invalid (n=%d, d=%d)", n, d))
	}
	r := stats.NewRand(seed)
	const maxAttempts = 1000
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g := tryPairing(n, d, r)
		if g != nil && g.Connected() {
			return &Topology{g: g, racks: allNodes(n), name: fmt.Sprintf("random-regular(%d,%d)", n, d)}
		}
	}
	panic("graph: RandomRegular failed to generate after many attempts")
}

func tryPairing(n, d int, r *stats.Rand) *Graph {
	stubs := make([]int, 0, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, u)
		}
	}
	r.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := New(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			return nil
		}
		g.MustAddEdge(u, v)
	}
	return g
}

func allNodes(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = i
	}
	return r
}

// AverageDistance returns the mean pairwise rack distance of the metric,
// a convenient summary statistic for topology comparisons.
func (m *Metric) AverageDistance() float64 {
	if m.n < 2 {
		return 0
	}
	var sum float64
	for u := 0; u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			sum += float64(m.Dist(u, v))
		}
	}
	pairs := float64(m.n) * float64(m.n-1) / 2
	return sum / pairs
}

// Histogram returns counts of pairwise distances 0..Max (unordered pairs).
func (m *Metric) Histogram() []int {
	h := make([]int, m.max+1)
	for u := 0; u < m.n; u++ {
		for v := u + 1; v < m.n; v++ {
			h[m.Dist(u, v)]++
		}
	}
	return h
}
