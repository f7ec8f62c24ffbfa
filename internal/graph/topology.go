package graph

import "fmt"

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
