// Package graph provides the static-network substrate of the reproduction:
// an undirected graph type, BFS rack distances and shortest paths, and
// generators for the fat-tree of the paper's evaluation and the star of
// its lower-bound construction.
//
// In the paper's model the static network G = (V, F) determines the routing
// cost ℓ_e of serving a request over the fixed infrastructure: the length of
// a shortest path between the endpoints. The Metric produced here is
// exactly that ℓ lookup.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on nodes 0..N-1. Parallel edges and
// self-loops are rejected. The zero value is an empty graph with no nodes;
// use New to create a graph with a fixed node count.
type Graph struct {
	n   int
	adj [][]int
	m   int
}

// New returns an empty graph on n nodes. It panics if n < 0.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: New with negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. It returns an error if an
// endpoint is out of range, u == v, or the edge already exists.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for generators whose
// inputs are validated up front.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return false
	}
	// Scan the smaller adjacency list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Degree returns the degree of node u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns the adjacency list of u. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(u int) []int { return g.adj[u] }

// Edges returns all edges as ordered pairs (u < v), sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == g.n
}
