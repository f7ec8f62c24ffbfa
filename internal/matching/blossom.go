package matching

// Maximum-weight matching in general graphs via Edmonds' blossom algorithm
// with dual-variable maintenance, following Galil's exposition ("Efficient
// algorithms for finding maximum matching in graphs", ACM Computing Surveys
// 1986) in the O(n³) formulation popularized by Jan van Rantwijk's
// implementation (the same algorithm behind NetworkX's
// max_weight_matching, which the paper's SO-BMA baseline used).
//
// The implementation mirrors the reference structure: vertices are
// 0..n-1, blossoms are n..2n-1, edge endpoints p encode edge p/2 and side
// p%2, and each stage augments the matching by one edge or proves optimality
// via the dual problem.

// WeightedEdge is an undirected edge with a weight.
type WeightedEdge struct {
	U, V int
	W    float64
}

// MaxWeightMatching computes a matching of maximum total weight on the
// graph with n vertices and the given edges. If maxCardinality is true,
// it returns the maximum-weight matching among matchings of maximum
// cardinality. The result maps each vertex to its partner, or -1.
//
// Edges with non-positive weight are permitted; with maxCardinality=false
// they never improve the matching and are effectively ignored by
// optimality. Duplicate edges and self-loops must not be supplied.
func MaxWeightMatching(n int, edges []WeightedEdge, maxCardinality bool) []int {
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	if len(edges) == 0 || n == 0 {
		return mate
	}
	for _, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 || e.U >= n || e.V >= n {
			panic("matching: MaxWeightMatching invalid edge")
		}
	}
	g := newBlossomSolver(n, edges, maxCardinality)
	g.solve()
	// g.mate[v] is a remote endpoint; convert to vertex ids.
	for v := 0; v < n; v++ {
		if g.mate[v] >= 0 {
			mate[v] = g.endpoint[g.mate[v]]
		}
	}
	return mate
}

type blossomSolver struct {
	nvertex        int
	edges          []WeightedEdge
	maxCardinality bool

	endpoint  []int   // endpoint[p]: vertex at endpoint p
	neighbend [][]int // neighbend[v]: remote endpoints of edges incident to v

	mate     []int // mate[v]: remote endpoint of matched edge at v, or -1
	label    []int // label[b]: 0 free, 1 S, 2 T (entries for vertices and blossoms)
	labelend []int // labelend[b]: endpoint through which b got its label, or -1

	inblossom        []int   // inblossom[v]: top-level blossom containing v
	blossomparent    []int   // immediate parent blossom, or -1
	blossomchilds    [][]int // sub-blossom list (cyclic, starting at base)
	blossombase      []int   // base vertex of each blossom
	blossomendps     [][]int // endpoints connecting consecutive sub-blossoms
	bestedge         []int   // least-slack edge per vertex/blossom, or -1
	blossombestedges [][]int // least-slack edges of an S-blossom to other S-blossoms
	unusedblossoms   []int
	dualvar          []float64 // duals: vertices then blossoms
	allowedge        []bool    // edge has zero slack (usable in alternating trees)
	queue            []int
}

func newBlossomSolver(n int, edges []WeightedEdge, maxCardinality bool) *blossomSolver {
	s := &blossomSolver{nvertex: n, edges: edges, maxCardinality: maxCardinality}
	nedge := len(edges)
	var maxweight float64
	for _, e := range edges {
		if e.W > maxweight {
			maxweight = e.W
		}
	}
	s.endpoint = make([]int, 2*nedge)
	for p := range s.endpoint {
		if p%2 == 0 {
			s.endpoint[p] = edges[p/2].U
		} else {
			s.endpoint[p] = edges[p/2].V
		}
	}
	s.neighbend = make([][]int, n)
	for k, e := range edges {
		s.neighbend[e.U] = append(s.neighbend[e.U], 2*k+1)
		s.neighbend[e.V] = append(s.neighbend[e.V], 2*k)
	}
	s.mate = make([]int, n)
	for i := range s.mate {
		s.mate[i] = -1
	}
	s.label = make([]int, 2*n)
	s.labelend = make([]int, 2*n)
	for i := range s.labelend {
		s.labelend[i] = -1
	}
	s.inblossom = make([]int, n)
	for i := range s.inblossom {
		s.inblossom[i] = i
	}
	s.blossomparent = make([]int, 2*n)
	for i := range s.blossomparent {
		s.blossomparent[i] = -1
	}
	s.blossomchilds = make([][]int, 2*n)
	s.blossombase = make([]int, 2*n)
	for i := 0; i < n; i++ {
		s.blossombase[i] = i
	}
	for i := n; i < 2*n; i++ {
		s.blossombase[i] = -1
	}
	s.blossomendps = make([][]int, 2*n)
	s.bestedge = make([]int, 2*n)
	for i := range s.bestedge {
		s.bestedge[i] = -1
	}
	s.blossombestedges = make([][]int, 2*n)
	s.unusedblossoms = make([]int, 0, n)
	for i := n; i < 2*n; i++ {
		s.unusedblossoms = append(s.unusedblossoms, i)
	}
	s.dualvar = make([]float64, 2*n)
	for i := 0; i < n; i++ {
		s.dualvar[i] = maxweight
	}
	s.allowedge = make([]bool, nedge)
	return s
}

// slack returns the dual slack of edge k (non-negative outside the tree).
func (s *blossomSolver) slack(k int) float64 {
	e := s.edges[k]
	return s.dualvar[e.U] + s.dualvar[e.V] - 2*e.W
}

// blossomLeaves appends all vertices contained in blossom b to out.
func (s *blossomSolver) blossomLeaves(b int, out []int) []int {
	if b < s.nvertex {
		return append(out, b)
	}
	for _, t := range s.blossomchilds[b] {
		out = s.blossomLeaves(t, out)
	}
	return out
}

// assignLabel gives vertex w's top-level blossom label t (1=S, 2=T) reached
// through endpoint p.
func (s *blossomSolver) assignLabel(w, t, p int) {
	b := s.inblossom[w]
	s.label[w] = t
	s.label[b] = t
	s.labelend[w] = p
	s.labelend[b] = p
	s.bestedge[w] = -1
	s.bestedge[b] = -1
	if t == 1 {
		s.queue = s.blossomLeaves(b, s.queue)
	} else {
		base := s.blossombase[b]
		s.assignLabel(s.endpoint[s.mate[base]], 1, s.mate[base]^1)
	}
}

// scanBlossom traces back from vertices v and w to find the closest common
// ancestor blossom of the alternating trees, or -1 if the trees are rooted
// at different free vertices (in which case an augmenting path exists).
func (s *blossomSolver) scanBlossom(v, w int) int {
	path := []int{}
	base := -1
	for v != -1 || w != -1 {
		b := s.inblossom[v]
		if s.label[b]&4 != 0 {
			base = s.blossombase[b]
			break
		}
		path = append(path, b)
		s.label[b] = 5
		if s.labelend[b] == -1 {
			v = -1
		} else {
			v = s.endpoint[s.labelend[b]]
			b = s.inblossom[v]
			v = s.endpoint[s.labelend[b]]
		}
		if w != -1 {
			v, w = w, v
		}
	}
	for _, b := range path {
		s.label[b] = 1
	}
	return base
}

// addBlossom creates a new blossom with the given base, through edge k,
// merging the top-level blossoms along the two tree paths.
func (s *blossomSolver) addBlossom(base, k int) {
	v, w := s.edges[k].U, s.edges[k].V
	bb := s.inblossom[base]
	bv := s.inblossom[v]
	bw := s.inblossom[w]
	b := s.unusedblossoms[len(s.unusedblossoms)-1]
	s.unusedblossoms = s.unusedblossoms[:len(s.unusedblossoms)-1]
	s.blossombase[b] = base
	s.blossomparent[b] = -1
	s.blossomparent[bb] = b
	path := []int{}
	endps := []int{}
	for bv != bb {
		s.blossomparent[bv] = b
		path = append(path, bv)
		endps = append(endps, s.labelend[bv])
		v = s.endpoint[s.labelend[bv]]
		bv = s.inblossom[v]
	}
	path = append(path, bb)
	reverseInts(path)
	reverseInts(endps)
	endps = append(endps, 2*k)
	for bw != bb {
		s.blossomparent[bw] = b
		path = append(path, bw)
		endps = append(endps, s.labelend[bw]^1)
		w = s.endpoint[s.labelend[bw]]
		bw = s.inblossom[w]
	}
	s.label[b] = 1
	s.labelend[b] = s.labelend[bb]
	s.dualvar[b] = 0
	s.blossomchilds[b] = path
	s.blossomendps[b] = endps
	leaves := s.blossomLeaves(b, nil)
	for _, lv := range leaves {
		if s.label[s.inblossom[lv]] == 2 {
			s.queue = append(s.queue, lv)
		}
		s.inblossom[lv] = b
	}
	// Compute the new blossom's best edges to other S-blossoms.
	bestedgeto := make([]int, 2*s.nvertex)
	for i := range bestedgeto {
		bestedgeto[i] = -1
	}
	for _, child := range path {
		var nblists [][]int
		if s.blossombestedges[child] == nil {
			for _, lv := range s.blossomLeaves(child, nil) {
				list := make([]int, 0, len(s.neighbend[lv]))
				for _, p := range s.neighbend[lv] {
					list = append(list, p/2)
				}
				nblists = append(nblists, list)
			}
		} else {
			nblists = [][]int{s.blossombestedges[child]}
		}
		for _, nblist := range nblists {
			for _, ek := range nblist {
				j := s.edges[ek].V
				if s.inblossom[j] == b {
					j = s.edges[ek].U
				}
				bj := s.inblossom[j]
				if bj != b && s.label[bj] == 1 &&
					(bestedgeto[bj] == -1 || s.slack(ek) < s.slack(bestedgeto[bj])) {
					bestedgeto[bj] = ek
				}
			}
		}
		s.blossombestedges[child] = nil
		s.bestedge[child] = -1
	}
	best := make([]int, 0)
	for _, ek := range bestedgeto {
		if ek != -1 {
			best = append(best, ek)
		}
	}
	s.blossombestedges[b] = best
	s.bestedge[b] = -1
	for _, ek := range best {
		if s.bestedge[b] == -1 || s.slack(ek) < s.slack(s.bestedge[b]) {
			s.bestedge[b] = ek
		}
	}
}

// expandBlossom dissolves blossom b, promoting its children to top level.
// During a stage (endstage=false) the sub-blossoms of a T-blossom are
// relabeled to preserve the alternating-tree structure.
func (s *blossomSolver) expandBlossom(b int, endstage bool) {
	for _, child := range s.blossomchilds[b] {
		s.blossomparent[child] = -1
		if child < s.nvertex {
			s.inblossom[child] = child
		} else if endstage && s.dualvar[child] == 0 {
			s.expandBlossom(child, endstage)
		} else {
			for _, lv := range s.blossomLeaves(child, nil) {
				s.inblossom[lv] = child
			}
		}
	}
	if !endstage && s.label[b] == 2 {
		entrychild := s.inblossom[s.endpoint[s.labelend[b]^1]]
		j := indexOf(s.blossomchilds[b], entrychild)
		var jstep, endptrick int
		if j&1 != 0 {
			j -= len(s.blossomchilds[b])
			jstep = 1
			endptrick = 0
		} else {
			jstep = -1
			endptrick = 1
		}
		p := s.labelend[b]
		for j != 0 {
			s.label[s.endpoint[p^1]] = 0
			s.label[s.endpoint[at(s.blossomendps[b], j-endptrick)^endptrick^1]] = 0
			s.assignLabel(s.endpoint[p^1], 2, p)
			s.allowedge[at(s.blossomendps[b], j-endptrick)/2] = true
			j += jstep
			p = at(s.blossomendps[b], j-endptrick) ^ endptrick
			s.allowedge[p/2] = true
			j += jstep
		}
		bv := at(s.blossomchilds[b], j)
		s.label[s.endpoint[p^1]] = 2
		s.label[bv] = 2
		s.labelend[s.endpoint[p^1]] = p
		s.labelend[bv] = p
		s.bestedge[bv] = -1
		j += jstep
		for at(s.blossomchilds[b], j) != entrychild {
			bv := at(s.blossomchilds[b], j)
			if s.label[bv] == 1 {
				j += jstep
				continue
			}
			var reached = -1
			for _, lv := range s.blossomLeaves(bv, nil) {
				if s.label[lv] != 0 {
					reached = lv
					break
				}
			}
			if reached != -1 {
				s.label[reached] = 0
				s.label[s.endpoint[s.mate[s.blossombase[bv]]]] = 0
				s.assignLabel(reached, 2, s.labelend[reached])
			}
			j += jstep
		}
	}
	s.label[b] = -1
	s.labelend[b] = -1
	s.blossomchilds[b] = nil
	s.blossomendps[b] = nil
	s.blossombase[b] = -1
	s.blossombestedges[b] = nil
	s.bestedge[b] = -1
	s.unusedblossoms = append(s.unusedblossoms, b)
}

// augmentBlossom swaps matched and unmatched edges inside blossom b so that
// vertex v becomes the new base.
func (s *blossomSolver) augmentBlossom(b, v int) {
	t := v
	for s.blossomparent[t] != b {
		t = s.blossomparent[t]
	}
	if t >= s.nvertex {
		s.augmentBlossom(t, v)
	}
	i := indexOf(s.blossomchilds[b], t)
	j := i
	var jstep, endptrick int
	if i&1 != 0 {
		j -= len(s.blossomchilds[b])
		jstep = 1
		endptrick = 0
	} else {
		jstep = -1
		endptrick = 1
	}
	for j != 0 {
		j += jstep
		t := at(s.blossomchilds[b], j)
		p := at(s.blossomendps[b], j-endptrick) ^ endptrick
		if t >= s.nvertex {
			s.augmentBlossom(t, s.endpoint[p])
		}
		j += jstep
		t = at(s.blossomchilds[b], j)
		if t >= s.nvertex {
			s.augmentBlossom(t, s.endpoint[p^1])
		}
		s.mate[s.endpoint[p]] = p ^ 1
		s.mate[s.endpoint[p^1]] = p
	}
	s.blossomchilds[b] = append(s.blossomchilds[b][i:], s.blossomchilds[b][:i]...)
	s.blossomendps[b] = append(s.blossomendps[b][i:], s.blossomendps[b][:i]...)
	s.blossombase[b] = s.blossombase[s.blossomchilds[b][0]]
}

// augmentMatching augments along the path through edge k and both trees.
func (s *blossomSolver) augmentMatching(k int) {
	for side := 0; side < 2; side++ {
		var v, p int
		if side == 0 {
			v, p = s.edges[k].U, 2*k+1
		} else {
			v, p = s.edges[k].V, 2*k
		}
		sv := v
		sp := p
		for {
			bs := s.inblossom[sv]
			if bs >= s.nvertex {
				s.augmentBlossom(bs, sv)
			}
			s.mate[sv] = sp
			if s.labelend[bs] == -1 {
				break
			}
			t := s.endpoint[s.labelend[bs]]
			bt := s.inblossom[t]
			sv = s.endpoint[s.labelend[bt]]
			j := s.endpoint[s.labelend[bt]^1]
			if bt >= s.nvertex {
				s.augmentBlossom(bt, j)
			}
			s.mate[j] = s.labelend[bt]
			sp = s.labelend[bt] ^ 1
		}
	}
}

func (s *blossomSolver) solve() {
	n := s.nvertex
	for stage := 0; stage < n; stage++ {
		for i := range s.label {
			s.label[i] = 0
		}
		for i := range s.bestedge {
			s.bestedge[i] = -1
		}
		for i := n; i < 2*n; i++ {
			s.blossombestedges[i] = nil
		}
		for i := range s.allowedge {
			s.allowedge[i] = false
		}
		s.queue = s.queue[:0]
		for v := 0; v < n; v++ {
			if s.mate[v] == -1 && s.label[s.inblossom[v]] == 0 {
				s.assignLabel(v, 1, -1)
			}
		}
		augmented := false
		for {
			for len(s.queue) > 0 && !augmented {
				v := s.queue[len(s.queue)-1]
				s.queue = s.queue[:len(s.queue)-1]
				for _, p := range s.neighbend[v] {
					k := p / 2
					w := s.endpoint[p]
					if s.inblossom[v] == s.inblossom[w] {
						continue
					}
					var kslack float64
					if !s.allowedge[k] {
						kslack = s.slack(k)
						if kslack <= 0 {
							s.allowedge[k] = true
						}
					}
					if s.allowedge[k] {
						if s.label[s.inblossom[w]] == 0 {
							s.assignLabel(w, 2, p^1)
						} else if s.label[s.inblossom[w]] == 1 {
							base := s.scanBlossom(v, w)
							if base >= 0 {
								s.addBlossom(base, k)
							} else {
								s.augmentMatching(k)
								augmented = true
								break
							}
						} else if s.label[w] == 0 {
							s.label[w] = 2
							s.labelend[w] = p ^ 1
						}
					} else if s.label[s.inblossom[w]] == 1 {
						b := s.inblossom[v]
						if s.bestedge[b] == -1 || kslack < s.slack(s.bestedge[b]) {
							s.bestedge[b] = k
						}
					} else if s.label[w] == 0 {
						if s.bestedge[w] == -1 || kslack < s.slack(s.bestedge[w]) {
							s.bestedge[w] = k
						}
					}
				}
			}
			if augmented {
				break
			}
			// No augmenting path; adjust duals.
			deltatype := -1
			var delta float64
			deltaedge := -1
			deltablossom := -1
			if !s.maxCardinality {
				deltatype = 1
				delta = minFloat(s.dualvar[:n])
			}
			for v := 0; v < n; v++ {
				if s.label[s.inblossom[v]] == 0 && s.bestedge[v] != -1 {
					d := s.slack(s.bestedge[v])
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 2
						deltaedge = s.bestedge[v]
					}
				}
			}
			for b := 0; b < 2*n; b++ {
				if s.blossomparent[b] == -1 && s.label[b] == 1 && s.bestedge[b] != -1 {
					d := s.slack(s.bestedge[b]) / 2
					if deltatype == -1 || d < delta {
						delta = d
						deltatype = 3
						deltaedge = s.bestedge[b]
					}
				}
			}
			for b := n; b < 2*n; b++ {
				if s.blossombase[b] >= 0 && s.blossomparent[b] == -1 && s.label[b] == 2 &&
					(deltatype == -1 || s.dualvar[b] < delta) {
					delta = s.dualvar[b]
					deltatype = 4
					deltablossom = b
				}
			}
			if deltatype == -1 {
				// Max-cardinality mode with no improving move: finish with a
				// final non-negative vertex-dual update.
				deltatype = 1
				delta = minFloat(s.dualvar[:n])
				if delta < 0 {
					delta = 0
				}
			}
			for v := 0; v < n; v++ {
				switch s.label[s.inblossom[v]] {
				case 1:
					s.dualvar[v] -= delta
				case 2:
					s.dualvar[v] += delta
				}
			}
			for b := n; b < 2*n; b++ {
				if s.blossombase[b] >= 0 && s.blossomparent[b] == -1 {
					switch s.label[b] {
					case 1:
						s.dualvar[b] += delta
					case 2:
						s.dualvar[b] -= delta
					}
				}
			}
			switch deltatype {
			case 1:
				// Optimum reached.
			case 2:
				s.allowedge[deltaedge] = true
				i := s.edges[deltaedge].U
				if s.label[s.inblossom[i]] == 0 {
					i = s.edges[deltaedge].V
				}
				s.queue = append(s.queue, i)
			case 3:
				s.allowedge[deltaedge] = true
				s.queue = append(s.queue, s.edges[deltaedge].U)
			case 4:
				s.expandBlossom(deltablossom, false)
			}
			if deltatype == 1 {
				break
			}
		}
		if !augmented {
			break
		}
		// End of stage: expand all S-blossoms with zero dual.
		for b := n; b < 2*n; b++ {
			if s.blossomparent[b] == -1 && s.blossombase[b] >= 0 &&
				s.label[b] == 1 && s.dualvar[b] == 0 {
				s.expandBlossom(b, true)
			}
		}
	}
}

func reverseInts(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	panic("matching: indexOf not found")
}

// at indexes xs allowing Python-style negative indices.
func at(xs []int, i int) int {
	if i < 0 {
		i += len(xs)
	}
	return xs[i]
}

func minFloat(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}
