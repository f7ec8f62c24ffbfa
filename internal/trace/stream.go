package trace

import (
	"fmt"

	"obm/internal/stats"
)

// Stream is a resumable synthetic request generator: requests are produced
// in caller-sized batches instead of materialized up front, so a stream of
// any length occupies O(1) memory beyond its generator state.
//
// Streams obey the seed-reproducibility contract: a stream is a pure
// function of its parameters (including the seed), Reset rewinds it to the
// beginning, and the concatenation of Next results is independent of the
// batch sizes used to read it. Draining a stream therefore yields exactly
// the trace the materialized generator of the same family and parameters
// returns: the paper-era constructors (FacebookStyle, Uniform,
// MicrosoftStyle, PhaseShift, Permutation) are all implemented as Collect
// over their stream, and the scenario families (diurnal, hotspot,
// tenant-mix in scenario_streams.go) are streams from the start. The
// contract is what makes replays resumable: a grid job interrupted and
// re-run from its (family, parameters, seed) triple reproduces the same
// requests, so persisted results stay valid (see internal/report).
//
// Constructors check the parameters and allocate O(racks) at most: the
// tables over the rack pairs (a Zipf or alias table, a permutation of the
// pairs) and the setup draws that fill them come on the first Reset or
// Next.
// Constructing a stream is therefore the cheap way to validate its
// parameters, and a job that constructs, wraps and replays a stream
// builds its tables once (see NewSource). Streams with tables also fork
// (see Forker): a fork shares the tables and the state after the setup
// draws, read-only, and owns its RNG, cursor and working set, so the
// jobs of one scenario set it up once between them.
//
// Streams are not safe for concurrent use; replays that run in parallel
// each read their own stream: one built from the same parameters, or a
// fork of one.
type Stream interface {
	// Name identifies the workload (same convention as Trace.Name).
	Name() string
	// NumRacks returns the rack universe size.
	NumRacks() int
	// Len returns the total number of requests the stream produces over
	// one pass, known a priori for every generator in this package.
	Len() int
	// Reset rewinds the stream to its beginning; the subsequent request
	// sequence is bit-identical to the one after construction.
	Reset()
	// Next fills buf with the next requests and returns how many were
	// produced; 0 means the stream is exhausted. The first Next of a
	// fresh stream sets it up as Reset does.
	Next(buf []Request) int
}

// Forker is implemented by streams whose setup is worth sharing: the
// tables over the rack pairs and the state after the setup draws, all
// pure functions of the stream's parameters. Fork returns a new stream at
// request 0 of the receiver's sequence. The fork shares what the
// receiver's setup computed — read-only from then on — and owns its
// mutable state: the RNG, the cursor and, where the sequence rewrites
// one, its working set. So a fork costs a copy of that mutable state,
// not a rebuild of the tables, and its sequence is bit-identical to a
// fresh stream's.
//
// Fork never reads the receiver's cursor, so a fork of an advanced
// stream still starts at request 0, and it never writes the receiver:
// once the receiver has been Reset (or read) once, Fork is safe to call
// from many goroutines. A fork of a receiver that was never set up
// builds its own tables on first use.
type Forker interface {
	Fork() Stream
}

// Collect materializes a stream into a Trace, resetting it first. The
// result is bit-identical for any stream state and independent of the
// internal batch size.
func Collect(s Stream) *Trace {
	s.Reset()
	reqs := make([]Request, 0, s.Len())
	var buf [4096]Request
	for {
		n := s.Next(buf[:])
		if n == 0 {
			break
		}
		reqs = append(reqs, buf[:n]...)
	}
	return &Trace{Name: s.Name(), NumRacks: s.NumRacks(), Reqs: reqs}
}

// pairUV is a generator-internal unordered pair.
type pairUV struct{ u, v int }

// facebookStream is the resumable form of the FacebookStyle generator. The
// per-request loop body is exactly the materialized generator's, so the two
// produce identical sequences for identical parameters.
type facebookStream struct {
	p        FacebookParams
	name     string
	setup    *facebookSetup // nil until the first Reset or Next; shared by forks
	r        *stats.Rand
	ws       []pairUV
	burst    stats.BurstChain
	prev     pairUV
	havePrev bool
	pos      int
}

// facebookSetup is what a Facebook stream's setup computes from its
// parameters, read-only once built: the Zipf table over the rack pairs,
// the random permutation spreading its ranks over the fabric, and the
// state the setup draws leave behind (working set, burst chain, RNG).
type facebookSetup struct {
	zipf  *stats.Zipf
	perm  []int
	idx   *PairIndex
	ws    []pairUV
	burst stats.BurstChain
	r     stats.Rand // the generator after the setup draws
}

// newFacebookSetup makes the materialized generator's setup draws in its
// order: permutation, working-set fill, burst-chain initial state. The
// Zipf table draws nothing from the RNG.
func newFacebookSetup(p FacebookParams) *facebookSetup {
	r := stats.NewRand(p.Seed)
	st := &facebookSetup{
		zipf:  stats.NewZipf(NumPairs(p.Racks), p.ZipfSkew),
		perm:  r.Perm(NumPairs(p.Racks)),
		idx:   SharedPairIndex(p.Racks),
		ws:    make([]pairUV, p.WorkingSet),
		burst: *stats.NewBurstChain(p.BurstProb, p.BurstLen),
	}
	for i := range st.ws {
		st.ws[i] = st.drawGlobal(r)
	}
	st.burst.Reset(r)
	st.r = *r
	return st
}

// drawGlobal samples the global Zipf-over-pairs distribution (spread over
// the fabric by the random permutation).
func (st *facebookSetup) drawGlobal(r *stats.Rand) pairUV {
	u, v := st.idx.Endpoints(PairID(st.perm[st.zipf.Sample(r)]))
	return pairUV{u, v}
}

// NewFacebookStream returns the streaming form of FacebookStyle(p).
func NewFacebookStream(p FacebookParams) (Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	name := p.Name
	if name == "" {
		name = fmt.Sprintf("facebook-style(n=%d,s=%.2f)", p.Racks, p.ZipfSkew)
	}
	return &facebookStream{p: p, name: name, r: stats.NewRand(p.Seed)}, nil
}

func (s *facebookStream) Name() string  { return s.name }
func (s *facebookStream) NumRacks() int { return s.p.Racks }
func (s *facebookStream) Len() int      { return s.p.Requests }

// Reset restores the state after the setup draws. The first Reset makes
// the setup; later ones copy its working set and RNG state back, since
// churn rewrites the working set as the stream is read.
func (s *facebookStream) Reset() {
	if s.setup == nil {
		s.setup = newFacebookSetup(s.p)
	}
	st := s.setup
	if s.ws == nil {
		s.ws = make([]pairUV, len(st.ws))
	}
	copy(s.ws, st.ws)
	*s.r = st.r
	s.burst = st.burst
	s.prev = pairUV{}
	s.havePrev = false
	s.pos = 0
}

// Fork returns a stream at request 0 sharing the receiver's setup.
func (s *facebookStream) Fork() Stream {
	f := &facebookStream{p: s.p, name: s.name, setup: s.setup, r: stats.NewRand(s.p.Seed)}
	if f.setup != nil {
		f.Reset()
	}
	return f
}

func (s *facebookStream) Next(buf []Request) int {
	if s.setup == nil {
		s.Reset()
	}
	st := s.setup
	n := 0
	for n < len(buf) && s.pos < s.p.Requests {
		var cur pairUV
		if s.burst.Step(s.r) && s.havePrev {
			cur = s.prev
		} else if s.r.Bool(s.p.WorkingSetProb) {
			cur = s.ws[s.r.Intn(len(s.ws))]
		} else {
			cur = st.drawGlobal(s.r)
		}
		buf[n] = Request{Src: int32(cur.u), Dst: int32(cur.v)}
		s.prev, s.havePrev = cur, true
		if s.r.Bool(s.p.ChurnProb) {
			g := st.drawGlobal(s.r) // before the slot: the generator's draw order
			s.ws[s.r.Intn(len(s.ws))] = g
		}
		s.pos++
		n++
	}
	return n
}

// uniformStream is the resumable form of Uniform.
type uniformStream struct {
	n, count int
	seed     uint64
	r        *stats.Rand
	pos      int
}

// NewUniformStream returns the streaming form of Uniform(n, count, seed).
func NewUniformStream(n, count int, seed uint64) (Stream, error) {
	if n < 2 {
		return nil, fmt.Errorf("trace: NewUniformStream requires n >= 2, got %d", n)
	}
	if count < 0 {
		return nil, fmt.Errorf("trace: NewUniformStream requires count >= 0, got %d", count)
	}
	return &uniformStream{n: n, count: count, seed: seed, r: stats.NewRand(seed)}, nil
}

func (s *uniformStream) Name() string  { return fmt.Sprintf("uniform(n=%d)", s.n) }
func (s *uniformStream) NumRacks() int { return s.n }
func (s *uniformStream) Len() int      { return s.count }
func (s *uniformStream) Reset()        { s.r.Seed(s.seed); s.pos = 0 }

func (s *uniformStream) Next(buf []Request) int {
	n := 0
	for n < len(buf) && s.pos < s.count {
		u := s.r.Intn(s.n)
		v := s.r.Intn(s.n)
		for u == v {
			v = s.r.Intn(s.n)
		}
		buf[n] = Request{Src: int32(u), Dst: int32(v)}
		s.pos++
		n++
	}
	return n
}

// iidStream samples a traffic matrix's pair distribution i.i.d. — the
// resumable form of TrafficMatrix.SampleIID. The first Reset or Next
// builds the matrix and its alias table, which draw nothing from the
// stream's RNG; only the per-request sampling consumes its random state.
type iidStream struct {
	name   string
	n      int
	count  int
	seed   uint64
	matrix func() *TrafficMatrix // builds the distribution; nil once alias is built
	pairs  []PairKey
	alias  *stats.Alias
	r      *stats.Rand
	pos    int
}

// NewIIDStream returns the streaming form of m.SampleIID(count, seed).
// name overrides the trace name ("" keeps SampleIID's default).
func NewIIDStream(m *TrafficMatrix, count int, seed uint64, name string) (Stream, error) {
	return newIIDStream(m.N(), count, seed, name, func() *TrafficMatrix { return m })
}

// newIIDStream checks the parameters of an i.i.d. stream over n racks
// whose pair distribution matrix builds on first use.
func newIIDStream(n, count int, seed uint64, name string, matrix func() *TrafficMatrix) (Stream, error) {
	if count < 0 {
		return nil, fmt.Errorf("trace: NewIIDStream requires count >= 0, got %d", count)
	}
	if name == "" {
		name = fmt.Sprintf("iid-matrix(n=%d)", n)
	}
	return &iidStream{name: name, n: n, count: count, seed: seed, matrix: matrix, r: stats.NewRand(seed)}, nil
}

// NewMicrosoftStream returns the streaming form of MicrosoftStyle(n, count,
// seed): i.i.d. samples from the skewed synthetic traffic matrix.
func NewMicrosoftStream(n, count int, seed uint64) (Stream, error) {
	if n < 2 {
		return nil, fmt.Errorf("trace: NewMicrosoftStream requires n >= 2 racks, got %d", n)
	}
	return newIIDStream(n, count, seed+1, "microsoft", func() *TrafficMatrix {
		return SkewedMatrix(n, 1.0, n/2, 8, seed)
	})
}

func (s *iidStream) Name() string  { return s.name }
func (s *iidStream) NumRacks() int { return s.n }
func (s *iidStream) Len() int      { return s.count }

func (s *iidStream) Reset() {
	if s.alias == nil {
		pairs, weights := s.matrix().PairWeights()
		s.pairs, s.alias, s.matrix = pairs, stats.NewAlias(weights), nil
	}
	s.r.Seed(s.seed)
	s.pos = 0
}

// Fork returns a stream at request 0 sharing the receiver's pairs and
// alias table.
func (s *iidStream) Fork() Stream {
	return &iidStream{
		name: s.name, n: s.n, count: s.count, seed: s.seed,
		matrix: s.matrix, pairs: s.pairs, alias: s.alias, r: stats.NewRand(s.seed),
	}
}

func (s *iidStream) Next(buf []Request) int {
	if s.alias == nil {
		s.Reset()
	}
	n := 0
	for n < len(buf) && s.pos < s.count {
		u, v := s.pairs[s.alias.Sample(s.r)].Endpoints()
		buf[n] = Request{Src: int32(u), Dst: int32(v)}
		s.pos++
		n++
	}
	return n
}

// phaseShiftStream is the resumable form of PhaseShift. Each phase has its
// own seeds (derived exactly as the materialized generator derives them),
// so entering a phase rebuilds that phase's matrix and sampler without
// replaying the earlier phases.
type phaseShiftStream struct {
	n, count, phases int
	seed             uint64
	per              int // requests per phase (last phase takes the remainder)

	ph       int    // current phase
	phasePos int    // requests emitted within the current phase
	phase    Stream // nil until the first Reset or Next
	pos      int
}

// NewPhaseShiftStream returns the streaming form of PhaseShift(n, count,
// phases, seed).
func NewPhaseShiftStream(n, count, phases int, seed uint64) (Stream, error) {
	if n < 2 {
		return nil, fmt.Errorf("trace: PhaseShift requires n >= 2")
	}
	if count < phases || phases < 1 {
		return nil, fmt.Errorf("trace: PhaseShift requires count >= phases >= 1")
	}
	return &phaseShiftStream{n: n, count: count, phases: phases, seed: seed, per: count / phases}, nil
}

func (s *phaseShiftStream) Name() string {
	return fmt.Sprintf("phase-shift(n=%d,p=%d)", s.n, s.phases)
}
func (s *phaseShiftStream) NumRacks() int { return s.n }
func (s *phaseShiftStream) Len() int      { return s.count }

func (s *phaseShiftStream) Reset() {
	s.pos = 0
	s.enterPhase(0)
}

// phaseLen returns the request count of phase ph.
func (s *phaseShiftStream) phaseLen(ph int) int {
	if ph == s.phases-1 {
		return s.count - s.per*(s.phases-1)
	}
	return s.per
}

// enterPhase builds phase ph's matrix and sampler with the same derived
// seeds as the materialized generator.
func (s *phaseShiftStream) enterPhase(ph int) {
	s.ph = ph
	s.phasePos = 0
	m := SkewedMatrix(s.n, 1.2, s.n/2, 10, s.seed+uint64(ph)*0x9e37)
	phase, err := NewIIDStream(m, s.phaseLen(ph), s.seed+uint64(ph)*0x79b9+1, "")
	if err != nil {
		panic(err) // unreachable: phaseLen >= 0 by construction
	}
	s.phase = phase
}

func (s *phaseShiftStream) Next(buf []Request) int {
	if s.phase == nil {
		s.Reset()
	}
	n := 0
	for n < len(buf) && s.pos < s.count {
		if s.phasePos == s.phaseLen(s.ph) {
			s.enterPhase(s.ph + 1)
		}
		k := s.phase.Next(buf[n : n+min(len(buf)-n, s.phaseLen(s.ph)-s.phasePos)])
		s.phasePos += k
		s.pos += k
		n += k
	}
	return n
}

// permutationStream is the resumable form of Permutation: the request at
// position i is a pure function of the fixed random matching, so Next does
// no random draws at all.
type permutationStream struct {
	n, count int
	perm     []int
	pos      int
}

// NewPermutationStream returns the streaming form of Permutation(n, count,
// seed). n must be even.
func NewPermutationStream(n, count int, seed uint64) (Stream, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("trace: Permutation requires even n >= 2, got %d", n)
	}
	if count < 0 {
		return nil, fmt.Errorf("trace: Permutation requires count >= 0, got %d", count)
	}
	r := stats.NewRand(seed)
	return &permutationStream{n: n, count: count, perm: r.Perm(n)}, nil
}

func (s *permutationStream) Name() string  { return fmt.Sprintf("permutation(n=%d)", s.n) }
func (s *permutationStream) NumRacks() int { return s.n }
func (s *permutationStream) Len() int      { return s.count }
func (s *permutationStream) Reset()        { s.pos = 0 }

func (s *permutationStream) Next(buf []Request) int {
	n := 0
	for n < len(buf) && s.pos < s.count {
		k := (s.pos % (s.n / 2)) * 2
		buf[n] = Request{Src: int32(s.perm[k]), Dst: int32(s.perm[k+1])}
		s.pos++
		n++
	}
	return n
}
