package trace

import "fmt"

// FacebookParams controls the Facebook-style synthetic generator. The
// generator reproduces the two trace properties the paper's evaluation
// hinges on (§3.1, citing Avin et al.): spatial skew (a Zipf distribution
// over rack pairs) and temporal structure (a bounded working set of
// currently-active pairs plus Markov-modulated bursts that repeat the
// previous pair).
//
// Mechanics per request:
//  1. If the burst chain is ON, repeat the previous pair.
//  2. Otherwise, with probability WorkingSetProb draw from the current
//     working set (uniformly), else draw fresh from the global Zipf-over-
//     pairs distribution.
//  3. Each request renews one working-set slot with probability ChurnProb
//     (replacing a uniformly chosen slot with a fresh global draw).
type FacebookParams struct {
	Racks          int     // number of racks (paper: 100)
	Requests       int     // trace length
	ZipfSkew       float64 // spatial skew of the global pair distribution
	WorkingSet     int     // number of concurrently active pairs
	WorkingSetProb float64 // P(draw from working set) when not bursting
	ChurnProb      float64 // P(renew one working-set slot per request)
	BurstProb      float64 // stationary ON probability of the burst chain
	BurstLen       float64 // expected burst length (requests)
	Seed           uint64
	Name           string
}

// Validate reports whether the parameters are usable.
func (p *FacebookParams) Validate() error {
	switch {
	case p.Racks < 2:
		return fmt.Errorf("trace: FacebookParams.Racks = %d, need >= 2", p.Racks)
	case p.Requests < 0:
		return fmt.Errorf("trace: FacebookParams.Requests = %d, need >= 0", p.Requests)
	case p.ZipfSkew < 0:
		return fmt.Errorf("trace: FacebookParams.ZipfSkew = %v, need >= 0", p.ZipfSkew)
	case p.WorkingSet < 1:
		return fmt.Errorf("trace: FacebookParams.WorkingSet = %d, need >= 1", p.WorkingSet)
	case p.WorkingSetProb < 0 || p.WorkingSetProb > 1:
		return fmt.Errorf("trace: FacebookParams.WorkingSetProb = %v, need in [0,1]", p.WorkingSetProb)
	case p.ChurnProb < 0 || p.ChurnProb > 1:
		return fmt.Errorf("trace: FacebookParams.ChurnProb = %v, need in [0,1]", p.ChurnProb)
	case p.BurstProb < 0 || p.BurstProb >= 1:
		return fmt.Errorf("trace: FacebookParams.BurstProb = %v, need in [0,1)", p.BurstProb)
	case p.BurstLen < 1:
		return fmt.Errorf("trace: FacebookParams.BurstLen = %v, need >= 1", p.BurstLen)
	}
	return nil
}

// FacebookStyle generates a synthetic trace with the given parameters. It
// is the materialized form of NewFacebookStream: the stream is drained into
// a Trace, so both yield bit-identical request sequences.
func FacebookStyle(p FacebookParams) (*Trace, error) {
	s, err := NewFacebookStream(p)
	if err != nil {
		return nil, err
	}
	return Collect(s), nil
}

// Cluster identifies one of the paper's three Facebook workload presets.
type Cluster int

const (
	// Database: SQL-serving cluster — strong spatial skew, pronounced
	// temporal locality with a small working set.
	Database Cluster = iota
	// WebService: web servers — flatter spatial distribution, larger and
	// faster-churning working set.
	WebService
	// Hadoop: batch processing — long bursty flows (heavy temporal
	// structure) over a moderately skewed spatial distribution.
	Hadoop
)

// String returns the preset name.
func (c Cluster) String() string {
	switch c {
	case Database:
		return "facebook-database"
	case WebService:
		return "facebook-webservice"
	case Hadoop:
		return "facebook-hadoop"
	}
	return fmt.Sprintf("Cluster(%d)", int(c))
}

// FacebookPreset returns the generator parameters for one of the three
// Facebook cluster presets at the given scale. Request counts default to
// the x-axis extents of the paper's figures (3.5e5, 4e5, 1.85e5) and are
// overridable by the caller after construction.
func FacebookPreset(c Cluster, racks int, seed uint64) FacebookParams {
	p := FacebookParams{
		Racks: racks,
		Seed:  seed,
		Name:  c.String(),
	}
	switch c {
	case Database:
		p.Requests = 350000
		p.ZipfSkew = 1.25
		p.WorkingSet = 3 * racks
		p.WorkingSetProb = 0.75
		p.ChurnProb = 0.002
		p.BurstProb = 0.25
		p.BurstLen = 12
	case WebService:
		p.Requests = 400000
		p.ZipfSkew = 0.90
		p.WorkingSet = 6 * racks
		p.WorkingSetProb = 0.60
		p.ChurnProb = 0.01
		p.BurstProb = 0.15
		p.BurstLen = 6
	case Hadoop:
		p.Requests = 185000
		p.ZipfSkew = 1.05
		p.WorkingSet = 2 * racks
		p.WorkingSetProb = 0.70
		p.ChurnProb = 0.004
		p.BurstProb = 0.45
		p.BurstLen = 40
	default:
		panic(fmt.Sprintf("trace: unknown cluster %d", int(c)))
	}
	return p
}

// MicrosoftStyle generates the paper's Microsoft workload: count i.i.d.
// samples from a skewed synthetic rack-to-rack traffic matrix over n racks
// (paper: 50 racks, 1.75e6 requests). The trace has spatial skew but, by
// construction, no temporal structure.
func MicrosoftStyle(n, count int, seed uint64) *Trace {
	s, err := NewMicrosoftStream(n, count, seed)
	if err != nil {
		panic(err) // matches the historical behavior: bad n panicked
	}
	return Collect(s)
}

// Uniform generates count requests drawn uniformly at random from all rack
// pairs: the unstructured baseline workload (worst case for demand-aware
// reconfiguration).
func Uniform(n, count int, seed uint64) *Trace {
	s, err := NewUniformStream(n, count, seed)
	if err != nil {
		panic(err) // matches the historical behavior: bad n panicked in Intn
	}
	return Collect(s)
}

// PhaseShift generates a workload whose communication pattern changes
// abruptly between phases: the trace is divided into `phases` equal
// segments, each an independent skewed i.i.d. pattern (fresh SkewedMatrix).
// Static offline matchings and no-evict schemes straddle the shifts badly;
// adaptive online algorithms re-converge — the scenario behind the paper's
// motivation for *dynamic* reconfiguration.
func PhaseShift(n, count, phases int, seed uint64) (*Trace, error) {
	s, err := NewPhaseShiftStream(n, count, phases, seed)
	if err != nil {
		return nil, err
	}
	return Collect(s), nil
}

// Permutation generates count requests that cycle through a fixed random
// perfect matching of racks: the ideal workload for a reconfigurable
// network (every rack talks to exactly one partner). n must be even.
func Permutation(n, count int, seed uint64) *Trace {
	s, err := NewPermutationStream(n, count, seed)
	if err != nil {
		panic(err) // matches the historical behavior: odd n panicked here
	}
	return Collect(s)
}
