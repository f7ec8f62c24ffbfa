package trace

import (
	"fmt"
	"math"

	"obm/internal/stats"
)

// This file holds the scenario-grid workload families that go beyond the
// paper's evaluation: diurnal load swings, migrating hotspots and
// multi-tenant overlays. All are resumable Streams obeying the same
// seed-reproducibility contract as the paper-era generators.

// DiurnalParams controls the diurnal load-swing generator: traffic blends
// between a strongly skewed "peak" pair distribution and a much flatter
// "off-hours" one, following a sinusoidal day cycle of Period requests.
// Demand-aware algorithms profit at the peaks and must not thrash through
// the troughs — the classic datacenter day/night pattern.
type DiurnalParams struct {
	Racks    int
	Requests int
	Seed     uint64
	Period   int     // requests per day cycle; <= 0 defaults to Requests/4
	PeakSkew float64 // Zipf exponent of the daytime distribution (default 1.3)
	OffSkew  float64 // Zipf exponent of the nighttime distribution (default 0.3)
	Name     string
}

func (p *DiurnalParams) withDefaults() DiurnalParams {
	q := *p
	if q.Period <= 0 {
		q.Period = q.Requests / 4
		if q.Period < 1 {
			q.Period = 1
		}
	}
	if q.PeakSkew == 0 {
		q.PeakSkew = 1.3
	}
	if q.OffSkew == 0 {
		q.OffSkew = 0.3
	}
	if q.Name == "" {
		q.Name = fmt.Sprintf("diurnal(n=%d,period=%d)", q.Racks, q.Period)
	}
	return q
}

// Validate reports whether the parameters are usable.
func (p *DiurnalParams) Validate() error {
	switch {
	case p.Racks < 2:
		return fmt.Errorf("trace: DiurnalParams.Racks = %d, need >= 2", p.Racks)
	case p.Requests < 0:
		return fmt.Errorf("trace: DiurnalParams.Requests = %d, need >= 0", p.Requests)
	case p.PeakSkew < 0 || p.OffSkew < 0:
		return fmt.Errorf("trace: DiurnalParams skews must be >= 0")
	}
	return nil
}

type diurnalStream struct {
	p     DiurnalParams
	setup *diurnalSetup // nil until the first Reset or Next; shared by forks
	r     *stats.Rand
	pos   int
}

// diurnalSetup is what a diurnal stream's setup computes from its
// parameters, read-only once built: the two Zipf tables, the shared
// permutation of the pair universe, and the RNG state after drawing it.
type diurnalSetup struct {
	peak, off *stats.Zipf
	perm      []int
	idx       *PairIndex
	r         stats.Rand // the generator after the permutation draw
}

// NewDiurnalStream builds the diurnal load-swing stream. Both distributions
// are Zipf over one shared random permutation of the pair universe, so the
// peak hotspots are a subset of the off-hours mass rather than disjoint.
func NewDiurnalStream(p DiurnalParams) (Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	q := p.withDefaults()
	return &diurnalStream{p: q, r: stats.NewRand(q.Seed)}, nil
}

func (s *diurnalStream) Name() string  { return s.p.Name }
func (s *diurnalStream) NumRacks() int { return s.p.Racks }
func (s *diurnalStream) Len() int      { return s.p.Requests }

// Reset restores the RNG state after the permutation draw. The first
// Reset builds the two Zipf tables, which draw nothing from the RNG, and
// draws the permutation.
func (s *diurnalStream) Reset() {
	if s.setup == nil {
		np := NumPairs(s.p.Racks)
		r := stats.NewRand(s.p.Seed)
		s.setup = &diurnalSetup{
			peak: stats.NewZipf(np, s.p.PeakSkew),
			off:  stats.NewZipf(np, s.p.OffSkew),
			perm: r.Perm(np),
			idx:  SharedPairIndex(s.p.Racks),
			r:    *r,
		}
	}
	*s.r = s.setup.r
	s.pos = 0
}

// Fork returns a stream at request 0 sharing the receiver's setup.
func (s *diurnalStream) Fork() Stream {
	f := &diurnalStream{p: s.p, setup: s.setup, r: stats.NewRand(s.p.Seed)}
	if f.setup != nil {
		f.Reset()
	}
	return f
}

func (s *diurnalStream) Next(buf []Request) int {
	if s.setup == nil {
		s.Reset()
	}
	st := s.setup
	n := 0
	for n < len(buf) && s.pos < s.p.Requests {
		// Peak intensity: 0 at midnight, 1 at noon, sinusoidal in between.
		phase := 2 * math.Pi * float64(s.pos%s.p.Period) / float64(s.p.Period)
		intensity := 0.5 - 0.5*math.Cos(phase)
		var rank int
		if s.r.Bool(intensity) {
			rank = st.peak.Sample(s.r)
		} else {
			rank = st.off.Sample(s.r)
		}
		u, v := st.idx.Endpoints(PairID(st.perm[rank]))
		buf[n] = Request{Src: int32(u), Dst: int32(v)}
		s.pos++
		n++
	}
	return n
}

// HotspotParams controls the hotspot-migration generator: a small set of
// elephant pairs carries most of the traffic, and the set drifts — every
// MigrateEvery requests one hotspot is retired and a fresh random pair
// becomes hot. Online algorithms must track the moving hotspots; static
// matchings decay as the set walks away from them.
type HotspotParams struct {
	Racks        int
	Requests     int
	Seed         uint64
	Hotspots     int     // size of the hot set (default 8, at most maxHotspots)
	HotProb      float64 // P(request hits the hot set) (default 0.8)
	MigrateEvery int     // requests between single-hotspot migrations (default 5000)
	Name         string
}

func (p *HotspotParams) withDefaults() HotspotParams {
	q := *p
	if q.Hotspots == 0 {
		q.Hotspots = 8
	}
	if q.HotProb == 0 {
		q.HotProb = 0.8
	}
	if q.MigrateEvery == 0 {
		q.MigrateEvery = 5000
	}
	if q.Name == "" {
		q.Name = fmt.Sprintf("hotspot(n=%d,k=%d)", q.Racks, q.Hotspots)
	}
	return q
}

// maxHotspots bounds the hot set, which the stream allocates once and
// redraws on every Reset: a hot set is a handful of elephant pairs, and
// the bound keeps a mistyped parameter from sizing a multi-gigabyte table.
const maxHotspots = 1 << 16

// Validate reports whether the parameters are usable.
func (p *HotspotParams) Validate() error {
	q := p.withDefaults()
	switch {
	case q.Racks < 2:
		return fmt.Errorf("trace: HotspotParams.Racks = %d, need >= 2", q.Racks)
	case q.Requests < 0:
		return fmt.Errorf("trace: HotspotParams.Requests = %d, need >= 0", q.Requests)
	case q.Hotspots < 1 || q.Hotspots > maxHotspots:
		return fmt.Errorf("trace: HotspotParams.Hotspots = %d, need in [1, %d]", q.Hotspots, maxHotspots)
	case q.HotProb < 0 || q.HotProb > 1:
		return fmt.Errorf("trace: HotspotParams.HotProb = %v, need in [0,1]", q.HotProb)
	case q.MigrateEvery < 1:
		return fmt.Errorf("trace: HotspotParams.MigrateEvery = %d, need >= 1", q.MigrateEvery)
	}
	return nil
}

type hotspotStream struct {
	p   HotspotParams
	r   *stats.Rand
	hot []pairUV // nil until the first Reset or Next
	pos int
}

// NewHotspotStream builds the hotspot-migration stream.
func NewHotspotStream(p HotspotParams) (Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	q := p.withDefaults()
	return &hotspotStream{p: q, r: stats.NewRand(q.Seed)}, nil
}

func (s *hotspotStream) Name() string  { return s.p.Name }
func (s *hotspotStream) NumRacks() int { return s.p.Racks }
func (s *hotspotStream) Len() int      { return s.p.Requests }

func (s *hotspotStream) drawPair() pairUV {
	u := s.r.Intn(s.p.Racks)
	v := s.r.Intn(s.p.Racks)
	for u == v {
		v = s.r.Intn(s.p.Racks)
	}
	return pairUV{u, v}
}

func (s *hotspotStream) Reset() {
	if s.hot == nil {
		s.hot = make([]pairUV, s.p.Hotspots)
	}
	s.r.Seed(s.p.Seed)
	for i := range s.hot {
		s.hot[i] = s.drawPair()
	}
	s.pos = 0
}

func (s *hotspotStream) Next(buf []Request) int {
	if s.hot == nil {
		s.Reset()
	}
	n := 0
	for n < len(buf) && s.pos < s.p.Requests {
		if s.pos > 0 && s.pos%s.p.MigrateEvery == 0 {
			s.hot[s.r.Intn(len(s.hot))] = s.drawPair()
		}
		var cur pairUV
		if s.r.Bool(s.p.HotProb) {
			cur = s.hot[s.r.Intn(len(s.hot))]
		} else {
			cur = s.drawPair()
		}
		buf[n] = Request{Src: int32(cur.u), Dst: int32(cur.v)}
		s.pos++
		n++
	}
	return n
}

// TenantMixParams controls the multi-tenant overlay generator: the fabric
// is partitioned into Tenants contiguous rack groups, each running its own
// skewed (Zipf-over-pairs, private permutation) workload; per request a
// tenant is chosen from a Zipf distribution over tenants, and with
// probability CrossProb the request instead crosses tenant boundaries
// uniformly. Models consolidation of many independent workloads onto one
// reconfigurable fabric.
type TenantMixParams struct {
	Racks      int
	Requests   int
	Seed       uint64
	Tenants    int     // number of tenants (default 4); needs Racks >= 2·Tenants
	TenantSkew float64 // Zipf exponent over tenants (default 1.0)
	PairSkew   float64 // Zipf exponent of each tenant's pair distribution (default 1.2)
	CrossProb  float64 // P(request crosses tenant boundaries) (default 0.05)
	Name       string
}

func (p *TenantMixParams) withDefaults() TenantMixParams {
	q := *p
	if q.Tenants == 0 {
		q.Tenants = 4
	}
	if q.TenantSkew == 0 {
		q.TenantSkew = 1.0
	}
	if q.PairSkew == 0 {
		q.PairSkew = 1.2
	}
	if q.Name == "" {
		q.Name = fmt.Sprintf("tenant-mix(n=%d,t=%d)", q.Racks, q.Tenants)
	}
	return q
}

// Validate reports whether the parameters are usable.
func (p *TenantMixParams) Validate() error {
	q := p.withDefaults()
	switch {
	case q.Tenants < 1:
		return fmt.Errorf("trace: TenantMixParams.Tenants = %d, need >= 1", q.Tenants)
	case q.Tenants > q.Racks/2: // not Racks < 2·Tenants, which overflows
		return fmt.Errorf("trace: TenantMixParams.Racks = %d, need >= 2·Tenants for Tenants = %d", q.Racks, q.Tenants)
	case q.Requests < 0:
		return fmt.Errorf("trace: TenantMixParams.Requests = %d, need >= 0", q.Requests)
	case q.TenantSkew < 0 || q.PairSkew < 0:
		return fmt.Errorf("trace: TenantMixParams skews must be >= 0")
	case q.CrossProb < 0 || q.CrossProb > 1:
		return fmt.Errorf("trace: TenantMixParams.CrossProb = %v, need in [0,1]", q.CrossProb)
	}
	return nil
}

// tenant is one rack group with its private skewed pair distribution.
type tenant struct {
	lo, hi int // rack range [lo, hi)
	zipf   *stats.Zipf
	perm   []int
	idx    *PairIndex // over the tenant's hi−lo racks
}

type tenantMixStream struct {
	p     TenantMixParams
	setup *tenantMixSetup // nil until the first Reset or Next; shared by forks
	r     *stats.Rand
	pos   int
}

// tenantMixSetup is what a tenant-mix stream's setup computes from its
// parameters, read-only once built: the Zipf table over the tenants, the
// tenants with their pair tables and permutations, and the RNG state
// after drawing the permutations.
type tenantMixSetup struct {
	tzipf   *stats.Zipf
	tenants []tenant
	r       stats.Rand // the generator after the permutation draws
}

// NewTenantMixStream builds the multi-tenant overlay stream.
func NewTenantMixStream(p TenantMixParams) (Stream, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	q := p.withDefaults()
	return &tenantMixStream{p: q, r: stats.NewRand(q.Seed)}, nil
}

func (s *tenantMixStream) Name() string  { return s.p.Name }
func (s *tenantMixStream) NumRacks() int { return s.p.Racks }
func (s *tenantMixStream) Len() int      { return s.p.Requests }

// Reset restores the RNG state after the per-tenant permutation draws.
// The first Reset builds the rack-range partition and the Zipf tables,
// which draw nothing from the RNG, and draws the permutations.
func (s *tenantMixStream) Reset() {
	if s.setup == nil {
		s.setup = newTenantMixSetup(s.p)
	}
	*s.r = s.setup.r
	s.pos = 0
}

// newTenantMixSetup partitions the racks and draws each tenant's
// permutation in tenant order; the Zipf tables draw nothing from the RNG.
func newTenantMixSetup(q TenantMixParams) *tenantMixSetup {
	r := stats.NewRand(q.Seed)
	st := &tenantMixSetup{tzipf: stats.NewZipf(q.Tenants, q.TenantSkew), tenants: make([]tenant, q.Tenants)}
	per := q.Racks / q.Tenants
	for i := range st.tenants {
		lo := i * per
		hi := lo + per
		if i == q.Tenants-1 {
			hi = q.Racks
		}
		st.tenants[i] = tenant{
			lo: lo, hi: hi,
			zipf: stats.NewZipf(NumPairs(hi-lo), q.PairSkew),
			perm: r.Perm(NumPairs(hi - lo)),
			idx:  SharedPairIndex(hi - lo),
		}
	}
	st.r = *r
	return st
}

// Fork returns a stream at request 0 sharing the receiver's setup.
func (s *tenantMixStream) Fork() Stream {
	f := &tenantMixStream{p: s.p, setup: s.setup, r: stats.NewRand(s.p.Seed)}
	if f.setup != nil {
		f.Reset()
	}
	return f
}

func (s *tenantMixStream) Next(buf []Request) int {
	if s.setup == nil {
		s.Reset()
	}
	st := s.setup
	n := 0
	for n < len(buf) && s.pos < s.p.Requests {
		var u, v int
		if s.r.Bool(s.p.CrossProb) {
			u = s.r.Intn(s.p.Racks)
			v = s.r.Intn(s.p.Racks)
			for u == v {
				v = s.r.Intn(s.p.Racks)
			}
		} else {
			t := &st.tenants[st.tzipf.Sample(s.r)]
			lu, lv := t.idx.Endpoints(PairID(t.perm[t.zipf.Sample(s.r)]))
			u, v = t.lo+lu, t.lo+lv
		}
		buf[n] = Request{Src: int32(u), Dst: int32(v)}
		s.pos++
		n++
	}
	return n
}
