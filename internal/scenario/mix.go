package scenario

import (
	"fmt"
	"math"
	"sort"

	"ecost/internal/core"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// MixKind selects how applications are assigned to arrivals.
type MixKind int

const (
	// MixUniform draws applications uniformly from the pool (all
	// eleven studied apps, or the testing set with Unknown). Sizes
	// come from the size distribution. It is the default.
	MixUniform MixKind = iota
	// MixCycle cycles a Table-3 workload's job list in order — the
	// degenerate recurring mix that subsumes the retired `-jobs N`
	// cycling. With SizeDefault the jobs keep the workload's sizes.
	MixCycle
	// MixZipf models recurring production jobs with per-tenant skew:
	// each tenant owns one recurring (app, size) template fixed at
	// stream construction, and arrivals pick tenants with Zipf
	// rank-frequency weights p(r) ∝ r^-s — a few tenants dominate the
	// stream, the long tail recurs rarely. This is the recurring-
	// profile regime arXiv:1301.4753 / arXiv:1303.3632 exploit and
	// what makes STP memoization meaningful under load.
	MixZipf
)

func (k MixKind) String() string {
	switch k {
	case MixUniform:
		return "uniform"
	case MixCycle:
		return "cycle"
	case MixZipf:
		return "zipf"
	default:
		return fmt.Sprintf("MixKind(%d)", int(k))
	}
}

// MaxTenants bounds the zipf tenant population (sanity rail for the
// grammar and fuzzers; cumulative weights are materialized per
// stream).
const MaxTenants = 1_000_000

// MixSpec parameterizes an application mix. The zero value is
// MixUniform over all applications.
type MixSpec struct {
	Kind MixKind
	// Unknown restricts the draw pool to the testing applications —
	// what a production ECoST deployment actually sees (uniform and
	// zipf).
	Unknown bool
	// Workload names the Table-3 scenario to cycle (MixCycle).
	Workload string
	// S is the Zipf skew exponent (≥ 0; 0 = uniform tenants) and
	// Tenants the tenant-population size (MixZipf).
	S       float64
	Tenants int

	// jobs overrides the cycled list (FromWorkload passes the caller's
	// workload directly so custom job lists need no registry lookup).
	jobs []core.JobSpec
}

func (m MixSpec) validate() error {
	switch m.Kind {
	case MixUniform:
		return nil
	case MixCycle:
		if len(m.jobs) > 0 {
			return nil
		}
		if _, err := core.Scenario(m.Workload); err != nil {
			return specErrf("mix", "cycle workload: %v", err)
		}
		return nil
	case MixZipf:
		if math.IsNaN(m.S) || m.S < 0 || m.S > 20 {
			return specErrf("mix", "zipf skew s=%v must be in [0, 20]", m.S)
		}
		if m.Tenants < 1 || m.Tenants > MaxTenants {
			return specErrf("mix", "zipf tenants=%d outside 1..%d", m.Tenants, MaxTenants)
		}
		return nil
	default:
		return specErrf("mix", "unknown mix kind %v", m.Kind)
	}
}

// tenant is one recurring-job template.
type tenant struct {
	app    workloads.ID
	sizeGB float64
}

// mixGen assigns an application (and, for recurring mixes, a size) to
// each arrival index. next reports recurring=true when the size is
// pinned by the mix (cycle jobs, zipf tenant templates) rather than
// drawn from the per-arrival size stream.
type mixGen struct {
	spec MixSpec
	rng  *sim.RNG

	pool        []workloads.ID // uniform draws
	jobs        []core.JobSpec // cycle
	cycleResize bool           // cycle with an explicit size clause
	tenants     []tenant       // zipf templates, index = popularity rank
	cum         []float64      // zipf cumulative weights
}

func newMixGen(spec MixSpec, sizes SizeSpec, rng, tenantRNG *sim.RNG) (*mixGen, error) {
	g := &mixGen{spec: spec, rng: rng}
	switch spec.Kind {
	case MixCycle:
		g.jobs = spec.jobs
		if len(g.jobs) == 0 {
			wl, err := core.Scenario(spec.Workload)
			if err != nil {
				return nil, specErrf("mix", "cycle workload: %v", err)
			}
			g.jobs = wl.Jobs
		}
		g.cycleResize = sizes.Kind != SizeDefault
	case MixZipf:
		pool := workloads.IDs()
		if spec.Unknown {
			pool = workloads.TestingIDs()
		}
		// Tenant templates are built once from the dedicated tenants
		// substream: sampling order is tenant-index order, so the
		// templates are independent of how many arrivals are later
		// drawn — a 100-job and a 1M-job stream share tenants.
		sizeSampler := newSizeGen(sizes, tenantRNG)
		g.tenants = make([]tenant, spec.Tenants)
		for i := range g.tenants {
			app := pool[tenantRNG.Intn(len(pool))]
			g.tenants[i] = tenant{app: app, sizeGB: sizeSampler.next()}
		}
		g.cum = make([]float64, spec.Tenants)
		total := 0.0
		for i := range g.cum {
			total += math.Pow(float64(i+1), -spec.S)
			g.cum[i] = total
		}
	default: // MixUniform
		g.pool = workloads.IDs()
		if spec.Unknown {
			g.pool = workloads.TestingIDs()
		}
	}
	return g, nil
}

func (g *mixGen) next(i int) (app workloads.ID, sizeGB float64, recurring bool) {
	switch g.spec.Kind {
	case MixCycle:
		j := g.jobs[i%len(g.jobs)]
		return j.App, j.SizeGB, !g.cycleResize
	case MixZipf:
		u := g.rng.Float64() * g.cum[len(g.cum)-1]
		r := sort.SearchFloat64s(g.cum, u)
		if r >= len(g.tenants) { // u == total on the closed edge
			r = len(g.tenants) - 1
		}
		t := g.tenants[r]
		return t.app, t.sizeGB, true
	default: // MixUniform
		return g.pool[g.rng.Intn(len(g.pool))], 0, false
	}
}
