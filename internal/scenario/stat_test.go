package scenario

import (
	"math"
	"sort"
	"testing"

	"ecost/internal/sim"
)

// The statistical self-tests: the generator's streams must actually
// have the distributions the spec names. Seeds are fixed, so every
// assertion is deterministic; tolerances are sized so a correct
// sampler passes with wide margin while an off-by-a-parameter bug
// (wrong rate, wrong tail, wrong skew) fails every seed.

// TestPoissonRateRecovery: the empirical mean inter-arrival gap lies
// within 3σ of the requested mean across 5 seeds (σ = mean/√n for
// exponential gaps).
func TestPoissonRateRecovery(t *testing.T) {
	const (
		jobs = 20000
		mean = 50.0
	)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		tr := mustGenerate(t, Spec{
			Jobs:     jobs,
			Seed:     seed,
			Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Mean: mean},
		})
		n := len(tr) - 1 // gaps
		sum := 0.0
		for i := 1; i < len(tr); i++ {
			sum += tr[i].At - tr[i-1].At
		}
		got := sum / float64(n)
		sigma := mean / math.Sqrt(float64(n))
		if math.Abs(got-mean) > 3*sigma {
			t.Errorf("seed %d: empirical mean gap %.3f vs requested %.1f exceeds 3σ=%.3f", seed, got, mean, 3*sigma)
		}
	}
}

// TestParetoTailRecovery: the Hill estimator over the top order
// statistics recovers the requested tail index.
func TestParetoTailRecovery(t *testing.T) {
	const (
		jobs  = 20000
		alpha = 1.5
		k     = 500 // top order statistics for the Hill estimate
	)
	for _, seed := range []int64{1, 2, 3} {
		tr := mustGenerate(t, Spec{
			Jobs:  jobs,
			Seed:  seed,
			Sizes: SizeSpec{Kind: SizePareto, Alpha: alpha, Min: 1},
		})
		sizes := make([]float64, len(tr))
		for i, a := range tr {
			sizes[i] = a.SizeGB
		}
		sort.Float64s(sizes)
		// Hill: 1 / mean(log(x_(n-i) / x_(n-k))) over the k largest.
		ref := sizes[len(sizes)-k-1]
		sum := 0.0
		for i := 0; i < k; i++ {
			sum += math.Log(sizes[len(sizes)-1-i] / ref)
		}
		hill := float64(k) / sum
		// Hill's asymptotic sd is alpha/√k ≈ 0.067 here; the 4096 GB
		// truncation adds a small upward bias, so allow ±0.25.
		if math.Abs(hill-alpha) > 0.25 {
			t.Errorf("seed %d: Hill tail index %.3f vs requested %.1f (tolerance 0.25)", seed, hill, alpha)
		}
	}
}

// TestLognormalLogMoments: log-sizes recover mu and sigma.
func TestLognormalLogMoments(t *testing.T) {
	const (
		jobs  = 20000
		mu    = 1.2
		sigma = 0.8
	)
	for _, seed := range []int64{1, 2, 3} {
		tr := mustGenerate(t, Spec{
			Jobs:  jobs,
			Seed:  seed,
			Sizes: SizeSpec{Kind: SizeLognormal, Mu: mu, Sigma: sigma},
		})
		sum, sum2 := 0.0, 0.0
		for _, a := range tr {
			l := math.Log(a.SizeGB)
			sum += l
			sum2 += l * l
		}
		n := float64(len(tr))
		gotMu := sum / n
		gotSigma := math.Sqrt(sum2/n - gotMu*gotMu)
		if math.Abs(gotMu-mu) > 4*sigma/math.Sqrt(n) {
			t.Errorf("seed %d: log-mean %.3f vs %.1f", seed, gotMu, mu)
		}
		if math.Abs(gotSigma-sigma) > 0.05 {
			t.Errorf("seed %d: log-sd %.3f vs %.1f", seed, gotSigma, sigma)
		}
	}
}

// TestZipfRankFrequencySlope: regressing log(frequency) on log(rank)
// over the head of the tenant popularity table recovers -s.
func TestZipfRankFrequencySlope(t *testing.T) {
	const (
		jobs    = 60000
		s       = 1.2
		tenants = 100
		head    = 30 // head ranks carry enough mass for a stable fit
	)
	for _, seed := range []int64{1, 2, 3} {
		spec := Spec{
			Jobs: jobs,
			Seed: seed,
			Mix:  MixSpec{Kind: MixZipf, S: s, Tenants: tenants},
		}
		tr := mustGenerate(t, spec)
		// Tenant identity is the (app, size) template; rank = tenant
		// index. Recover per-rank counts by regenerating the template
		// table the same way the generator does.
		root := sim.NewRNG(seed)
		mg, err := newMixGen(spec.Mix, spec.Sizes, root.Split(streamMix), root.Split(streamTenants))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]float64, tenants)
		for _, a := range tr {
			// Templates may collide (same app+size for two tenants), so
			// attribute each arrival to its lowest-ranked matching
			// template; collisions only flatten the measured slope.
			for r, tn := range mg.tenants {
				if tn.app == a.App && tn.sizeGB == a.SizeGB {
					counts[r]++
					break
				}
			}
		}
		// Least-squares slope of log(count) on log(rank+1) over the head.
		var sx, sy, sxx, sxy float64
		n := 0.0
		for r := 0; r < head; r++ {
			if counts[r] == 0 {
				continue
			}
			x, y := math.Log(float64(r+1)), math.Log(counts[r])
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			n++
		}
		slope := (n*sxy - sx*sy) / (n*sxx - sx*sx)
		if math.Abs(slope-(-s)) > 0.2 {
			t.Errorf("seed %d: rank-frequency slope %.3f vs requested %.1f (tolerance 0.2)", seed, slope, -s)
		}
	}
}

// TestMMPPBurstiness: an MMPP stream is overdispersed relative to
// Poisson (squared coefficient of variation of gaps > 1) and its
// overall mean gap lies strictly between the regime means.
func TestMMPPBurstiness(t *testing.T) {
	spec := Spec{
		Jobs: 20000,
		Seed: 4,
		Arrivals: ArrivalSpec{Kind: ArrivalMMPP,
			CalmMean: 200, BurstMean: 5, CalmStay: 0.98, BurstStay: 0.95},
	}
	tr := mustGenerate(t, spec)
	var sum, sum2 float64
	n := float64(len(tr) - 1)
	for i := 1; i < len(tr); i++ {
		g := tr[i].At - tr[i-1].At
		sum += g
		sum2 += g * g
	}
	mean := sum / n
	cv2 := (sum2/n - mean*mean) / (mean * mean)
	if cv2 <= 1.2 {
		t.Errorf("MMPP gap CV² = %.3f; want clearly overdispersed (> 1.2, Poisson is 1)", cv2)
	}
	if mean <= spec.Arrivals.BurstMean || mean >= spec.Arrivals.CalmMean {
		t.Errorf("MMPP overall mean gap %.2f outside regime means (%v, %v)", mean, spec.Arrivals.BurstMean, spec.Arrivals.CalmMean)
	}
}

// TestDiurnalModulation: arrival counts in the peak half of the cycle
// exceed the trough half by roughly the modulation ratio.
func TestDiurnalModulation(t *testing.T) {
	const (
		mean   = 10.0
		amp    = 0.8
		period = 10000.0
	)
	tr := mustGenerate(t, Spec{
		Jobs:     40000,
		Seed:     6,
		Arrivals: ArrivalSpec{Kind: ArrivalDiurnal, Mean: mean, Amplitude: amp, Period: period},
	})
	var peak, trough float64
	for _, a := range tr {
		phase := math.Mod(a.At, period) / period
		if phase < 0.5 { // sin > 0: high-rate half
			peak++
		} else {
			trough++
		}
	}
	// Integrated rate ratio between halves is (π+2A)/(π-2A) = 3.03 at
	// A=0.8; require at least 2x to prove real modulation.
	if peak < 2*trough {
		t.Errorf("peak-half arrivals %v vs trough-half %v; want ≥ 2x modulation", peak, trough)
	}
}

// TestSplitSeedInvariance: Split(id) substreams are identical whether
// drawn interleaved or sequentially — the property that makes the
// generator's per-component streams independent of consumption order.
func TestSplitSeedInvariance(t *testing.T) {
	const draws = 1000
	root := sim.NewRNG(99)
	a, b, c := root.Split(1), root.Split(2), root.Split(3)
	inter := make([][]float64, 3)
	for i := 0; i < draws; i++ {
		inter[0] = append(inter[0], a.Float64())
		inter[1] = append(inter[1], b.Float64())
		inter[2] = append(inter[2], c.Float64())
	}
	root2 := sim.NewRNG(99)
	for idx, id := range []int64{1, 2, 3} {
		g := root2.Split(id)
		for i := 0; i < draws; i++ {
			if v := g.Float64(); v != inter[idx][i] {
				t.Fatalf("substream %d draw %d: sequential %v != interleaved %v", id, i, v, inter[idx][i])
			}
		}
	}
	// Splitting must not advance the parent: a root drawn after three
	// Splits matches a fresh root drawn directly.
	r1, r2 := sim.NewRNG(7), sim.NewRNG(7)
	r1.Split(1)
	r1.Split(2)
	if r1.Float64() != r2.Float64() {
		t.Fatal("Split advanced the parent stream")
	}
}
