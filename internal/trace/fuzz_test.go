package trace

import (
	"math"
	"testing"

	"ecost/internal/workloads"
)

// FuzzGenerate throws arbitrary Spec fields at Generate. The contract:
// Generate either returns an error or a well-formed trace — exactly N
// arrivals, time-ordered, finite non-negative timestamps, every arrival
// carrying a real application and a size from the candidate set. It
// must never panic, including on negative N, NaN/Inf mix weights and
// interarrival means, and empty, negative, or NaN sizes.
func FuzzGenerate(f *testing.F) {
	f.Add(16, 120.0, true, 1.0, 1.0, 5.0, 10.0, false, int64(42))
	f.Add(-3, 0.0, false, 0.0, 0.0, 0.0, 0.0, false, int64(0))
	f.Add(8, math.NaN(), true, math.NaN(), -1.0, math.NaN(), -5.0, true, int64(7))
	f.Add(1, math.Inf(1), false, math.Inf(1), 2.0, math.Inf(-1), 1.0, true, int64(-1))
	f.Add(200, 1e-9, true, 0.5, 3.0, 1e-12, 1e12, false, int64(99))
	f.Fuzz(func(t *testing.T, n int, mean float64, poisson bool,
		wCompute, wIO float64, size1, size2 float64, unknownOnly bool, seed int64) {
		spec := Spec{
			N:                n,
			MeanInterarrival: mean,
			Poisson:          poisson,
			UnknownOnly:      unknownOnly,
			Seed:             seed,
		}
		// A zero-valued mix map means "uniform default", so only attach
		// one when at least one weight is present.
		if wCompute != 0 || wIO != 0 {
			spec.Mix = map[workloads.Class]float64{
				workloads.Compute: wCompute,
				workloads.IOBound: wIO,
			}
		}
		// Empty Sizes exercises the default set; otherwise the fuzzed pair.
		if size1 != 0 || size2 != 0 {
			spec.Sizes = []float64{size1, size2}
		}
		tr, err := Generate(spec)
		if err != nil {
			if tr != nil {
				t.Fatalf("error %v returned alongside a trace", err)
			}
			return
		}
		if len(tr) != spec.N {
			t.Fatalf("generated %d arrivals, want %d", len(tr), spec.N)
		}
		prev := 0.0
		for i, a := range tr {
			if math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At < 0 {
				t.Fatalf("arrival %d at non-finite/negative time %v", i, a.At)
			}
			if a.At < prev {
				t.Fatalf("arrival %d at %v precedes %v", i, a.At, prev)
			}
			prev = a.At
			if int(a.App) >= len(workloads.IDs()) {
				t.Fatalf("arrival %d has no application", i)
			}
			if !(a.SizeGB > 0) {
				t.Fatalf("arrival %d has size %v", i, a.SizeGB)
			}
			if spec.Sizes != nil && a.SizeGB != size1 && a.SizeGB != size2 {
				t.Fatalf("arrival %d size %v outside %v", i, a.SizeGB, spec.Sizes)
			}
		}
		// The class tally must agree with the trace itself.
		counts := classCounts(tr)
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != len(tr) {
			t.Fatalf("classCounts sums to %d over %d arrivals", total, len(tr))
		}
	})
}
