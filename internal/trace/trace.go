// Package trace generates synthetic job-arrival traces for the online
// ECoST scheduler: Poisson (or uniform) arrivals over a configurable
// application-class mix and data-size distribution. The paper evaluates
// fixed 16-job scenarios; traces extend that to open-loop arrival
// dynamics (queueing behaviour, starvation checks, long-run energy).
package trace

import (
	"fmt"
	"math"
	"sort"

	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// Arrival is one job arrival. It names its application by id, so it
// is three words and holds no pointer.
type Arrival struct {
	At     float64
	App    workloads.ID
	SizeGB float64
}

// Spec configures a trace.
type Spec struct {
	// N is the number of jobs.
	N int
	// MeanInterarrival is the mean gap between arrivals in seconds;
	// 0 submits everything at t=0.
	MeanInterarrival float64
	// Poisson draws exponential gaps when true; fixed gaps otherwise.
	Poisson bool
	// Mix weights the application classes (defaults to uniform). Apps
	// within the chosen class are drawn uniformly.
	Mix map[workloads.Class]float64
	// Sizes lists the candidate data sizes (defaults to the studied
	// 1/5/10 GB set); drawn uniformly.
	Sizes []float64
	// UnknownOnly restricts the draw to the testing applications —
	// what a production ECoST deployment actually sees.
	UnknownOnly bool
	// Seed drives all draws.
	Seed int64
}

// Generate produces a deterministic trace for the spec.
func Generate(spec Spec) ([]Arrival, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("trace: N = %d must be positive", spec.N)
	}
	if math.IsNaN(spec.MeanInterarrival) || math.IsInf(spec.MeanInterarrival, 0) {
		return nil, fmt.Errorf("trace: mean interarrival %v must be finite", spec.MeanInterarrival)
	}
	pool := workloads.IDs()
	if spec.UnknownOnly {
		pool = workloads.TestingIDs()
	}
	sizes := spec.Sizes
	if len(sizes) == 0 {
		sizes = workloads.DataSizesGB()
	}
	for _, s := range sizes {
		// The comparison alone lets NaN through (NaN <= 0 is false).
		if !(s > 0) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("trace: size %v must be positive and finite", s)
		}
	}

	// Normalize the class mix over classes that have candidate apps.
	byClass := map[workloads.Class][]workloads.ID{}
	for _, id := range pool {
		byClass[id.Class()] = append(byClass[id.Class()], id)
	}
	mix := spec.Mix
	if len(mix) == 0 {
		mix = map[workloads.Class]float64{}
		for c := range byClass {
			mix[c] = 1
		}
	}
	type slot struct {
		c workloads.Class
		w float64
	}
	var slots []slot
	var total float64
	for _, c := range workloads.Classes() {
		w := mix[c]
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("trace: weight %v for class %v must be finite and non-negative", w, c)
		}
		if w > 0 && len(byClass[c]) > 0 {
			slots = append(slots, slot{c, w})
			total += w
		}
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("trace: class mix selects no applications")
	}

	rng := sim.NewRNG(spec.Seed)
	out := make([]Arrival, 0, spec.N)
	at := 0.0
	for i := 0; i < spec.N; i++ {
		// Class draw.
		u := rng.Float64() * total
		var cls workloads.Class
		for _, s := range slots {
			if u < s.w {
				cls = s.c
				break
			}
			u -= s.w
			cls = s.c // falls through to the last slot on rounding
		}
		apps := byClass[cls]
		app := apps[rng.Intn(len(apps))]
		size := sizes[rng.Intn(len(sizes))]
		out = append(out, Arrival{At: at, App: app, SizeGB: size})
		if spec.MeanInterarrival > 0 {
			if spec.Poisson {
				at += rng.Exp(spec.MeanInterarrival)
			} else {
				at += spec.MeanInterarrival
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}
