package scenario

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/core"
	"ecost/internal/sim"
	"ecost/internal/trace"
	"ecost/internal/workloads"
)

// render pins a stream as text for byte-level comparisons (shortest
// round-trip float form, same as the JSONL writer).
func render(tr []trace.Arrival) string {
	var b strings.Builder
	for _, a := range tr {
		fmt.Fprintf(&b, "%v %s %v\n", a.At, a.App.Name(), a.SizeGB)
	}
	return b.String()
}

func mustGenerate(t *testing.T, spec Spec) []trace.Arrival {
	t.Helper()
	tr, err := Generate(spec)
	if err != nil {
		t.Fatalf("Generate(%v): %v", spec, err)
	}
	return tr
}

// heavySpec is the kitchen-sink spec the determinism tests pin: MMPP
// bursts, Pareto sizes, Zipf tenants — every substream in play.
func heavySpec(jobs int, seed int64) Spec {
	return Spec{
		Jobs: jobs,
		Seed: seed,
		Arrivals: ArrivalSpec{Kind: ArrivalMMPP,
			CalmMean: 120, BurstMean: 5, CalmStay: 0.95, BurstStay: 0.85},
		Sizes: SizeSpec{Kind: SizePareto, Alpha: 1.5, Min: 1},
		Mix:   MixSpec{Kind: MixZipf, S: 1.1, Tenants: 40},
	}
}

// TestGenerateWellFormed checks the stream contract for every arrival
// process / size / mix combination: exact job count, finite
// non-decreasing times, real applications, positive finite sizes. All
// arrivals come at t=0 and fixed ones at exact multiples of the gap;
// an unknown mix draws testing applications only, and default and
// table3 sizes are Table-3 sizes.
func TestGenerateWellFormed(t *testing.T) {
	arrivals := []ArrivalSpec{
		{Kind: ArrivalAll},
		{Kind: ArrivalFixed, Mean: 30},
		{Kind: ArrivalPoisson, Mean: 60},
		{Kind: ArrivalMMPP, CalmMean: 300, BurstMean: 10, CalmStay: 0.98, BurstStay: 0.9},
		{Kind: ArrivalDiurnal, Mean: 60, Amplitude: 0.8, Period: 86400},
	}
	sizes := []SizeSpec{
		{Kind: SizeDefault},
		{Kind: SizeTable3},
		{Kind: SizeFixed, GB: 2.5},
		{Kind: SizePareto, Alpha: 1.2, Min: 0.5, Max: 64},
		{Kind: SizeLognormal, Mu: 1.2, Sigma: 0.8},
	}
	mixes := []MixSpec{
		{Kind: MixUniform},
		{Kind: MixUniform, Unknown: true},
		{Kind: MixCycle, Workload: "WS4"},
		{Kind: MixZipf, S: 1.3, Tenants: 16},
		{Kind: MixZipf, S: 1.3, Tenants: 16, Unknown: true},
	}
	testingApp := map[workloads.ID]bool{}
	for _, id := range workloads.TestingIDs() {
		testingApp[id] = true
	}
	table3 := map[float64]bool{}
	for _, gb := range workloads.DataSizesGB() {
		table3[gb] = true
	}
	for _, a := range arrivals {
		for _, s := range sizes {
			for _, m := range mixes {
				spec := Spec{Jobs: 200, Seed: 7, Arrivals: a, Sizes: s, Mix: m}
				name := spec.String()
				tr, err := Generate(spec)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(tr) != 200 {
					t.Fatalf("%s: %d arrivals, want 200", name, len(tr))
				}
				prev := 0.0
				for i, arr := range tr {
					if !(arr.At >= prev) {
						t.Fatalf("%s: arrival %d at %v precedes %v", name, i, arr.At, prev)
					}
					prev = arr.At
					if arr.App.Name() == "" {
						t.Fatalf("%s: arrival %d has no application", name, i)
					}
					if !(arr.SizeGB > 0) || arr.SizeGB > maxSizeGB {
						t.Fatalf("%s: arrival %d size %v outside (0, %d]", name, i, arr.SizeGB, maxSizeGB)
					}
					switch {
					case a.Kind == ArrivalAll && arr.At != 0:
						t.Fatalf("%s: arrival %d at %v, want 0", name, i, arr.At)
					case a.Kind == ArrivalFixed && arr.At != float64(i)*a.Mean:
						t.Fatalf("%s: arrival %d at %v, want %v", name, i, arr.At, float64(i)*a.Mean)
					}
					if m.Unknown && !testingApp[arr.App] {
						t.Fatalf("%s: arrival %d runs %s, not a testing application", name, i, arr.App.Name())
					}
					if (s.Kind == SizeDefault || s.Kind == SizeTable3) && !table3[arr.SizeGB] {
						t.Fatalf("%s: arrival %d size %v outside the Table-3 sizes %v", name, i, arr.SizeGB, workloads.DataSizesGB())
					}
				}
			}
		}
	}
}

// TestGenerateDeterministicAcrossGOMAXPROCS is the generator golden:
// the same spec renders byte-identically on repeated runs at
// GOMAXPROCS 1 and 4.
func TestGenerateDeterministicAcrossGOMAXPROCS(t *testing.T) {
	spec := heavySpec(5000, 42)
	old := runtime.GOMAXPROCS(1)
	narrow := render(mustGenerate(t, spec))
	runtime.GOMAXPROCS(4)
	wide := render(mustGenerate(t, spec))
	again := render(mustGenerate(t, spec))
	runtime.GOMAXPROCS(old)
	if narrow != wide {
		t.Fatal("stream diverged across GOMAXPROCS 1 vs 4")
	}
	if wide != again {
		t.Fatal("stream diverged across back-to-back runs")
	}
}

// TestSubstreamComposability pins the Split-stream contract: swapping
// one component's distribution cannot perturb the draws of any other
// component.
func TestSubstreamComposability(t *testing.T) {
	base := Spec{
		Jobs:     2000,
		Seed:     11,
		Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Mean: 45},
		Sizes:    SizeSpec{Kind: SizePareto, Alpha: 1.4, Min: 1},
		Mix:      MixSpec{Kind: MixUniform},
	}
	ref := mustGenerate(t, base)

	t.Run("sizes do not perturb arrivals or apps", func(t *testing.T) {
		alt := base
		alt.Sizes = SizeSpec{Kind: SizeLognormal, Mu: 2, Sigma: 1}
		got := mustGenerate(t, alt)
		for i := range ref {
			if got[i].At != ref[i].At {
				t.Fatalf("arrival %d moved %v -> %v when only sizes changed", i, ref[i].At, got[i].At)
			}
			if got[i].App.Name() != ref[i].App.Name() {
				t.Fatalf("arrival %d app changed %s -> %s when only sizes changed", i, ref[i].App.Name(), got[i].App.Name())
			}
		}
	})
	t.Run("arrivals do not perturb apps or sizes", func(t *testing.T) {
		alt := base
		alt.Arrivals = ArrivalSpec{Kind: ArrivalMMPP, CalmMean: 200, BurstMean: 4, CalmStay: 0.9, BurstStay: 0.9}
		got := mustGenerate(t, alt)
		for i := range ref {
			if got[i].App.Name() != ref[i].App.Name() || got[i].SizeGB != ref[i].SizeGB {
				t.Fatalf("arrival %d payload changed (%s %v) -> (%s %v) when only arrivals changed",
					i, ref[i].App.Name(), ref[i].SizeGB, got[i].App.Name(), got[i].SizeGB)
			}
		}
	})
	t.Run("streams are prefix-stable in job count", func(t *testing.T) {
		long := mustGenerate(t, heavySpec(1000, 3))
		short := mustGenerate(t, heavySpec(100, 3))
		if render(long[:100]) != render(short) {
			t.Fatal("first 100 arrivals of a 1000-job stream differ from the 100-job stream")
		}
	})
}

// TestFromWorkloadMatchesLegacyCycling is the -jobs regression: the
// scenario cycle path must reproduce the retired ad-hoc cycling loop
// in cmd/ecost-sim draw-for-draw for the default seed (and others).
func TestFromWorkloadMatchesLegacyCycling(t *testing.T) {
	wl, err := core.Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	legacy := func(jobs int, arrival float64, seed int64) []trace.Arrival {
		// Verbatim re-implementation of the pre-scenario runOnline loop.
		stream := wl.Jobs
		if jobs > 0 {
			stream = make([]core.JobSpec, jobs)
			for i := range stream {
				stream[i] = wl.Jobs[i%len(wl.Jobs)]
			}
		}
		rng := sim.NewRNG(seed)
		at := 0.0
		arrivals := make([]trace.Arrival, 0, len(stream))
		for _, j := range stream {
			arrivals = append(arrivals, trace.Arrival{At: at, App: j.App, SizeGB: j.SizeGB})
			if arrival > 0 {
				at += rng.Exp(arrival)
			}
		}
		return arrivals
	}
	cases := []struct {
		jobs    int
		arrival float64
		seed    int64
	}{
		{0, 0, 42},   // scenario as-is, all at t=0 (default seed)
		{0, 120, 42}, // paper-shaped open loop
		{2000, 6, 42},
		{333, 17.5, 7},
	}
	for _, c := range cases {
		want := legacy(c.jobs, c.arrival, c.seed)
		got, err := FromWorkload(wl, c.jobs, c.arrival, c.seed)
		if err != nil {
			t.Fatalf("FromWorkload(%+v): %v", c, err)
		}
		if render(got) != render(want) {
			t.Fatalf("jobs=%d arrival=%v seed=%d: scenario cycle stream diverged from the legacy loop",
				c.jobs, c.arrival, c.seed)
		}
	}
}

// TestCycleSizesOverride: an explicit size clause re-draws cycle sizes
// per arrival; the default keeps the workload's own sizes.
func TestCycleSizesOverride(t *testing.T) {
	spec := Spec{Jobs: 64, Seed: 9, Mix: MixSpec{Kind: MixCycle, Workload: "WS4"}}
	def := mustGenerate(t, spec)
	for i, a := range def {
		if a.SizeGB != core.DefaultScenarioSizeGB {
			t.Fatalf("arrival %d size %v, want the workload default %v", i, a.SizeGB, float64(core.DefaultScenarioSizeGB))
		}
	}
	spec.Sizes = SizeSpec{Kind: SizeFixed, GB: 1}
	over := mustGenerate(t, spec)
	for i, a := range over {
		if a.SizeGB != 1 {
			t.Fatalf("arrival %d size %v, want the explicit 1 GB", i, a.SizeGB)
		}
		if a.App.Name() != def[i].App.Name() {
			t.Fatalf("arrival %d app changed when only sizes changed", i)
		}
	}
}

// TestZipfRecurringTemplates: every tenant's arrivals carry one pinned
// (app, size) template — the recurring-profile property the STP memo
// relies on.
func TestZipfRecurringTemplates(t *testing.T) {
	spec := Spec{
		Jobs:  3000,
		Seed:  13,
		Sizes: SizeSpec{Kind: SizePareto, Alpha: 1.5, Min: 1},
		Mix:   MixSpec{Kind: MixZipf, S: 1.0, Tenants: 12},
	}
	tr := mustGenerate(t, spec)
	type tmpl struct {
		app  string
		size float64
	}
	seen := map[tmpl]bool{}
	for _, a := range tr {
		seen[tmpl{a.App.Name(), a.SizeGB}] = true
	}
	if len(seen) > 12 {
		t.Fatalf("%d distinct (app,size) templates for 12 tenants; recurring jobs must reuse templates", len(seen))
	}
	if len(seen) < 2 {
		t.Fatalf("only %d template(s) drawn; expected tenant diversity", len(seen))
	}
}

// TestValidateRejects spot-checks typed rejections for each component.
func TestValidateRejects(t *testing.T) {
	bad := []Spec{
		{Jobs: 0},
		{Jobs: MaxJobs + 1},
		{Jobs: 1, Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Mean: 0}},
		{Jobs: 1, Arrivals: ArrivalSpec{Kind: ArrivalMMPP, CalmMean: 10, BurstMean: 20, CalmStay: 0.5, BurstStay: 0.5}},
		{Jobs: 1, Arrivals: ArrivalSpec{Kind: ArrivalDiurnal, Mean: 10, Amplitude: 0.99, Period: 100}},
		{Jobs: 1, Sizes: SizeSpec{Kind: SizeFixed, GB: -1}},
		{Jobs: 1, Sizes: SizeSpec{Kind: SizePareto, Alpha: 0, Min: 1}},
		{Jobs: 1, Sizes: SizeSpec{Kind: SizePareto, Alpha: 1, Min: 2, Max: 1}},
		{Jobs: 1, Mix: MixSpec{Kind: MixCycle, Workload: "WS99"}},
		{Jobs: 1, Mix: MixSpec{Kind: MixZipf, S: -1, Tenants: 5}},
		{Jobs: 1, Mix: MixSpec{Kind: MixZipf, S: 1, Tenants: 0}},
	}
	for _, spec := range bad {
		tr, err := Generate(spec)
		if err == nil {
			t.Fatalf("Generate(%+v) accepted an invalid spec", spec)
		}
		if tr != nil {
			t.Fatalf("Generate(%+v) returned a stream alongside error %v", spec, err)
		}
		var se *SpecError
		if !errors.As(err, &se) {
			t.Fatalf("Generate(%+v) error %T is not a *SpecError: %v", spec, err, err)
		}
	}
}
