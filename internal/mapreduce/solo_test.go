package mapreduce

import (
	"math"
	"reflect"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// sameBits reports whether two model outputs agree bit for bit: every
// float64 field by math.Float64bits (so NaN payloads and the sign of a
// zero count), every integer by value, slices element by element.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unsupported kind " + a.Kind().String())
}

// refAPI answers the public entry points' questions through the
// reference solver, with each entry point's call shape: which outcome
// buffer it passes, so which solves and jitter draws it makes.
type refAPI struct {
	m *Model
	s evalScratch
}

func (r *refAPI) coLocate(specs []RunSpec, apps []Outcome) (CoOutcome, error) {
	return refCoLocateInto(r.m, specs, &r.s, apps)
}

// metricsApps is the outcome buffer the Metrics entry points pass: none
// on the noise-free model, one per app on a noisy one.
func (r *refAPI) metricsApps(n int) []Outcome {
	if r.m.Noise > 0 {
		return make([]Outcome, n)
	}
	return nil
}

// checkAgainstReference runs every solo and pair entry point on a and
// on the pair (a, b) through the production evaluator e and its model
// and through the reference ref, in one order on both, and fails on any
// output or error that differs. The two models must draw identical
// jitter.
func checkAgainstReference(t *testing.T, e *Evaluator, ref *refAPI, a, b RunSpec) {
	t.Helper()
	m := e.m
	check := func(what string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s %s@%gMB %v / %s@%gMB %v: error %v, reference %v",
				what, a.App.Name, a.DataMB, a.Cfg, b.App.Name, b.DataMB, b.Cfg, gotErr, wantErr)
		}
		if gotErr == nil && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%s %s@%gMB %v / %s@%gMB %v:\n got %+v\nwant %+v",
				what, a.App.Name, a.DataMB, a.Cfg, b.App.Name, b.DataMB, b.Cfg, got, want)
		}
	}
	one, two := []RunSpec{a}, []RunSpec{a, b}

	gotApp, err := e.SoloApp(a)
	co, wantErr := ref.coLocate(one, make([]Outcome, 1))
	var wantApp Outcome
	if wantErr == nil {
		wantApp = co.Apps[0]
	}
	check("SoloApp", gotApp, wantApp, err, wantErr)

	gotCo, err := e.Solo(a)
	wantCo, wantErr := ref.coLocate(one, make([]Outcome, 1))
	check("Evaluator.Solo", gotCo, wantCo, err, wantErr)

	gotM, err := e.SoloMetrics(a)
	wantCo, wantErr = ref.coLocate(one, ref.metricsApps(1))
	check("SoloMetrics", gotM, wantCo.Metrics(), err, wantErr)

	gotApp, gotCo, err = m.Solo(a)
	wantCo, wantErr = ref.coLocate(one, make([]Outcome, 1))
	if wantErr == nil {
		wantApp = wantCo.Apps[0]
	}
	check("Model.Solo outcome", gotApp, wantApp, err, wantErr)
	check("Model.Solo co-outcome", gotCo, wantCo, err, wantErr)

	for _, specs := range [][]RunSpec{one, two} {
		gotCo, err = m.CoLocate(specs)
		wantCo, wantErr = ref.coLocate(specs, make([]Outcome, len(specs)))
		check("CoLocate", gotCo, wantCo, err, wantErr)
	}

	gotM, err = e.PairMetrics(a, b)
	wantCo, wantErr = ref.coLocate(two, ref.metricsApps(2))
	check("PairMetrics", gotM, wantCo.Metrics(), err, wantErr)

	for _, specs := range [][]RunSpec{one, two} {
		gotSt, gotW, err := e.Steady(specs)
		wantSt, wantW, wantErr := legacySteady(ref.m, specs)
		check("Steady states", gotSt, wantSt, err, wantErr)
		check("Steady watts", gotW, wantW, err, wantErr)
	}
}

// TestSoloPathMatchesReference pins the one-solve solo path and the
// reused first-epoch solve against the reference solver over the whole
// product: every application (training and test) × every database size
// plus 0, an off-grid 3.7 GB and 20 GB × every configuration on the
// grid. Each point runs SoloApp, both Solos, SoloMetrics, CoLocate with
// one and two apps, PairMetrics and Steady with one and two apps, with a
// rotating partner whose mapper count fills the node, or overfills it
// when the first app holds every core, so the errors are compared too.
// The product runs on the calibrated model and on a noisy one, against
// a reference model with the same seed, so the jitter draws must match
// call for call as well.
func TestSoloPathMatchesReference(t *testing.T) {
	apps := workloads.Apps()
	sizes := append(workloads.DataSizesGB(), 0, 3.7, 20)
	for _, noise := range []float64{0, 0.05} {
		m, rm := model(), model()
		if noise > 0 {
			m, rm = m.WithNoise(noise, sim.NewRNG(11)), rm.WithNoise(noise, sim.NewRNG(11))
		}
		e, ref := m.NewEvaluator(), &refAPI{m: rm}
		grid := AllConfigs(m.Spec.Cores)
		points, overfull := 0, 0
		for ai, app := range apps {
			for si, gb := range sizes {
				for ci, cfg := range grid {
					bc := grid[(ci*37+ai+si)%len(grid)]
					bc.Mappers = max(1, min(bc.Mappers, m.Spec.Cores-cfg.Mappers))
					if cfg.Mappers+bc.Mappers > m.Spec.Cores {
						overfull++
					}
					a := RunSpec{App: app, DataMB: gb * 1024, Cfg: cfg}
					b := RunSpec{App: apps[(ai+ci+1)%len(apps)], DataMB: sizes[(si+ci)%len(sizes)] * 1024, Cfg: bc}
					checkAgainstReference(t, e, ref, a, b)
					points++
				}
			}
		}
		if want := len(apps) * len(sizes) * len(grid); points != want || overfull == 0 {
			t.Fatalf("noise %g: %d points (%d overfull pairs), want %d with some overfull", noise, points, overfull, want)
		}
	}
}

// soloFixedPointSeeds are FuzzSoloFixedPoint's seeds, in its argument
// order: model knobs (TaskStartupSec, OverlapFrac, SeekPenalty, disk
// bandwidth), profile fields (DiskDutyCap, MapInstrPerByte,
// ReduceInstrPerByte, SpillFactor, ShuffleSel, OutputSel, BaseIPC,
// LLCMPKI, MemFootprintMBPerTask) and the data size in MB. Every seed
// runs at grid index 99, the profiling configuration (2.0 GHz, 256 MB
// blocks, 4 mappers).
var soloFixedPointSeeds = [][14]float64{
	// Calibrated knobs, WordCount's profile, 5 GB.
	{3, 0.65, 0.06, 0, 0.85, 340, 60, 0.10, 0.22, 0.05, 1.05, 2.1, 180, 5120},
	// A duty cap above 1: the burst is held to the available bandwidth.
	{3, 0.65, 0.06, 0, 1.5, 340, 60, 0.10, 0.22, 0.05, 1.05, 2.1, 180, 5120},
	// No startup cost and no work: every task takes 0 s, so the target
	// rate is 0/0, NaN, and the solve falls back to the full loop.
	{0, 0.65, 0.06, 0, 0.85, 0, 0, -1, 0, 0, 1.05, 2.1, 180, 5120},
	// No startup, no compute and a spill so large the job's traffic
	// overflows while its task time does not: an infinite target rate,
	// with a duty cap above 1, so the fallback's later steps burst at
	// the cap instead of the available bandwidth.
	{0, 0.65, 0.06, 0, 1.5, 0, 0, 3.9e304, 0.22, 0.05, 1.05, 2.1, 180, 5120},
	// As above, with a startup cost so negative that the job's task
	// time is positive at the first step's burst and negative at the
	// cap's: the target rate goes from +Inf to -Inf, and the fallback's
	// rate from +Inf to NaN, where stepping the first target would stay
	// at +Inf.
	{-2e305, 0.65, 0.06, 140, 1.5, 0, 0, 3.9e304, 0.22, 0.05, 1.05, 2.1, 180, 5120},
	// No data: no splits, so no fixed point at all.
	{3, 0.65, 0.06, 0, 0.85, 340, 60, 0.10, 0.22, 0.05, 1.05, 2.1, 180, 0},
	// Negative traffic: a finite negative target rate.
	{3, 0.65, 0.06, 0, 0.85, 340, 60, -3, 0.22, 0.05, 1.05, 2.1, 180, 3789},
	// No disk bandwidth at all.
	{3, 0.65, 0.06, -1, 0.85, 340, 60, 0.10, 0.22, 0.05, 1.05, 2.1, 180, 5120},
}

// FuzzSoloFixedPoint holds the one-solve solo path to the reference
// solver over arbitrary model knobs and profile fields: SoloApp,
// SoloMetrics and a one-app Steady must match bit for bit, errors
// included. A disk bandwidth of 0 keeps the node's own. The seeds
// reach both of the solo path's branches: a finite target rate, which
// it steps on a scalar, and a NaN or infinite one, where it falls back
// to the full loop.
func FuzzSoloFixedPoint(f *testing.F) {
	fallbacks := 0
	for _, s := range soloFixedPointSeeds {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], 99)
		m, spec := fuzzSolo(s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], 99)
		var scratch evalScratch
		if r := refEvaluateInto(m, []RunSpec{spec}, &scratch)[0].ioRateMBps; math.IsNaN(r) || math.IsInf(r, 0) {
			fallbacks++
		}
	}
	if fallbacks < 2 {
		f.Fatalf("%d seeds reach the fallback, want at least 2", fallbacks)
	}
	f.Fuzz(func(t *testing.T, startup, overlap, seek, diskBW, duty, mapIPB, redIPB, spill, shuffle, output, ipc, mpki, memFP, dataMB float64, cfg int) {
		m, spec := fuzzSolo(startup, overlap, seek, diskBW, duty, mapIPB, redIPB, spill, shuffle, output, ipc, mpki, memFP, dataMB, cfg)
		e, ref := m.NewEvaluator(), &refAPI{m: m}
		check := func(what string, got, want any, gotErr, wantErr error) {
			t.Helper()
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
			}
			if gotErr == nil && !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
				t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
			}
		}
		one := []RunSpec{spec}
		gotApp, err := e.SoloApp(spec)
		co, wantErr := ref.coLocate(one, make([]Outcome, 1))
		var wantApp Outcome
		if wantErr == nil {
			wantApp = co.Apps[0]
		}
		check("SoloApp", gotApp, wantApp, err, wantErr)
		gotM, err := e.SoloMetrics(spec)
		co, wantErr = ref.coLocate(one, nil)
		check("SoloMetrics", gotM, co.Metrics(), err, wantErr)
		gotSt, gotW, err := e.Steady(one)
		wantSt, wantW, wantErr := legacySteady(m, one)
		check("Steady states", gotSt, wantSt, err, wantErr)
		check("Steady watts", gotW, wantW, err, wantErr)
	})
}

// fuzzSolo builds FuzzSoloFixedPoint's model and WordCount-named spec.
func fuzzSolo(startup, overlap, seek, diskBW, duty, mapIPB, redIPB, spill, shuffle, output, ipc, mpki, memFP, dataMB float64, cfg int) (*Model, RunSpec) {
	m := NewModel(cluster.AtomC2758())
	m.TaskStartupSec, m.OverlapFrac, m.SeekPenalty = startup, overlap, seek
	if diskBW != 0 {
		m.Spec.DiskBWMBps = diskBW
	}
	app := workloads.MustByName("wc")
	p := &app.Profile
	p.DiskDutyCap, p.MapInstrPerByte, p.ReduceInstrPerByte = duty, mapIPB, redIPB
	p.SpillFactor, p.ShuffleSel, p.OutputSel = spill, shuffle, output
	p.BaseIPC, p.LLCMPKI, p.MemFootprintMBPerTask = ipc, mpki, memFP
	grid := AllConfigs(m.Spec.Cores)
	c := grid[(cfg%len(grid)+len(grid))%len(grid)]
	return m, RunSpec{App: app, DataMB: dataMB, Cfg: c}
}
