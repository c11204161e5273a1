package mapreduce

import (
	"fmt"
	"math"
	"testing"

	"ecost/internal/power"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// legacySteady is the allocating contention solve Model.Steady ran
// before the solver moved onto Evaluator scratch: a fresh evaluate, a
// fresh activity snapshot, and fresh result slices per call. It is the
// oracle the reused-scratch solver must match bit for bit.
func legacySteady(m *Model, specs []RunSpec) ([]SteadyState, float64, error) {
	if len(specs) == 0 {
		return nil, power.NodePower(m.Spec, power.Activity{}), nil
	}
	total := 0
	for _, s := range specs {
		if err := s.Cfg.Validate(m.Spec.Cores); err != nil {
			return nil, 0, err
		}
		total += s.Cfg.Mappers
	}
	if total > m.Spec.Cores {
		return nil, 0, fmt.Errorf("mapreduce: steady: %d mappers exceed %d cores", total, m.Spec.Cores)
	}
	sts := legacyEvaluate(m, specs)
	out := make([]SteadyState, len(sts))
	active := make([]bool, len(sts))
	for i, st := range sts {
		out[i] = SteadyState{
			JobTime: st.T, CPUUtil: st.util, IOWait: st.iowait,
			MapTime: st.mapTime, ReduceTime: st.redTime,
		}
		active[i] = true
	}
	watts := power.NodePower(m.Spec, legacyActivity(m, specs, sts, active))
	return out, watts, nil
}

func legacyEvaluate(m *Model, specs []RunSpec) []steady {
	var s evalScratch
	sts := refEvaluateInto(m, specs, &s)
	out := make([]steady, len(sts))
	copy(out, sts)
	return out
}

func legacyActivity(m *Model, specs []RunSpec, sts []steady, active []bool) power.Activity {
	var act power.Activity
	var io, membw float64
	for i, s := range specs {
		if !active[i] {
			continue
		}
		act.Loads = append(act.Loads, power.CoreLoad{
			Cores: s.Cfg.Mappers,
			Freq:  s.Cfg.Freq,
			Util:  sts[i].util,
		})
		io += sts[i].ioRateMBps
		membw += float64(s.Cfg.Mappers) * s.App.Profile.MemBWPerCoreGBps * sts[i].util
	}
	act.DiskBusy = io / m.Spec.DiskBWMBps
	act.MemBWGB = membw
	return act
}

// steadySpecSets enumerates the equivalence grid: every application at
// 1, 5 and 10 GB plus an off-grid 3.7 GB, each solo and paired with a
// rotating partner, over a strided sample of the configuration grid.
func steadySpecSets(cores int) [][]RunSpec {
	apps := workloads.Apps()
	pcs := PairConfigsCached(cores)
	solo := AllConfigs(cores)
	var sets [][]RunSpec
	k := 0
	for ai, app := range apps {
		for _, gb := range []float64{1, 5, 10, 3.7} {
			partner := apps[(ai+3)%len(apps)]
			for step := 0; step < 6; step++ {
				k++
				a := RunSpec{App: &app, DataMB: gb * 1024, Cfg: solo[(k*37)%len(solo)]}
				sets = append(sets, []RunSpec{a})
				pc := pcs[(k*1913)%len(pcs)]
				a.Cfg = pc[0]
				b := RunSpec{App: &partner, DataMB: (11 - gb) * 1024, Cfg: pc[1]}
				sets = append(sets, []RunSpec{a, b})
			}
		}
	}
	return sets
}

// TestEvaluatorSteadyMatchesLegacy pins the solver move: Evaluator.Steady
// (one evaluator reused across the whole grid, so stale scratch from
// every earlier solve is in play) and Model.Steady must both return the
// legacy solve's states and watts bit for bit.
func TestEvaluatorSteadyMatchesLegacy(t *testing.T) {
	m := model()
	e := m.NewEvaluator()
	for _, specs := range steadySpecSets(m.Spec.Cores) {
		want, wantW, err := legacySteady(m, specs)
		if err != nil {
			t.Fatal(err)
		}
		got, gotW, err := e.Steady(specs)
		if err != nil {
			t.Fatal(err)
		}
		viaModel, modelW, err := m.Steady(specs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotW) != math.Float64bits(wantW) || math.Float64bits(modelW) != math.Float64bits(wantW) {
			t.Fatalf("%v: watts evaluator %v / model %v, legacy %v", specs, gotW, modelW, wantW)
		}
		if len(got) != len(want) || len(viaModel) != len(want) {
			t.Fatalf("%v: %d/%d states, legacy %d", specs, len(got), len(viaModel), len(want))
		}
		for i := range want {
			if got[i] != want[i] || viaModel[i] != want[i] {
				t.Fatalf("%v slot %d: evaluator %+v / model %+v, legacy %+v", specs, i, got[i], viaModel[i], want[i])
			}
		}
	}
	// The empty set is the idle draw on every path.
	got, w, err := e.Steady(nil)
	if err != nil || got != nil || w != m.IdlePower() {
		t.Fatalf("empty steady: %v %v %v", got, w, err)
	}
}

// TestEvaluatorSteadyErrorsMatchLegacy checks the validation paths return
// the legacy errors verbatim.
func TestEvaluatorSteadyErrorsMatchLegacy(t *testing.T) {
	m := model()
	e := m.NewEvaluator()
	for _, specs := range [][]RunSpec{
		{spec("wc", 1024, 2.4, 256, 5), spec("st", 1024, 2.4, 256, 5)},
		{spec("wc", 1024, 2.4, 100, 2)},
	} {
		_, _, want := legacySteady(m, specs)
		_, _, got := e.Steady(specs)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("%v: error %v, legacy %v", specs, got, want)
		}
	}
}

// TestEvaluatorSteadyZeroAlloc pins the point of the move: after
// warm-up a solo or paired steady solve allocates nothing.
func TestEvaluatorSteadyZeroAlloc(t *testing.T) {
	m := model()
	e := m.NewEvaluator()
	pair := []RunSpec{spec("wc", 5*1024, 2.4, 256, 4), spec("st", 1024, 1.6, 512, 3)}
	if _, _, err := e.Steady(pair); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := e.Steady(pair); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Steady(pair[:1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Evaluator.Steady allocates %.1f objects per call, want 0", allocs)
	}
}

// TestEvaluatorSoloAppMatchesSolo checks the allocation-free profiling
// solve returns Model.Solo's per-application outcome, on the noise-free
// model and draw for draw on a noisy one.
func TestEvaluatorSoloAppMatchesSolo(t *testing.T) {
	m := model()
	e := m.NewEvaluator()
	for _, specs := range steadySpecSets(m.Spec.Cores) {
		want, _, err := m.Solo(specs[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.SoloApp(specs[0])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: SoloApp %+v, Solo %+v", specs[0], got, want)
		}
	}
	if _, err := e.SoloApp(spec("wc", 1024, 2.4, 100, 2)); err == nil {
		t.Fatal("invalid block accepted")
	}
	noisy := model().WithNoise(0.05, sim.NewRNG(7))
	ref := model().WithNoise(0.05, sim.NewRNG(7))
	ne := noisy.NewEvaluator()
	s := spec("wc", 5*1024, 2.4, 256, 4)
	for i := 0; i < 4; i++ {
		got, err := ne.SoloApp(s)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := ref.Solo(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("noisy call %d: SoloApp %+v, Solo %+v", i, got, want)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.SoloApp(spec("wc", 5*1024, 2.4, 256, 4)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SoloApp allocates %.1f objects per call, want 0", allocs)
	}
}

// BenchmarkEvaluatorSteadyPair measures one paired steady solve, the
// online scheduler's steady-memo miss: the two-app fixed point and the
// node's power draw.
func BenchmarkEvaluatorSteadyPair(b *testing.B) {
	e := model().NewEvaluator()
	pair := []RunSpec{spec("wc", 5*1024, 2.4, 256, 4), spec("st", 1024, 1.6, 512, 3)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Steady(pair); err != nil {
			b.Fatal(err)
		}
	}
}
