package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/sim"
	"ecost/internal/trace"
	apps "ecost/internal/workloads"
)

// smokeJobs is the reduced stream length the tests replay.
const smokeJobs = 800

var (
	plantOnce sync.Once
	testPlant plant
	plantErr  error
)

// coarsePlant builds a cheap database (two sizes, every 13th joint
// configuration) in place of NewEnv's, once per test binary.
func coarsePlant(t *testing.T) plant {
	t.Helper()
	plantOnce.Do(func() {
		model := mapreduce.NewModel(cluster.AtomC2758())
		prof := core.NewProfiler(model, sim.NewRNG(42))
		db, err := core.BuildDatabase(prof, core.NewOracle(model), apps.Training(), core.BuildOptions{
			Sizes:        []float64{1, 5},
			ConfigStride: 13,
		})
		plantErr = err
		testPlant = plant{db: db, lkt: &core.LkTSTP{DB: db}}
	})
	if plantErr != nil {
		t.Fatal(plantErr)
	}
	return testPlant
}

// smokeArrivals is the first smokeJobs arrivals of the workload's
// stream; the generator draws in order, so the prefix is the stream a
// smokeJobs-long spec would generate.
func smokeArrivals(t *testing.T, w workload) []trace.Arrival {
	t.Helper()
	arr, err := w.arrivals(1)
	if err != nil {
		t.Fatal(err)
	}
	return arr[:smokeJobs]
}

func TestCheckCatchesDoctoredCompletions(t *testing.T) {
	spec := cluster.AtomC2758()
	arrivals := []trace.Arrival{{At: 0}, {At: 5}, {At: 9}}
	const nodes, makespan = 2, 100.0
	good := func() []core.CompletedJob {
		return []core.CompletedJob{
			{ID: 0, Submitted: 0, Started: 0, Finished: 40, Cfg: mapreduce.Baseline(4)},
			{ID: 1, Submitted: 5, Started: 5, Finished: 70, Cfg: mapreduce.Baseline(4)},
			{ID: 2, Submitted: 9, Started: 40, Finished: 100, Cfg: mapreduce.Baseline(8)},
		}
	}
	energy := idleFloor(nodes, spec, makespan) + 1000
	if n := check(arrivals, good(), nodes, spec, makespan, energy); n != 0 {
		t.Fatalf("valid completions: %d failures, want 0", n)
	}
	cases := []struct {
		name   string
		doctor func([]core.CompletedJob) []core.CompletedJob
		energy float64
	}{
		{"dropped job", func(d []core.CompletedJob) []core.CompletedJob { return d[:2] }, energy},
		{"duplicate id", func(d []core.CompletedJob) []core.CompletedJob { return append(d, d[1]) }, energy},
		{"started before submitted", func(d []core.CompletedJob) []core.CompletedJob { d[2].Started = 8; return d }, energy},
		{"submitted off its arrival", func(d []core.CompletedJob) []core.CompletedJob { d[1].Submitted = 4; return d }, energy},
		{"finished after makespan", func(d []core.CompletedJob) []core.CompletedJob { d[0].Finished = 101; return d }, energy},
		{"off-grid config", func(d []core.CompletedJob) []core.CompletedJob { d[0].Cfg.Mappers = spec.Cores + 1; return d }, energy},
		{"energy below idle floor", func(d []core.CompletedJob) []core.CompletedJob { return d }, idleFloor(nodes, spec, makespan) - 1},
		{"energy not finite", func(d []core.CompletedJob) []core.CompletedJob { return d }, math.NaN()},
	}
	for _, c := range cases {
		if n := check(arrivals, c.doctor(good()), nodes, spec, makespan, c.energy); n != 1 {
			t.Errorf("%s: %d failures, want 1", c.name, n)
		}
	}
}

// The timing decorators must not change what the control plane decides:
// traced and untraced passes simulate the same bits, and the lookup
// table's forecast passes through both decorators and the memo intact.
func TestDecoratorsTransparent(t *testing.T) {
	p := coarsePlant(t)
	for _, name := range []string{"recurring", "churn"} {
		w, _ := workloadByName(name)
		arr := smokeArrivals(t, w)
		plain := runPass(p, w, arr, 1, false)
		timed := runPass(p, w, arr, 1, true)
		if plain.failed != 0 || timed.failed != 0 {
			t.Fatalf("%s: failed jobs untraced %d, traced %d", name, plain.failed, timed.failed)
		}
		if plain.sim != timed.sim {
			t.Errorf("%s: traced pass simulated %+v, untraced %+v", name, timed.sim, plain.sim)
		}
		if timed.tuneCalls == 0 || timed.lktCalls != timed.misses || plain.tuneCalls != 0 {
			t.Errorf("%s: tune calls traced %d (lkt %d, misses %d), untraced %d",
				name, timed.tuneCalls, timed.lktCalls, timed.misses, plain.tuneCalls)
		}
	}

	prof := core.NewProfiler(mapreduce.NewModel(cluster.AtomC2758()), sim.NewRNG(3))
	a, err := prof.Observe(apps.MustByName("wc"), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := prof.Observe(apps.MustByName("st"), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCfg, wantExp, err := p.lkt.PredictBestExpected(a, b)
	if err != nil {
		t.Fatal(err)
	}
	inner := &timedSTP{inner: p.lkt}
	outer := &timedSTP{inner: core.NewMemoSTP(inner, nil)}
	for i := 0; i < 2; i++ { // a miss, then a memo hit
		cfg, exp, err := outer.PredictBestExpected(a, b)
		if err != nil || cfg != wantCfg || exp != wantExp {
			t.Fatalf("call %d: got %v %+v %v, want %v %+v", i, cfg, exp, err, wantCfg, wantExp)
		}
	}
	if outer.calls != 2 || inner.calls != 1 {
		t.Errorf("calls outer %d inner %d, want 2 and 1", outer.calls, inner.calls)
	}
}

// Every workload's passes, at reduced size, emit every metric
// BENCHMARK.json names, finite, with no failed job.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	p := coarsePlant(t)
	for _, w := range workloads {
		arr := smokeArrivals(t, w)
		r := measure(p, w, arr, 1, 0, true, io.Discard)
		if attempted, failed := r.failures(); failed != 0 || attempted != (1+minPasses+tracedPasses)*smokeJobs {
			t.Errorf("%s: %d of %d jobs failed", w.name, failed, attempted)
		}
		setup := setupTimes{totalS: 1, dbBuildS: 0.5, trainS: 0.5}
		for _, set := range []struct {
			want []struct{ Name, Unit string }
			got  []metric
		}{
			{spec.EndToEnd, endToEnd(r, setup)},
			{spec.PerLayer, perLayer(r, setup)},
		} {
			if len(set.got) != len(set.want) {
				t.Errorf("%s: emitted %d metrics, BENCHMARK.json names %d", w.name, len(set.got), len(set.want))
				continue
			}
			for i, m := range set.got {
				if m.name != set.want[i].Name || m.unit != set.want[i].Unit {
					t.Errorf("%s: metric %d is %s [%s], BENCHMARK.json says %s [%s]",
						w.name, i, m.name, m.unit, set.want[i].Name, set.want[i].Unit)
				}
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s: %s = %v", w.name, m.name, m.value)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
