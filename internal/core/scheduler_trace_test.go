package core

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// tracedRun drives one traced online simulation (same workload as
// metricsRun) and returns the tracer and scheduler. A fresh profiler is
// seeded identically each call so the noise sequence restarts.
func tracedRun(t *testing.T) (*tracing.Tracer, *ShardedScheduler) {
	t.Helper()
	fixture(t)
	s := oneShard(t, fix.lkt, NewProfiler(fix.model, sim.NewRNG(99)), 2)
	tr := tracing.New()
	s.SetTracer(tr)
	apps := []string{"nb", "pr", "km", "svm", "cf", "hmm", "st", "ts"}
	for i, name := range apps {
		s.Submit(workloads.MustLookup(name), 5, float64(i)*40)
	}
	if _, _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return tr, s
}

func timelineOf(t *testing.T, tr *tracing.Tracer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSchedulerTraceGoldenAcrossGOMAXPROCS is the acceptance golden:
// the rendered text timeline must be byte-identical between a
// single-threaded and a multi-threaded run of the same seed.
func TestSchedulerTraceGoldenAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	tr1, _ := tracedRun(t)
	narrow := timelineOf(t, tr1)
	runtime.GOMAXPROCS(4)
	tr4, _ := tracedRun(t)
	runtime.GOMAXPROCS(old)
	wide := timelineOf(t, tr4)
	if narrow != wide {
		t.Fatalf("timeline diverged across GOMAXPROCS:\n--- GOMAXPROCS=1 ---\n%s\n--- GOMAXPROCS=4 ---\n%s", narrow, wide)
	}
	if timelineOf(t, tr1) != narrow {
		t.Fatal("timeline not byte-stable across renders")
	}
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestSchedulerTraceEnergyConservation is the acceptance invariant: the
// span energy attribution must re-integrate to the scheduler's own
// energy accounting within 1e-9 relative error. The shard sums the
// phases incrementally while the observer bills each node at its
// occupancy changes.
func TestSchedulerTraceEnergyConservation(t *testing.T) {
	tr, s := tracedRun(t)
	spans := tr.Spans()
	total := s.EnergyJ()
	ph := s.Phases()

	// Node occupancy spans carry the full cluster bill.
	if e := relErr(tracing.TotalEnergyJ(spans, tracing.KindNode), total); e > 1e-9 {
		t.Errorf("node span energies off by %.2e relative (sum %v, want %v)",
			e, tracing.TotalEnergyJ(spans, tracing.KindNode), total)
	}
	// Job run spans carry the attributable (solo + co-located) share;
	// adding the idle remainder recovers the full bill.
	runJ := tracing.TotalEnergyJ(spans, tracing.KindRun)
	if e := relErr(runJ+ph.IdleJ, total); e > 1e-9 {
		t.Errorf("run spans + idle off by %.2e relative (run %v + idle %v, want %v)",
			e, runJ, ph.IdleJ, total)
	}
	if e := relErr(runJ, ph.SoloJ+ph.CoJ); e > 1e-9 {
		t.Errorf("run spans %v != solo+co %v (rel %.2e)", runJ, ph.SoloJ+ph.CoJ, e)
	}
	// The map/reduce split shares each run's energy exactly.
	mapJ := tracing.TotalEnergyJ(spans, tracing.KindMap)
	redJ := tracing.TotalEnergyJ(spans, tracing.KindReduce)
	if e := relErr(mapJ+redJ, runJ); e > 1e-9 {
		t.Errorf("map %v + reduce %v != run %v (rel %.2e)", mapJ, redJ, runJ, e)
	}
	// The rolled-up report re-integrates the phase accumulator.
	rep := tr.Report()
	if e := relErr(rep.Phases.TotalJ(), total); e > 1e-9 {
		t.Errorf("report phase total %v != energy %v", rep.Phases.TotalJ(), total)
	}
	if e := relErr(rep.Phases.IdleJ, ph.IdleJ); e > 1e-9 {
		t.Errorf("report idle %v != accumulator idle %v", rep.Phases.IdleJ, ph.IdleJ)
	}
	if e := relErr(rep.AttributedJ, runJ); e > 1e-9 {
		t.Errorf("report attributed %v != run span sum %v", rep.AttributedJ, runJ)
	}
}

// TestSchedulerTraceLifecycle checks span structure against the
// scheduler's completion records.
func TestSchedulerTraceLifecycle(t *testing.T) {
	tr, s := tracedRun(t)
	done := s.Completed()
	rep := tr.Report()
	if len(rep.Jobs) != len(done) {
		t.Fatalf("report has %d jobs, scheduler completed %d", len(rep.Jobs), len(done))
	}
	byID := map[int]CompletedJob{}
	for _, c := range done {
		byID[c.ID] = c
	}
	for _, j := range rep.Jobs {
		c, ok := byID[j.Job]
		if !ok {
			t.Fatalf("report job %d not in completions", j.Job)
		}
		if j.App != c.App || j.Class != c.Class.String() || j.Node != c.Node {
			t.Errorf("job %d identity mismatch: report %+v vs completion %+v", j.Job, j, c)
		}
		if e := relErr(j.WaitS, c.Started-c.Submitted); e > 1e-9 {
			t.Errorf("job %d wait %v != %v", j.Job, j.WaitS, c.Started-c.Submitted)
		}
		if e := relErr(j.RunS, c.Finished-c.Started); e > 1e-9 {
			t.Errorf("job %d run %v != %v", j.Job, j.RunS, c.Finished-c.Started)
		}
		if e := relErr(j.MapS+j.ReduceS, j.RunS); j.RunS > 0 && e > 1e-9 {
			t.Errorf("job %d map %v + reduce %v != run %v", j.Job, j.MapS, j.ReduceS, j.RunS)
		}
		if j.Config == "" {
			t.Errorf("job %d has no config attribute", j.Job)
		}
		if j.EnergyJ <= 0 || j.EDP != j.EnergyJ*j.RunS {
			t.Errorf("job %d energy/EDP wrong: %+v", j.Job, j)
		}
	}
	// No open spans remain after Run.
	for _, sp := range tr.Spans() {
		if sp.Open() {
			t.Errorf("span %d (%s %q) left open", sp.ID, sp.Kind, sp.Name)
		}
	}
	// Pairing happened somewhere in this workload: at least one run span
	// carries a partner.
	partners := 0
	for _, sp := range tr.Spans() {
		if sp.Kind == tracing.KindRun && sp.Attrs.Partner != "" {
			partners++
		}
	}
	if partners == 0 {
		t.Error("no run span carries a partner; pairing attribution broken")
	}
}

// TestSchedulerTraceChromeExport validates the end-to-end Chrome JSON.
func TestSchedulerTraceChromeExport(t *testing.T) {
	tr, _ := tracedRun(t)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var complete int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("chrome trace has no complete events")
	}
}
