package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/scenario"
	"ecost/internal/sim"
	"ecost/internal/trace"
	"ecost/internal/tracing"
)

// scenarioSpec is the small mixed-shape stream the scenario tests run:
// bursty arrivals, heavy-tailed sizes, recurring zipf tenants.
func scenarioSpec(jobs int) scenario.Spec {
	return scenario.Spec{
		Jobs: jobs,
		Seed: 17,
		Arrivals: scenario.ArrivalSpec{Kind: scenario.ArrivalMMPP,
			CalmMean: 400, BurstMean: 40, CalmStay: 0.9, BurstStay: 0.8},
		Sizes: scenario.SizeSpec{Kind: scenario.SizePareto, Alpha: 1.6, Min: 1, Max: 12},
		Mix:   scenario.MixSpec{Kind: scenario.MixZipf, S: 1.1, Tenants: 6},
	}
}

// instrumentedRun drives one fully-observed single-shard online run
// (metrics + tracing + audit, memoized LkT tuner — the same
// stack ecost-sim wires up) over an arrival stream and returns the
// three deterministic exports: the metrics snapshot text, the span
// timeline, and the decision JSONL.
func instrumentedRun(t *testing.T, env *Env, arrivals []trace.Arrival, nodes int) (snap, timeline, decisions string) {
	t.Helper()
	reg := metrics.NewRegistry()
	aud := audit.NewLog(audit.DriftConfig{})
	model := mapreduce.NewModel(cluster.AtomC2758())
	tuner := core.NewMemoSTP(env.LkT, nil)
	prof := core.NewProfiler(model, sim.NewRNG(env.Seed))
	sched, err := core.NewShardedScheduler(model, env.DB, prof, func() core.STP { return tuner }, nodes, core.ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched.SetMetrics(reg)
	tr := tracing.New()
	sched.SetTracer(tr)
	sched.SetAudit(aud)
	for _, a := range arrivals {
		sched.Submit(a.App, a.SizeGB, a.At)
	}
	if _, _, err := sched.Run(); err != nil {
		t.Fatal(err)
	}
	var snapBuf, tlBuf, decBuf bytes.Buffer
	if err := reg.Snapshot(false).WriteText(&snapBuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteTimeline(&tlBuf); err != nil {
		t.Fatal(err)
	}
	if err := aud.WriteJSONL(&decBuf); err != nil {
		t.Fatal(err)
	}
	return snapBuf.String(), tlBuf.String(), decBuf.String()
}

// TestRecordReplayGolden is the acceptance golden: a generated stream
// recorded to JSONL and replayed produces byte-identical metrics
// snapshot, span timeline and decision JSONL through the online
// scheduler, at GOMAXPROCS 1 and 4.
func TestRecordReplayGolden(t *testing.T) {
	env := sharedEnv(t)
	generated, err := scenario.Generate(scenarioSpec(24))
	if err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	if err := scenario.WriteTrace(&rec, generated); err != nil {
		t.Fatal(err)
	}
	replayed, err := scenario.ReadTrace(bytes.NewReader(rec.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		snapGen, tlGen, decGen := instrumentedRun(t, env, generated, 2)
		snapRep, tlRep, decRep := instrumentedRun(t, env, replayed, 2)
		if snapGen != snapRep {
			t.Fatalf("GOMAXPROCS=%d: metrics snapshot diverged between generated and replayed run", procs)
		}
		if tlGen != tlRep {
			t.Fatalf("GOMAXPROCS=%d: span timeline diverged between generated and replayed run", procs)
		}
		if decGen != decRep {
			t.Fatalf("GOMAXPROCS=%d: decision JSONL diverged between generated and replayed run", procs)
		}
		if !strings.Contains(tlGen, "job") {
			t.Fatal("timeline carries no job spans; the run did not execute")
		}
	}

	// Cross-GOMAXPROCS: the exports themselves must not depend on
	// parallelism either.
	runtime.GOMAXPROCS(1)
	s1, t1, d1 := instrumentedRun(t, env, generated, 2)
	runtime.GOMAXPROCS(4)
	s4, t4, d4 := instrumentedRun(t, env, generated, 2)
	if s1 != s4 || t1 != t4 || d1 != d4 {
		t.Fatal("instrumented exports diverged across GOMAXPROCS 1 vs 4")
	}
}

// TestOnlineScenarioStats: the scenario runner reports coherent
// queueing observables on a saturating stream.
func TestOnlineScenarioStats(t *testing.T) {
	env := sharedEnv(t)
	spec := scenarioSpec(20)
	tbl, data, qs, err := OnlineScenario(env, spec, 2, core.ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if data.Jobs != 20 {
		t.Fatalf("ran %d jobs, want 20", data.Jobs)
	}
	if qs.Utilization <= 0 || qs.Utilization > 1 {
		t.Fatalf("utilization %v outside (0, 1]", qs.Utilization)
	}
	if qs.SojournP50 > qs.SojournP95 || qs.SojournP95 > qs.SojournP99 {
		t.Fatalf("sojourn percentiles not monotone: %v %v %v", qs.SojournP50, qs.SojournP95, qs.SojournP99)
	}
	if qs.WaitP50 > qs.WaitP95 || qs.WaitP95 > qs.WaitP99 {
		t.Fatalf("wait percentiles not monotone: %v %v %v", qs.WaitP50, qs.WaitP95, qs.WaitP99)
	}
	if qs.SojournP99 <= 0 {
		t.Fatal("p99 sojourn is zero; jobs take time")
	}
	if float64(qs.MaxQueueLen) < qs.P95QueueLen || qs.P95QueueLen < 0 {
		t.Fatalf("queue-length stats incoherent: max %d p95 %v", qs.MaxQueueLen, qs.P95QueueLen)
	}
	s := tbl.String()
	for _, want := range []string{"utilization", "sojourn p50/p95/p99", "max queue length"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

// TestUtilizationCurve: sweeping the arrival tempo from idle to
// saturation raises utilization monotonically (within measurement
// slack) and keeps every point well-formed. Each point reruns the
// scenario with the same seed and substreams, so only the arrival
// tempo changes (the Split contract keeps apps and sizes pinned).
func TestUtilizationCurve(t *testing.T) {
	env := sharedEnv(t)
	base := scenarioSpec(16)
	var util []float64
	for _, gap := range []float64{2000, 400, 50} {
		spec := base
		spec.Arrivals = withMeanGap(base.Arrivals, gap)
		_, data, qs, err := OnlineScenario(env, spec, 2, core.ShardedConfig{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		if qs.Utilization <= 0 || qs.Utilization > 1 {
			t.Fatalf("gap %v: utilization %v outside (0, 1]", gap, qs.Utilization)
		}
		if data.EDP <= 0 {
			t.Fatalf("gap %v: EDP %v", gap, data.EDP)
		}
		util = append(util, qs.Utilization)
	}
	// Faster arrivals pack the cluster tighter: the saturated end must
	// clearly exceed the idle end.
	if !(util[2] > util[0]) {
		t.Fatalf("utilization did not rise with load: %v vs %v", util[2], util[0])
	}
}

// withMeanGap retunes an arrival process to a new mean gap, preserving
// its shape: Poisson/fixed/diurnal move their mean, MMPP scales both
// regime means proportionally, and the batch process becomes Poisson
// (a batch has no rate to sweep).
func withMeanGap(a scenario.ArrivalSpec, gap float64) scenario.ArrivalSpec {
	switch a.Kind {
	case scenario.ArrivalMMPP:
		// Stationary regime occupancy from the stay probabilities.
		pc := (1 - a.BurstStay) / ((1 - a.CalmStay) + (1 - a.BurstStay))
		cur := pc*a.CalmMean + (1-pc)*a.BurstMean
		f := gap / cur
		a.CalmMean *= f
		a.BurstMean *= f
	case scenario.ArrivalFixed, scenario.ArrivalPoisson, scenario.ArrivalDiurnal:
		a.Mean = gap
	default:
		a = scenario.ArrivalSpec{Kind: scenario.ArrivalPoisson, Mean: gap}
	}
	return a
}

// TestStreamStatsUnion pins the busy-time union on a hand-built
// completion set: two overlapping residents on one node must not
// double-count.
func TestStreamStatsUnion(t *testing.T) {
	done := []core.CompletedJob{
		{Node: 0, Submitted: 0, Started: 0, Finished: 10},
		{Node: 0, Submitted: 0, Started: 5, Finished: 15}, // overlaps 5..10
		{Node: 1, Submitted: 2, Started: 16, Finished: 20},
	}
	qs := StreamStats(done, 2, 20)
	// Node 0 busy 0..15 (15s), node 1 busy 16..20 (4s) → 19/40.
	if got, want := qs.Utilization, 19.0/40.0; got != want {
		t.Fatalf("utilization %v, want %v", got, want)
	}
	// Job 2 waits 0..5 and job 3 waits 2..16: depth 2 during 2..5.
	if qs.MaxQueueLen != 2 {
		t.Fatalf("max queue length %d, want 2", qs.MaxQueueLen)
	}
	// Depth timeline: 1 over 0..2, 2 over 2..5, 1 over 5..16, 0 after.
	if got, want := qs.MeanQueueLen, (2*1+3*2+11*1)/20.0; got != want {
		t.Fatalf("mean queue length %v, want %v", got, want)
	}
}
