package core

import (
	"bytes"
	"runtime"
	"testing"

	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// TestParallelCOLAOAcrossGOMAXPROCS pins the parallel pair search to one
// OS thread and compares against the multi-worker result: the argmin
// (configuration and EDP bits) must not depend on the degree of
// parallelism.
func TestParallelCOLAOAcrossGOMAXPROCS(t *testing.T) {
	fixture(t)
	a := workloads.MustLookup("gp")
	b := workloads.MustLookup("hmm")
	wide, err := fix.oracle.searchPair(nil, a, 1024, b, 5120)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	narrow, err := fix.oracle.searchPair(nil, a, 1024, b, 5120)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.Cfg != wide.Cfg {
		t.Fatalf("GOMAXPROCS=1 chose %v, GOMAXPROCS=%d chose %v", narrow.Cfg, old, wide.Cfg)
	}
	if narrow.Out.EDP != wide.Out.EDP || narrow.Out.Makespan != wide.Out.Makespan ||
		narrow.Out.EnergyJ != wide.Out.EnergyJ {
		t.Fatalf("outcomes differ across parallelism: %+v vs %+v", narrow.Out, wide.Out)
	}
}

// metricsRun drives one fully instrumented online simulation and returns
// the deterministic snapshot text plus the scheduler for invariant
// checks. Each call builds a fresh profiler from the same seed so the
// measurement noise sequence is identical run to run.
func metricsRun(t *testing.T) (string, *ShardedScheduler) {
	t.Helper()
	fixture(t)
	reg := metrics.NewRegistry()
	prof := NewProfiler(fix.model, sim.NewRNG(99))
	s := oneShard(t, fix.lkt, prof, 2)
	s.SetMetrics(reg)
	apps := []string{"nb", "pr", "km", "svm", "cf", "hmm", "st", "ts"}
	for i, name := range apps {
		s.Submit(workloads.MustLookup(name), 5, float64(i)*40)
	}
	if _, _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Snapshot(false).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), s
}

// TestSchedulerMetricsSnapshotGolden runs the same instrumented
// simulation twice and requires byte-identical snapshots — the property
// `ecost-sim -metrics` relies on.
func TestSchedulerMetricsSnapshotGolden(t *testing.T) {
	first, _ := metricsRun(t)
	second, _ := metricsRun(t)
	if first != second {
		t.Fatalf("metrics snapshot not deterministic:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	for _, want := range []string{
		"sched.submitted", "sched.completed", "sched.queue_depth",
		"stp.predictions", "power.energy_j.", "sched.wait_s.",
	} {
		if !bytes.Contains([]byte(first), []byte(want)) {
			t.Errorf("snapshot missing %q:\n%s", want, first)
		}
	}
}

// TestSchedulerMetricsInvariants cross-checks the instruments against
// the scheduler's own accounting.
func TestSchedulerMetricsInvariants(t *testing.T) {
	_, s := metricsRun(t)
	if got, want := len(s.Completed()), 8; got != want {
		t.Fatalf("completed %d jobs, want %d", got, want)
	}
	ph := s.Phases()
	if ph.TotalJ() <= 0 {
		t.Fatalf("phase accumulator empty: %+v", ph)
	}
	diff := ph.TotalJ() - s.EnergyJ()
	if diff < -1e-6 || diff > 1e-6 {
		t.Errorf("phase split %.6f J disagrees with integrated energy %.6f J", ph.TotalJ(), s.EnergyJ())
	}
	if ph.CoJ <= 0 {
		t.Errorf("no co-located energy recorded; pairing instrumentation broken: %+v", ph)
	}
}
