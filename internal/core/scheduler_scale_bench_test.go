package core

import (
	"testing"

	"ecost/internal/audit"
	"ecost/internal/cluster"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/tracing"
)

// tracedBusyScheduler builds a fully instrumented 4-node shard with
// every node co-running two WS4 jobs: eight arrivals are delivered at
// t=0, so the placements happen but no completion has fired yet.
func tracedBusyScheduler(tb testing.TB) *shard {
	tb.Helper()
	fixture(tb)
	s := newShard(new(eventQueue), new(memoTable[steadyKey, steadyVal]), fix.model, fix.db, fix.lkt, 4, 0)
	s.setMetrics(metrics.NewRegistry())
	s.setTracer(tracing.New())
	s.setAudit(audit.NewLog(audit.DriftConfig{}))
	wl, err := Scenario("WS4")
	if err != nil {
		tb.Fatal(err)
	}
	prof := NewProfiler(fix.model, sim.NewRNG(3))
	for i, j := range wl.Jobs[:8] {
		obs, err := prof.Observe(*j.App.App(), j.SizeGB)
		if err != nil {
			tb.Fatal(err)
		}
		s.pending++
		s.arrive(i, &profileRec{obs: obs, spec: i + 1}, 0)
	}
	for _, n := range s.nodes {
		if len(n.residents) == 0 {
			tb.Fatalf("node %d idle; want every node busy", n.id)
		}
	}
	return s
}

// TestAccrueEnergyZeroAlloc is the satellite acceptance check: with
// metrics, tracing, AND the decision audit all attached, the energy
// accrual path and a node's bill must not allocate — the per-node watts
// cache and the scratch spec buffer removed the last per-accrual
// allocations.
func TestAccrueEnergyZeroAlloc(t *testing.T) {
	s := tracedBusyScheduler(t)
	allocs := testing.AllocsPerRun(100, func() {
		s.lastUpdate = -1 // force dt > 0 so the full accrual body runs
		s.accrueEnergy()
		s.obs.bill(s.nodes[0])
	})
	if allocs != 0 {
		t.Fatalf("accrueEnergy and bill allocate %v times per call with tracing+audit enabled; want 0", allocs)
	}
}

// BenchmarkAccrueEnergyTraced measures the observed per-event energy
// work with metrics, tracing and audit attached and all nodes
// co-running: one accrual (the shard's three phase sums and the
// observer's energy gauges) plus one node's bill (its occupancy span
// and its two residents' run spans and audit records, DESIGN.md §39),
// taking the nodes in turn. Guarded in CI via BENCH_PERF.json: must
// stay allocation-free.
func BenchmarkAccrueEnergyTraced(b *testing.B) {
	s := tracedBusyScheduler(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.lastUpdate = -1
		s.accrueEnergy()
		s.obs.bill(s.nodes[i%len(s.nodes)])
	}
}

// disabledScheduler builds the smallest possible shard with every
// observability sink off, for benchmarking the disabled fast paths.
func disabledScheduler(tb testing.TB) *shard {
	tb.Helper()
	model := mapreduce.NewModel(cluster.AtomC2758())
	db := &Database{}
	return newShard(new(eventQueue), new(memoTable[steadyKey, steadyVal]), model, db, &LkTSTP{DB: db}, 1, 0)
}

// BenchmarkDisabledDepthSample measures the disabled path of the
// place hook, which took over the per-placement queue-depth sample:
// with observability fully off it must stay a single nil check
// (sub-ns, zero alloc; guarded in CI).
func BenchmarkDisabledDepthSample(b *testing.B) {
	s := disabledScheduler(b)
	n, oj := s.nodes[0], &onlineJob{job: &Job{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.obs != nil {
			s.obs.place(n, oj)
		}
	}
}

// BenchmarkDisabledOccupancyRoll measures the disabled path of the
// complete hook, which took over the occupancy-span roll, with
// observability fully off (sub-ns, zero alloc; guarded in CI).
func BenchmarkDisabledOccupancyRoll(b *testing.B) {
	s := disabledScheduler(b)
	n, oj := s.nodes[0], &onlineJob{job: &Job{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.obs != nil {
			s.obs.complete(n, oj)
		}
	}
}

// BenchmarkOnlineLargeCluster is the tentpole scale benchmark: a
// thousand-node cluster fed a long recurring-job stream. Short mode
// (what CI's bench-guard runs) uses 256 nodes × 2000 jobs; full mode
// 1024 × 20000. The mean interarrival scales inversely with cluster
// size so the offered load — and therefore queue behavior — is
// comparable across sizes.
func BenchmarkOnlineLargeCluster(b *testing.B) {
	fixture(b)
	nodes, jobs := 1024, 20000
	if testing.Short() {
		nodes, jobs = 256, 2000
	}
	wl, err := Scenario("WS4")
	if err != nil {
		b.Fatal(err)
	}
	mean := 1536.0 / float64(nodes)
	completed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof := NewProfiler(fix.model, sim.NewRNG(17))
		s, err := NewShardedScheduler(fix.model, fix.db, prof,
			func() STP { return NewMemoSTP(fix.lkt, nil) }, nodes, ShardedConfig{Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		rng := sim.NewRNG(18)
		at := 0.0
		for j := 0; j < jobs; j++ {
			spec := wl.Jobs[j%len(wl.Jobs)]
			s.Submit(spec.App, spec.SizeGB, at)
			at += rng.Exp(mean)
		}
		if _, _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
		completed += len(s.Completed())
	}
	b.StopTimer()
	if completed != b.N*jobs {
		b.Fatalf("completed %d jobs, want %d", completed, b.N*jobs)
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "jobs/s")
}
