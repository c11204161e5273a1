package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/scenario"
	"ecost/internal/sim"
	"ecost/internal/trace"
)

// shards is the shard count of every workload: the sharded control plane
// at the scale its benchmarks were built for, with stealing on.
const shards = 16

// workload is one arrival stream and the cluster it runs on. Why each
// exists, and which layer it stresses, is in bench/README.md.
type workload struct {
	name        string
	nodes       int
	spec        string
	profileMemo bool
}

var workloads = []workload{
	// Recurring tenants at about 40% slot utilization: the memo hit path
	// and barrier-free windows.
	{"recurring", 4096, "gen:jobs=100000;arrivals=poisson:0.035;sizes=pareto:alpha=1.6,min=1,max=12;mix=zipf:s=1.1,tenants=64", true},
	// A fresh noisy profile of an unknown application per job: every
	// tune misses the memo and scans the lookup table.
	{"churn", 1024, "gen:jobs=30000;arrivals=poisson:0.5;sizes=lognormal:mu=1.2,sigma=0.8,max=20;mix=zipf:s=0.8,tenants=100000,unknown", false},
	// About 98% utilization: queues never drain, so the drive runs exact
	// barriers with steal passes.
	{"backlog", 256, "gen:jobs=120000;arrivals=poisson:0.25;sizes=pareto:alpha=1.6,min=1,max=12;mix=zipf:s=1.5,tenants=64", true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// arrivals generates the workload's stream from seed.
func (w workload) arrivals(seed int64) ([]trace.Arrival, error) {
	spec, err := scenario.ParseSpec(w.spec)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	spec.Seed = seed
	return scenario.Generate(spec)
}

// expectingSTP is what the timing decorators wrap: a technique that
// exposes its forecast, so the scheduler's audit path sees it unchanged.
type expectingSTP interface {
	core.STP
	core.ExpectingSTP
}

// plant is the part of the environment a pass reads: the training
// database and the lookup-table technique over it.
type plant struct {
	db  *core.Database
	lkt expectingSTP
}

// timedSTP counts and times the tune calls passing through it and
// forwards the inner answer and forecast unchanged. Each shard gets its
// own, and the control plane hands a shard from one goroutine to the
// next only through a channel or WaitGroup, so plain fields suffice.
type timedSTP struct {
	inner expectingSTP
	calls int64
	ns    int64
}

// Name implements core.STP.
func (t *timedSTP) Name() string { return t.inner.Name() }

// PredictBest implements core.STP.
func (t *timedSTP) PredictBest(a, b core.Observation) ([2]mapreduce.Config, error) {
	cfg, _, err := t.PredictBestExpected(a, b)
	return cfg, err
}

// PredictBestExpected implements core.ExpectingSTP.
func (t *timedSTP) PredictBestExpected(a, b core.Observation) ([2]mapreduce.Config, core.PairExpectation, error) {
	start := time.Now()
	cfg, exp, err := t.inner.PredictBestExpected(a, b)
	t.ns += time.Since(start).Nanoseconds()
	t.calls++
	return cfg, exp, err
}

// pass is one replay of the stream through a fresh control plane.
type pass struct {
	jobs int

	// Wall time of the three public calls the benchmark times.
	submitNs, runNs, mergeNs int64

	// Tune layer, read on traced passes only: calls and time through
	// the decorator over each shard's MemoSTP (tune) and over the
	// LkTSTP inside it (lkt), and the memos' hit/miss counts.
	tuneCalls, tuneNs int64
	lktCalls, lktNs   int64
	hits, misses      int64

	barriers core.BarrierStats
	steals   int

	// Go runtime deltas over Submit, Run and Completed.
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcCPUs, cpuS        float64
	heapLiveBytes       uint64
	// peakRSSMB is the process's peak resident set during the pass.
	peakRSSMB float64

	sim    simResult
	failed int
}

// jobsPerS is simulated jobs per host second over Submit, Run and
// Completed.
func (p pass) jobsPerS() float64 {
	return float64(p.jobs) / (float64(p.submitNs+p.runNs+p.mergeNs) / 1e9)
}

var rtSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

// runtimeState is a snapshot of the counters a pass reports deltas of.
type runtimeState struct {
	mem runtime.MemStats
	rt  []rtmetrics.Sample
}

func readRuntime() runtimeState {
	var s runtimeState
	runtime.ReadMemStats(&s.mem)
	s.rt = make([]rtmetrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		s.rt[i].Name = name
	}
	rtmetrics.Read(s.rt)
	return s
}

// runPass replays arrivals through a fresh ShardedScheduler wired as
// ecost-sim wires it, with a fresh execution model and a profiler seeded
// from seed. traced adds the timing decorators around the tuners. The
// pass is checked; a Run error fails every job.
func runPass(p plant, w workload, arrivals []trace.Arrival, seed int64, traced bool) pass {
	spec := cluster.AtomC2758()
	model := mapreduce.NewModel(spec)
	prof := core.NewProfiler(model, sim.NewRNG(seed))
	var memos []*core.MemoSTP
	var outer, inner []*timedSTP
	newTuner := func() core.STP {
		if !traced {
			return core.NewMemoSTP(p.lkt, nil)
		}
		in := &timedSTP{inner: p.lkt}
		m := core.NewMemoSTP(in, nil)
		out := &timedSTP{inner: m}
		memos, inner, outer = append(memos, m), append(inner, in), append(outer, out)
		return out
	}
	sched, err := core.NewShardedScheduler(model, p.db, prof, newTuner, w.nodes,
		core.ShardedConfig{Shards: shards, Steal: true, ProfileMemo: w.profileMemo})
	if err != nil {
		return pass{jobs: len(arrivals), failed: len(arrivals)}
	}
	sched.SetFastAccrual(true)

	runtime.GC()
	// The process peak is set by whichever pass GCs last, so each pass
	// reads its own peak. Where the kernel refuses the reset the reading
	// is the process peak so far, which still bounds the pass's.
	_ = resetPeakRSS()
	before := readRuntime()
	t0 := time.Now()
	for _, a := range arrivals {
		sched.Submit(a.App, a.SizeGB, a.At)
	}
	t1 := time.Now()
	makespan, energy, runErr := sched.Run()
	t2 := time.Now()
	done := sched.Completed()
	t3 := time.Now()
	after := readRuntime()

	r := pass{
		jobs:          len(arrivals),
		submitNs:      t1.Sub(t0).Nanoseconds(),
		runNs:         t2.Sub(t1).Nanoseconds(),
		mergeNs:       t3.Sub(t2).Nanoseconds(),
		barriers:      sched.BarrierStats(),
		steals:        sched.Steals(),
		allocBytes:    after.mem.TotalAlloc - before.mem.TotalAlloc,
		mallocs:       after.mem.Mallocs - before.mem.Mallocs,
		gcCycles:      after.mem.NumGC - before.mem.NumGC,
		gcCPUs:        after.rt[0].Value.Float64() - before.rt[0].Value.Float64(),
		cpuS:          after.rt[1].Value.Float64() - before.rt[1].Value.Float64(),
		heapLiveBytes: after.rt[2].Value.Uint64(),
		peakRSSMB:     peakRSSMB(),
	}
	for _, m := range memos {
		h, mi := m.HitMiss()
		r.hits += h
		r.misses += mi
	}
	for i := range outer {
		r.tuneCalls += outer[i].calls
		r.tuneNs += outer[i].ns
		r.lktCalls += inner[i].calls
		r.lktNs += inner[i].ns
	}
	if runErr != nil {
		r.failed = len(arrivals)
		return r
	}
	r.sim = summarize(done, w.nodes, spec, makespan, energy)
	r.failed = check(arrivals, done, w.nodes, spec, makespan, energy)
	return r
}
