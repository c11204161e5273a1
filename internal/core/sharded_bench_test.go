package core

import (
	"flag"
	"testing"

	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// shardsFlag overrides the shard count for BenchmarkOnlineShardedCluster
// (0 = the default per size), for shard-sweep measurements:
//
//	go test -bench OnlineShardedCluster -ecost.shards 8 ./internal/core/
var shardsFlag = flag.Int("ecost.shards", 0,
	"shard count for the sharded online benchmark (0 = size default)")

// newBenchSharded builds the sharded benchmarks' run, submitted and
// ready to Run: cycled WS4 jobs at exponential interarrivals of the
// given mean, with stealing and ProfileMemo on and no sink attached.
func newBenchSharded(tb testing.TB, nodes, jobs, shards int, mean float64) *ShardedScheduler {
	wl, err := Scenario("WS4")
	if err != nil {
		tb.Fatal(err)
	}
	prof := NewProfiler(fix.model, sim.NewRNG(17))
	c, err := NewShardedScheduler(fix.model, fix.db, prof,
		func() STP { return NewMemoSTP(fix.lkt, nil) }, nodes,
		ShardedConfig{Shards: shards, Steal: true, ProfileMemo: true})
	if err != nil {
		tb.Fatal(err)
	}
	rng := sim.NewRNG(18)
	at := 0.0
	for j := 0; j < jobs; j++ {
		spec := wl.Jobs[j%len(wl.Jobs)]
		c.Submit(spec.App, spec.SizeGB, at)
		at += rng.Exp(mean)
	}
	return c
}

// benchSharded drives one sharded run and returns completions plus the
// drive cadence (exact barriers vs windows).
func benchSharded(b *testing.B, nodes, jobs, shards int, mean float64) (int, BarrierStats) {
	c := newBenchSharded(b, nodes, jobs, shards, mean)
	if _, _, err := c.Run(); err != nil {
		b.Fatal(err)
	}
	return len(c.Completed()), c.BarrierStats()
}

// BenchmarkOnlineShardedCluster is the PR 8 tentpole benchmark: the
// sharded control plane at 10k+ scale, with work stealing, memoized
// recurring-tenant profiling, and O(1) aggregate accrual all on. Short
// mode (what CI's bench-guard runs) uses 4096 nodes × 40k jobs over 16
// shards; full mode 16384 × 200k — the acceptance point, which must
// clear 100k jobs simulated/s (vs 22.7k for the then-unsharded
// BenchmarkOnlineLargeCluster path). The mean interarrival scales
// inversely with cluster size, matching BenchmarkOnlineLargeCluster's
// offered load.
func BenchmarkOnlineShardedCluster(b *testing.B) {
	fixture(b)
	nodes, jobs, shards := 16384, 200000, 16
	if testing.Short() {
		nodes, jobs, shards = 4096, 40000, 16
	}
	if *shardsFlag > 0 {
		shards = *shardsFlag
	}
	mean := 1536.0 / float64(nodes)
	completed := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := benchSharded(b, nodes, jobs, shards, mean)
		completed += n
	}
	b.StopTimer()
	if completed != b.N*jobs {
		b.Fatalf("completed %d jobs, want %d", completed, b.N*jobs)
	}
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkBarrierElision measures the elided drive itself: a steal-on
// stream at half the sharded benchmark's offered load, so wait queues
// drain between arrival clusters and the control plane alternates
// between exact barriers (queues non-empty — a thief/victim pairing
// could exist) and windows (all queues empty — events fire up to the
// next arrival with no steal pass). Reported metrics:
// %elided is the share of events fired inside windows rather than under
// barriers, ns/epoch the mean drive-step cost across both kinds. The
// guard gates ns/op and allocs/op like every other throughput entry.
func BenchmarkBarrierElision(b *testing.B) {
	fixture(b)
	nodes, jobs, shards := 1024, 20000, 8
	if testing.Short() {
		nodes, jobs, shards = 512, 8000, 8
	}
	mean := 3072.0 / float64(nodes)
	completed := 0
	var stats BarrierStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, s := benchSharded(b, nodes, jobs, shards, mean)
		completed += n
		stats.Barriers += s.Barriers
		stats.Windows += s.Windows
		stats.WindowEvents += s.WindowEvents
	}
	b.StopTimer()
	if completed != b.N*jobs {
		b.Fatalf("completed %d jobs, want %d", completed, b.N*jobs)
	}
	if stats.Barriers == 0 || stats.WindowEvents == 0 {
		b.Fatalf("stream exercised only one drive mode: %+v", stats)
	}
	epochs := stats.Barriers + stats.Windows
	b.ReportMetric(100*stats.ElidedRatio(), "%elided")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(epochs), "ns/epoch")
}

// BenchmarkShardedSubmitNoisy measures Submit alone on a churn-shaped
// stream: applications drawn uniformly from the whole table at
// lognormal sizes capped at 20 GB (mu 1.2, sigma 0.8, as the repository
// benchmark's churn workload draws them), on 16 stealing shards over
// 1024 nodes with ProfileMemo off, so every job takes a fresh noisy
// profile and nearly every (app, size) is new. Building the scheduler
// is outside the timer. ns/job is the cost of one submission. Short
// mode submits 4096 jobs per op, full mode 30000.
func BenchmarkShardedSubmitNoisy(b *testing.B) {
	fixture(b)
	jobs := 30000
	if testing.Short() {
		jobs = 4096
	}
	type arrival struct {
		app      workloads.ID
		size, at float64
	}
	apps := workloads.IDs()
	rng := sim.NewRNG(1)
	stream := make([]arrival, jobs)
	at := 0.0
	for i := range stream {
		stream[i] = arrival{apps[rng.Intn(len(apps))], min(rng.LogNormal(1.2, 0.8), 20), at}
		at += rng.Exp(0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(1)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 1024, ShardedConfig{Shards: 16, Steal: true})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, a := range stream {
			c.Submit(a.app, a.size, a.at)
		}
		if c.err != nil {
			b.Fatal(c.err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "ns/job")
}
