package core_test

import (
	"fmt"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/scenario"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// TestRecordPoolBounded runs a churn-shaped stream — unknown
// applications at continuous sizes, ProfileMemo off, every job its own
// profile — of 20,000 and of 80,000 jobs through 16 stealing shards. A
// record lives only while its job does (DESIGN.md §46), so the records
// the plane carves follow the jobs in the system, not the stream's
// length: the longer stream's must be within 10% of the shorter one's,
// and a small share of either stream.
func TestRecordPoolBounded(t *testing.T) {
	model := mapreduce.NewModel(cluster.AtomC2758())
	db, err := core.BuildDatabase(core.NewProfiler(model, sim.NewRNG(42)), core.NewOracle(model),
		workloads.Training(), core.BuildOptions{Sizes: []float64{1, 5}, ConfigStride: 13})
	if err != nil {
		t.Fatal(err)
	}
	lkt := &core.LkTSTP{DB: db}
	carved := func(jobs int) int {
		spec, err := scenario.ParseSpec(fmt.Sprintf(
			"gen:jobs=%d;arrivals=poisson:2;sizes=lognormal:mu=1.2,sigma=0.8,max=20;mix=zipf:s=0.8,tenants=100000,unknown", jobs))
		if err != nil {
			t.Fatal(err)
		}
		spec.Seed = 1
		arrivals, err := scenario.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewShardedScheduler(model, db, core.NewProfiler(model, sim.NewRNG(1)),
			func() core.STP { return core.NewMemoSTP(lkt, nil) }, 256, core.ShardedConfig{Shards: 16, Steal: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals {
			c.Submit(a.App, a.SizeGB, a.At)
		}
		if _, _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if n := len(c.Completed()); n != jobs {
			t.Fatalf("%d of %d jobs completed", n, jobs)
		}
		return core.RecordsCarved(c)
	}
	short, long := carved(20000), carved(80000)
	t.Logf("records carved: %d for 20,000 jobs, %d for 80,000", short, long)
	if 10*long > 11*short || 10*long < 9*short || short > 20000/20 {
		t.Fatalf("records carved: %d for 20,000 jobs, %d for 80,000; want within 10%% of each other and under 1,000",
			short, long)
	}
}
