package core_test

import (
	"math"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/scenario"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// routerPin is what one stream must reproduce: every shard's memo
// hit/miss counts, its tune-table probe and insert counts and its
// steady-memo hit and miss counts, the entries the plane's one steady
// memo holds at the end of the run, the steal count, a digest of the completion log,
// and the makespan and energy bits.
type routerPin struct {
	hits, misses             [16]int64
	probes, inserts          [16]int64
	steadyHits, steadyMisses [16]int64
	steady                   int
	steals                   int
	digest                   uint64
	makespan                 uint64
	energy                   uint64
}

// routerStreams are reduced forms of the repository benchmark streams:
// the same arrival, size and tenant mix at fewer jobs on fewer nodes,
// with the arrival gap scaled by the node count so utilization keeps
// its shape. Each carries values recorded at the code before the
// change they guard: the memo, steady-entry, steal and completion
// values before the router stopped interning observations (DESIGN.md
// §33), the tune-table and steady-memo counts before the pair kernel
// and the key-only tables (DESIGN.md §34). Of those counts only the
// tune-table probes and inserts of the two ProfileMemo-off streams
// moved with that change: a single-use record's pair never reaches the
// table, so they fell to 0. The steady-memo counts and entries were
// re-recorded when the shards' private steady memos became one table
// for the plane (DESIGN.md §37): a set one shard solved is a hit on
// every other, so hits rose, misses fell and the entries are no longer
// summed over 16 tables. No other value moved.
var routerStreams = []struct {
	name        string
	nodes       int
	spec        string
	profileMemo bool
	want        routerPin
}{
	{"recurring", 256, "gen:jobs=4000;arrivals=poisson:0.56;sizes=pareto:alpha=1.6,min=1,max=12;mix=zipf:s=1.1,tenants=64", true, routerPin{
		hits:         [16]int64{249, 203, 527, 163, 119, 137, 12, 119, 0, 175, 0, 71, 155, 0, 0, 259},
		misses:       [16]int64{214, 204, 217, 212, 151, 70, 61, 27, 0, 136, 0, 9, 23, 0, 0, 20},
		probes:       [16]int64{463, 407, 744, 375, 270, 207, 73, 146, 0, 311, 0, 80, 178, 0, 0, 279},
		inserts:      [16]int64{214, 204, 217, 212, 151, 70, 61, 27, 0, 136, 0, 9, 23, 0, 0, 20},
		steadyHits:   [16]int64{711, 633, 1254, 563, 457, 327, 152, 294, 0, 457, 0, 164, 336, 0, 0, 547},
		steadyMisses: [16]int64{245, 219, 278, 241, 145, 115, 49, 53, 0, 192, 0, 22, 40, 0, 0, 39},
		steady:       1638, steals: 1854, digest: 0x3f8c1cadf249a6db, makespan: 0x40a87bb1e9decc06, energy: 0x416f3583c6e3babd,
	}},
	{"recurring/noisy", 256, "gen:jobs=4000;arrivals=poisson:0.56;sizes=pareto:alpha=1.6,min=1,max=12;mix=zipf:s=1.1,tenants=64", false, routerPin{
		misses:       [16]int64{454, 426, 722, 401, 265, 199, 72, 150, 0, 311, 0, 82, 183, 0, 0, 281},
		steadyHits:   [16]int64{657, 659, 1222, 613, 466, 330, 154, 292, 0, 457, 0, 162, 337, 0, 0, 543},
		steadyMisses: [16]int64{279, 223, 271, 241, 134, 97, 40, 61, 0, 192, 0, 26, 46, 0, 0, 44},
		steady:       1654, steals: 1888, digest: 0x1a036af8c781cce9, makespan: 0x40a7500e9d0c39e3, energy: 0x416e0eeaf7a6aefc,
	}},
	{"churn", 64, "gen:jobs=2000;arrivals=poisson:8;sizes=lognormal:mu=1.2,sigma=0.8,max=20;mix=zipf:s=0.8,tenants=100000,unknown", false, routerPin{
		misses:       [16]int64{184, 187, 164, 234, 100, 169, 60, 222, 23, 253, 8, 0, 106, 0, 0, 0},
		steadyHits:   [16]int64{56, 70, 61, 78, 17, 54, 21, 112, 4, 132, 1, 0, 34, 0, 0, 0},
		steadyMisses: [16]int64{328, 322, 292, 423, 213, 302, 128, 393, 61, 399, 23, 0, 186, 0, 0, 0},
		steady:       3070, steals: 1020, digest: 0xd2e9d1f89bd4b73c, makespan: 0x40d2e2466432c65a, energy: 0x4178f0243759b696,
	}},
	{"backlog", 32, "gen:jobs=4000;arrivals=poisson:2;sizes=pareto:alpha=1.6,min=1,max=12;mix=zipf:s=1.5,tenants=64", true, routerPin{
		hits:         [16]int64{327, 533, 434, 83, 72, 89, 78, 100, 92, 84, 116, 100, 125, 161, 158, 163},
		misses:       [16]int64{79, 62, 50, 110, 107, 104, 138, 118, 98, 94, 51, 50, 53, 44, 39, 47},
		probes:       [16]int64{406, 595, 484, 193, 179, 193, 216, 218, 190, 178, 167, 150, 178, 205, 197, 210},
		inserts:      [16]int64{79, 62, 50, 110, 107, 104, 138, 118, 98, 94, 51, 50, 53, 44, 39, 47},
		steadyHits:   [16]int64{727, 1134, 902, 276, 271, 293, 317, 337, 290, 285, 301, 268, 316, 378, 370, 388},
		steadyMisses: [16]int64{87, 60, 68, 113, 90, 95, 118, 104, 92, 73, 35, 34, 42, 35, 26, 34},
		steady:       1106, steals: 3007, digest: 0x3347fd5209901939, makespan: 0x40c06b5c4360670a, energy: 0x415b3adee4d68725,
	}},
}

// TestRouterStreamPins runs reduced recurring, churn and backlog
// streams through 16 stealing shards wired as the repository benchmark
// wires them (ProfileMemo on for recurring and backlog, off for churn),
// plus recurring with ProfileMemo off, and checks each against its
// recorded values. How a profile is keyed and how a solve or a tune is
// cached must change no tuning cache count, no steady solve and no
// completion.
func TestRouterStreamPins(t *testing.T) {
	model := mapreduce.NewModel(cluster.AtomC2758())
	db, err := core.BuildDatabase(core.NewProfiler(model, sim.NewRNG(42)), core.NewOracle(model),
		workloads.Training(), core.BuildOptions{Sizes: []float64{1, 5}, ConfigStride: 13})
	if err != nil {
		t.Fatal(err)
	}
	lkt := &core.LkTSTP{DB: db}
	for _, s := range routerStreams {
		spec, err := scenario.ParseSpec(s.spec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Seed = 1
		arrivals, err := scenario.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		var memos []*core.MemoSTP
		c, err := core.NewShardedScheduler(model, db, core.NewProfiler(model, sim.NewRNG(1)),
			func() core.STP {
				m := core.NewMemoSTP(lkt, nil)
				memos = append(memos, m)
				return m
			}, s.nodes, core.ShardedConfig{Shards: 16, Steal: true, ProfileMemo: s.profileMemo})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals {
			c.Submit(a.App, a.SizeGB, a.At)
		}
		makespan, energy, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var got routerPin
		for i, m := range memos {
			got.hits[i], got.misses[i] = m.HitMiss()
			got.probes[i], got.inserts[i] = core.TuneTableCounts(m)
		}
		sh, sm := core.SteadyMemoCounts(c)
		copy(got.steadyHits[:], sh)
		copy(got.steadyMisses[:], sm)
		got.steady, got.steals = core.SteadyMemoEntries(c), c.Steals()
		got.digest = completionDigest(c.Completed())
		got.makespan, got.energy = math.Float64bits(makespan), math.Float64bits(energy)
		if got != s.want {
			t.Errorf("%s: got %#v\nwant %#v", s.name, got, s.want)
		}
	}
}
