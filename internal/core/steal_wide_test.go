package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/flight"
	"ecost/internal/mapreduce"
	"ecost/internal/scenario"
	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// stealHeavySpec is the CI steal-heavy stream: zipf s=2 tenant skew
// floods a few home queues while their neighbours idle.
const stealHeavySpec = "gen:jobs=2000;arrivals=mmpp:calm=0.1,burst=0.01,pcalm=0.95,pburst=0.9;sizes=pareto:alpha=1.5,min=1;mix=zipf:s=2,tenants=24"

// TestStealPassWideShards pins the steal pass at 80 shards, where the
// set of shards with queued work spans two 64-bit words: the steal
// count, the drive cadence and a digest of every completion must equal
// the values recorded before the pass kept that set (DESIGN.md §25). A
// second run of the stream checks the set itself after every pass, and
// the control plane's invariants after every event.
func TestStealPassWideShards(t *testing.T) {
	model := mapreduce.NewModel(cluster.AtomC2758())
	db, err := core.BuildDatabase(core.NewProfiler(model, sim.NewRNG(42)), core.NewOracle(model),
		workloads.Training(), core.BuildOptions{Sizes: []float64{1, 5}, ConfigStride: 13})
	if err != nil {
		t.Fatal(err)
	}
	lkt := &core.LkTSTP{DB: db}
	spec, err := scenario.ParseSpec(stealHeavySpec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 5
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *core.ShardedScheduler {
		c, err := core.NewShardedScheduler(model, db, core.NewProfiler(model, sim.NewRNG(99)),
			func() core.STP { return core.NewMemoSTP(lkt, nil) }, 160,
			core.ShardedConfig{Shards: 80, Steal: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arrivals {
			c.Submit(a.App, a.SizeGB, a.At)
		}
		return c
	}

	c := build()
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Recorded with the pass that rescanned every queue per thief.
	const (
		wantSteals = 1869
		wantDigest = 0x0e45148adfc08607
	)
	wantStats := core.BarrierStats{Barriers: 3680, Windows: 1, WindowEvents: 320}
	if got := c.Steals(); got != wantSteals {
		t.Errorf("steals = %d, want %d", got, wantSteals)
	}
	if got := c.BarrierStats(); got != wantStats {
		t.Errorf("barrier stats = %+v, want %+v", got, wantStats)
	}
	if got := completionDigest(c.Completed()); got != wantDigest {
		t.Errorf("completion digest = %#x, want %#x", got, uint64(wantDigest))
	}

	checked := build()
	if err := core.DriveCheckingInvariants(checked); err != nil {
		t.Fatal(err)
	}
	if got := checked.Steals(); got != wantSteals {
		t.Errorf("checked drive: steals = %d, want %d", got, wantSteals)
	}
	if got := completionDigest(checked.Completed()); got != wantDigest {
		t.Errorf("checked drive: completion digest = %#x, want %#x", got, uint64(wantDigest))
	}
}

// TestInvariantsStealStream runs the invariant checker on the CI
// steal-heavy gen: stream (seed 5) through 16 stealing, traced shards
// over 64 nodes, with ProfileMemo on and off, and checks that the
// checked drive completes the same jobs and bills the same energy, to
// the bit, as an untraced Run. The checked drive has a flight recorder
// attached too, so the checker holds its steal-flow matrix to the
// plane's steal count after every steal pass.
func TestInvariantsStealStream(t *testing.T) {
	model := mapreduce.NewModel(cluster.AtomC2758())
	db, err := core.BuildDatabase(core.NewProfiler(model, sim.NewRNG(42)), core.NewOracle(model),
		workloads.Training(), core.BuildOptions{Sizes: []float64{1, 5}, ConfigStride: 13})
	if err != nil {
		t.Fatal(err)
	}
	lkt := &core.LkTSTP{DB: db}
	spec, err := scenario.ParseSpec(stealHeavySpec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = 5
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, memo := range []bool{false, true} {
		t.Run(fmt.Sprintf("ProfileMemo=%v", memo), func(t *testing.T) {
			build := func(tr *tracing.Tracer) *core.ShardedScheduler {
				c, err := core.NewShardedScheduler(model, db, core.NewProfiler(model, sim.NewRNG(99)),
					func() core.STP { return core.NewMemoSTP(lkt, nil) }, 64,
					core.ShardedConfig{Shards: 16, Steal: true, ProfileMemo: memo})
				if err != nil {
					t.Fatal(err)
				}
				c.SetTracer(tr)
				for _, a := range arrivals {
					c.Submit(a.App, a.SizeGB, a.At)
				}
				return c
			}
			c := build(tracing.New())
			c.SetFlight(flight.New())
			if err := core.DriveCheckingInvariants(c); err != nil {
				t.Fatal(err)
			}
			if c.Steals() == 0 {
				t.Fatal("the steal-heavy stream fired no steals")
			}
			ref := build(nil)
			if _, _, err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(c.EnergyJ()) != math.Float64bits(ref.EnergyJ()) ||
				c.Steals() != ref.Steals() ||
				completionDigest(c.Completed()) != completionDigest(ref.Completed()) {
				t.Fatalf("the checked drive diverged from Run: energy %v vs %v, %d vs %d steals",
					c.EnergyJ(), ref.EnergyJ(), c.Steals(), ref.Steals())
			}
		})
	}
}

// completionDigest is FNV-1a over every field of every completion.
func completionDigest(done []core.CompletedJob) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, j := range done {
		buf = buf[:0]
		for _, w := range []uint64{
			uint64(j.ID), uint64(j.Node), uint64(j.Class),
			math.Float64bits(j.SizeGB), math.Float64bits(j.Submitted),
			math.Float64bits(j.Started), math.Float64bits(j.Finished),
			math.Float64bits(float64(j.Cfg.Freq)), uint64(j.Cfg.Block), uint64(j.Cfg.Mappers),
		} {
			buf = binary.LittleEndian.AppendUint64(buf, w)
		}
		h.Write(append(buf, j.App...))
	}
	return h.Sum64()
}
