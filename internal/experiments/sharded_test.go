package experiments

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ecost/internal/core"
	"ecost/internal/scenario"
	"ecost/internal/sim"
)

// freshEnv returns a shallow copy of the shared Env with a fresh
// profiler at the canonical seed, so two runs observe identical
// measurement noise regardless of what earlier tests consumed.
func freshEnv(t *testing.T) *Env {
	t.Helper()
	env := *sharedEnv(t)
	env.Profiler = core.NewProfiler(env.Model, sim.NewRNG(env.Seed))
	return &env
}

// TestOnlineScenarioShardedSingleShardMatchesLegacy is the
// experiments-level golden: with one shard, OnlineScenario reports the
// summary and queueing observables in
// testdata/scenario_single_shard.golden bit for bit (%v prints the
// shortest float that round-trips). The file was recorded from the
// retired unsharded scheduler driven over the same stream and profiler
// state.
func TestOnlineScenarioShardedSingleShardMatchesLegacy(t *testing.T) {
	want, err := os.ReadFile("testdata/scenario_single_shard.golden")
	if err != nil {
		t.Fatal(err)
	}
	tbl, got, gotQS, err := OnlineScenario(freshEnv(t), scenarioSpec(20), 2, core.ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if render := fmt.Sprintf("summary %+v\nqueue %+v\n", got, gotQS); render != string(want) {
		t.Fatalf("single-shard run diverged from the legacy golden:\n got %s\nwant %s", render, want)
	}
	for _, wantStr := range []string{"shards", "steals", "utilization"} {
		if !strings.Contains(tbl.String(), wantStr) {
			t.Errorf("table missing %q:\n%s", wantStr, tbl.String())
		}
	}
}

// TestOnlineScenarioShardedMultiShard: a multi-shard steal-enabled run
// completes the stream, reports coherent stats, and is deterministic
// run to run.
func TestOnlineScenarioShardedMultiShard(t *testing.T) {
	spec := scenarioSpec(20)
	cfg := core.ShardedConfig{Shards: 4, Steal: true, ProfileMemo: true}
	_, a, qsA, err := OnlineScenario(freshEnv(t), spec, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Jobs != 20 {
		t.Fatalf("ran %d jobs, want 20", a.Jobs)
	}
	if qsA.Utilization <= 0 || qsA.Utilization > 1 {
		t.Fatalf("utilization %v outside (0, 1]", qsA.Utilization)
	}
	if a.Makespan <= 0 || a.EnergyJ <= 0 {
		t.Fatalf("degenerate run: makespan %v energy %v", a.Makespan, a.EnergyJ)
	}
	_, b, qsB, err := OnlineScenario(freshEnv(t), spec, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b || qsA != qsB {
		t.Fatalf("multi-shard run not deterministic:\n got %+v / %+v\nwant %+v / %+v", b, qsB, a, qsA)
	}
}

// TestOnlineReplaySharded: replaying the generating stream through a
// sharded control plane reproduces the generated run exactly.
func TestOnlineReplaySharded(t *testing.T) {
	spec := scenarioSpec(16)
	cfg := core.ShardedConfig{Shards: 2, Steal: true}
	_, want, wantQS, err := OnlineScenario(freshEnv(t), spec, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, got, gotQS, err := OnlineReplay(freshEnv(t), "replay", arrivals, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotQS != wantQS {
		t.Fatalf("replay diverged from generating run:\n got %+v / %+v\nwant %+v / %+v", got, gotQS, want, wantQS)
	}
}

// TestShardSweep: the sweep produces one well-formed point per shard
// count with identical simulated job counts.
func TestShardSweep(t *testing.T) {
	env := sharedEnv(t)
	tbl, points, err := ShardSweep(env, scenarioSpec(16), 4, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points, want 3", len(points))
	}
	for _, p := range points {
		if p.JobsPerSec <= 0 || p.WallMS <= 0 {
			t.Fatalf("shards %d: degenerate throughput %v jobs/s, %v ms", p.Shards, p.JobsPerSec, p.WallMS)
		}
		if p.Makespan <= 0 || p.EnergyJ <= 0 {
			t.Fatalf("shards %d: degenerate outcome makespan %v energy %v", p.Shards, p.Makespan, p.EnergyJ)
		}
	}
	if points[0].Steals != 0 {
		t.Fatalf("single-shard point stole %d jobs; stealing needs a victim shard", points[0].Steals)
	}
	if !strings.Contains(tbl.String(), "Shard sweep") {
		t.Errorf("table title missing:\n%s", tbl.String())
	}
}
