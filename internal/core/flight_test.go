package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// runShardedFlight drives one sharded run with a registry and the
// flight recorder attached, returning all three handles for post-run
// assertions.
func runShardedFlight(t *testing.T, nodes int, cfg ShardedConfig, submit func(c *ShardedScheduler)) (*ShardedScheduler, *flight.Recorder, *metrics.Registry) {
	t.Helper()
	fixture(t)
	prof := NewProfiler(fix.model, sim.NewRNG(99))
	c, err := NewShardedScheduler(fix.model, fix.db, prof,
		func() STP { return NewMemoSTP(fix.lkt, nil) }, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)
	fr := flight.New()
	c.SetFlight(fr)
	submit(c)
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c, fr, reg
}

// seededStream mixes the training tenants with seeded exponential gaps
// — dense enough that multi-shard steal-on runs migrate work.
func seededStream(jobs int, seed int64, meanGap float64) func(c *ShardedScheduler) {
	apps := workloads.TrainingIDs()
	return func(c *ShardedScheduler) {
		rng := sim.NewRNG(seed)
		at := 0.0
		for i := 0; i < jobs; i++ {
			c.Submit(apps[i%len(apps)], 5, at)
			at += rng.Exp(meanGap)
		}
	}
}

// TestFlightStealFlowMatchesCounters is the accounting property: for
// every seed and shard count, the flight recorder's steal-flow matrix
// must agree exactly with the schedulers' own books — row i sums to
// shard i's sched.steals_out counter, column i to its sched.steals_in,
// and the grand total to ShardedScheduler.Steals().
func TestFlightStealFlowMatchesCounters(t *testing.T) {
	totalSteals := 0
	for _, shards := range []int{2, 4, 8} {
		for _, seed := range []int64{1, 7, 42} {
			c, fr, reg := runShardedFlight(t, 8, ShardedConfig{Shards: shards, Steal: true},
				seededStream(48, seed, 5))
			flow := fr.StealFlow()
			if len(flow) != shards {
				t.Fatalf("shards=%d seed=%d: flow matrix has %d rows", shards, seed, len(flow))
			}
			var grand int64
			for i := 0; i < shards; i++ {
				var rowSum, colSum int64
				for j := 0; j < shards; j++ {
					rowSum += flow[i][j]
					colSum += flow[j][i]
					grand += flow[i][j]
				}
				if out := reg.Shard(i).Counter("sched.steals_out").Value(); rowSum != out {
					t.Errorf("shards=%d seed=%d: shard %d flow row sum %d != sched.steals_out %d",
						shards, seed, i, rowSum, out)
				}
				if in := reg.Shard(i).Counter("sched.steals_in").Value(); colSum != in {
					t.Errorf("shards=%d seed=%d: shard %d flow col sum %d != sched.steals_in %d",
						shards, seed, i, colSum, in)
				}
				if flow[i][i] != 0 {
					t.Errorf("shards=%d seed=%d: shard %d stole from itself %d times", shards, seed, i, flow[i][i])
				}
			}
			if grand != int64(c.Steals()) {
				t.Errorf("shards=%d seed=%d: flow total %d != Steals() %d", shards, seed, grand, c.Steals())
			}
			totalSteals += c.Steals()
		}
	}
	if totalSteals == 0 {
		t.Fatal("no configuration stole anything — the property is vacuous")
	}
}

// TestFlightShardedStaleDriftDump is the acceptance scenario: a stale
// STP database (trained on 1 GB inputs, fed 12 GB jobs) run through the
// sharded control plane must trip the CUSUM drift detector, and the
// flight recorder must snapshot the ring into a dump that names the
// drifting tenant class.
func TestFlightShardedStaleDriftDump(t *testing.T) {
	fixture(t)
	stale, err := BuildDatabase(NewProfiler(fix.model, sim.NewRNG(7)), fix.oracle, workloads.Training(), BuildOptions{
		Sizes:        []float64{1},
		ConfigStride: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	c, err := NewShardedScheduler(fix.model, stale, NewProfiler(fix.model, sim.NewRNG(99)),
		func() STP { return &LkTSTP{DB: stale} }, 4, ShardedConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	aud := audit.NewLog(audit.DriftConfig{})
	c.SetAudit(aud)
	fr := flight.New()
	c.SetFlight(fr)
	// Each shard runs its own CUSUM (default MinSamples per shard), so
	// the stream cycles the tenant list enough times that every shard
	// joins plenty of mispredicted completions.
	apps := []string{"nb", "pr", "km", "svm", "cf", "hmm", "st", "ts"}
	for i := 0; i < 4*len(apps); i++ {
		c.Submit(workloads.MustLookup(apps[i%len(apps)]), 12, float64(i)*40)
	}
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	alerts := 0
	for i := 0; i < shards; i++ {
		alerts += len(aud.Shard(i).Alerts())
	}
	if alerts == 0 {
		t.Fatal("stale database tripped no drift alert across shards")
	}
	dumps := fr.Dumps()
	if len(dumps) == 0 {
		t.Fatal("drift alerts fired but the flight recorder dumped nothing")
	}
	d := dumps[0]
	if d.Trigger.Kind != flight.TriggerDrift {
		t.Fatalf("first dump kind = %q, want %q", d.Trigger.Kind, flight.TriggerDrift)
	}
	if len(d.Trigger.Tenants) == 0 {
		t.Fatal("drift dump names no tenants")
	}
	for _, tn := range d.Trigger.Tenants {
		app, class, ok := strings.Cut(tn, ":")
		if !ok || app == "" || class == "" {
			t.Errorf("implicated tenant %q is not app:class", tn)
		}
	}
	if len(d.Records) == 0 {
		t.Fatal("drift dump carries no epoch records")
	}
	var jsonl bytes.Buffer
	if err := fr.WriteDumps(&jsonl); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trigger":"stp_drift_alert"`, `"` + d.Trigger.Tenants[0] + `"`} {
		if !strings.Contains(jsonl.String(), want) {
			t.Errorf("flight JSONL missing %q:\n%s", want, jsonl.String())
		}
	}
}

// flightExports renders every flight-recorder export surface into one
// byte string.
func flightExports(t *testing.T, fr *flight.Recorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := fr.Health().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteEpochs(&buf, -1); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteShards(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteDumps(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestFlightExportsGOMAXPROCSInvariant is the determinism golden: every
// flight export (health report, epoch JSONL, shard rows, dumps) is a
// pure function of the submitted stream — byte-identical at GOMAXPROCS
// 1 and 4, with the steal pass actually firing.
func TestFlightExportsGOMAXPROCSInvariant(t *testing.T) {
	var base string
	for i, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		c, fr, _ := runShardedFlight(t, 8, ShardedConfig{Shards: 4, Steal: true},
			skewedStream(t, 48, 10))
		runtime.GOMAXPROCS(old)
		if c.Steals() == 0 {
			t.Fatal("skewed stream never triggered a steal — the invariance case is vacuous")
		}
		if fr.Epochs() == 0 {
			t.Fatal("run recorded no barrier epochs")
		}
		got := flightExports(t, fr)
		if i == 0 {
			base = got
			continue
		}
		if got != base {
			t.Fatalf("flight exports diverged across GOMAXPROCS:\n--- procs=4 ---\n%s\n--- procs=1 ---\n%s", got, base)
		}
	}
}
