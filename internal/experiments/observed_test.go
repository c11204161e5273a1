package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/core"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/scenario"
	"ecost/internal/tracing"
)

// shardedObservation bundles the control plane's one sink of each kind
// for one fully observed sharded run. Every export they render (metrics
// snapshots, audit JSONL, merged Chrome trace and timeline, EDP report,
// shard-health report, epoch JSONL, flight dumps) is a pure function of
// the submitted stream, independent of GOMAXPROCS — the same
// determinism contract as the run itself.
type shardedObservation struct {
	shards int
	reg    *metrics.Registry
	aud    *audit.Log
	trace  *tracing.Tracer
	flight *flight.Recorder
}

// onlineScenarioShardedObserved is OnlineScenario with the full
// observability stack attached to the control plane: one registry
// metering the memoized tuners, one decision-audit log, one span tracer
// and the barrier flight recorder. It reports the same table and
// observables and returns the sinks, so the test can render every
// export after the run.
func onlineScenarioShardedObserved(env *Env, spec scenario.Spec, nodes int, cfg core.ShardedConfig) (Table, OnlineData, QueueStats, *shardedObservation, error) {
	arrivals, err := scenario.Generate(spec)
	if err != nil {
		return Table{}, OnlineData{}, QueueStats{}, nil, err
	}
	obs := &shardedObservation{
		shards: cfg.Shards,
		reg:    metrics.NewRegistry(),
		aud:    audit.NewLog(audit.DriftConfig{}),
		trace:  tracing.New(),
	}
	attach := func(sched *core.ShardedScheduler) {
		sched.SetMetrics(obs.reg)
		sched.SetAudit(obs.aud)
		sched.SetTracer(obs.trace)
		obs.flight = flight.New()
		sched.SetFlight(obs.flight)
	}
	data, done, sched, err := RunStream(env, arrivals, nodes, cfg,
		func() core.STP { return core.NewMemoSTP(env.LkT, nil) }, attach)
	if err != nil {
		return Table{}, data, QueueStats{}, nil, err
	}
	qs := StreamStats(done, nodes, data.Makespan)
	tbl := Table{
		Title:  fmt.Sprintf("Online ECoST scenario, observed (%d shard(s)): %s, %d node(s)", sched.Shards(), spec.String(), nodes),
		Header: []string{"metric", "value"},
	}
	addOnlineRows(&tbl, data)
	qs.AddRows(&tbl)
	tbl.AddRow("shards", sched.Shards())
	tbl.AddRow("steals", sched.Steals())
	tbl.AddRow("epochs", obs.flight.Epochs())
	tbl.AddRow("flight dumps", len(obs.flight.Dumps()))
	return tbl, data, qs, obs, nil
}

// observedExports renders every export surface of one observed run into
// a single byte string: merged shard-labeled Prometheus, per-shard
// metrics snapshots and audit JSONL, the merged Chrome trace and
// timeline (per-shard sections + merged section), the merged EDP
// report, the shard-health report, the epoch wide-event JSONL, the
// per-shard health rows, and the flight dumps.
func observedExports(t *testing.T, obs *shardedObservation) string {
	t.Helper()
	var buf bytes.Buffer
	snap := obs.reg.Snapshot(false)
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < obs.shards; i++ {
		if err := snap.Shard(i).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.aud.Shard(i).WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := obs.trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.trace.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.trace.Report().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.flight.Health().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.flight.WriteEpochs(&buf, -1); err != nil {
		t.Fatal(err)
	}
	if err := obs.flight.WriteShards(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.flight.WriteDumps(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestOnlineScenarioShardedObservedGolden is the acceptance golden for
// the observed runner: a steal-on multi-shard scenario run completes
// coherently and every observability export — metrics, audit, health,
// epochs, dumps — is byte-identical at GOMAXPROCS 1 and 4.
func TestOnlineScenarioShardedObservedGolden(t *testing.T) {
	spec := scenarioSpec(24)
	cfg := core.ShardedConfig{Shards: 4, Steal: true}
	var base string
	var baseData OnlineData
	for i, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		tbl, data, qs, obs, err := onlineScenarioShardedObserved(freshEnv(t), spec, 4, cfg)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if data.Jobs != 24 || qs.Utilization <= 0 {
			t.Fatalf("GOMAXPROCS=%d: incoherent run: %+v / %+v", procs, data, qs)
		}
		if obs.flight.Epochs() == 0 {
			t.Fatalf("GOMAXPROCS=%d: run recorded no barrier epochs", procs)
		}
		// Every shard recorded into the one registry and the one tracer,
		// and every job has an audit record at some shard.
		traced, metered, audited := map[int]bool{}, map[int]bool{}, 0
		for _, s := range obs.trace.Spans() {
			traced[s.Attrs.Shard] = true
		}
		for _, c := range obs.reg.Snapshot(false).Counters {
			metered[c.Shard] = true
		}
		for i := 0; i < cfg.Shards; i++ {
			audited += len(obs.aud.Shard(i).Decisions())
		}
		if len(traced) != cfg.Shards || len(metered) != cfg.Shards || audited < data.Jobs {
			t.Fatalf("GOMAXPROCS=%d: sinks incomplete: %d metered and %d traced shards, %d audit records for %d jobs",
				procs, len(metered), len(traced), audited, data.Jobs)
		}
		for _, want := range []string{"shards", "steals", "epochs", "flight dumps"} {
			if !strings.Contains(tbl.String(), want) {
				t.Errorf("table missing %q:\n%s", want, tbl.String())
			}
		}
		got := observedExports(t, obs)
		if i == 0 {
			base, baseData = got, data
			continue
		}
		if data != baseData {
			t.Fatalf("summary diverged across GOMAXPROCS:\n got %+v\nwant %+v", data, baseData)
		}
		if got != base {
			t.Fatal("observed exports diverged across GOMAXPROCS")
		}
	}
	// The merged exposition is present and labeled.
	if !strings.Contains(base, `shard="`) {
		t.Fatalf("exports carry no shard-labeled Prometheus families:\n%s", base[:min(2000, len(base))])
	}
	// The health report rendered with its header and per-shard rows.
	if !strings.Contains(base, "# shard health") {
		t.Fatal("exports missing the shard-health report")
	}
	// The merged trace exports rendered: per-shard timeline sections, the
	// merged global section, and the merged EDP attribution rollup.
	for _, want := range []string{"== shard 0 ==", "== merged ==", "# ecost merged trace timeline", "# ecost EDP attribution"} {
		if !strings.Contains(base, want) {
			t.Fatalf("exports missing %q", want)
		}
	}
}
