package experiments

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/core"
	"ecost/internal/metrics"
)

// observedExports renders every export surface of one observed run into
// a single byte string: merged shard-labeled Prometheus, per-shard
// metrics snapshots and audit JSONL, the merged Chrome trace and
// timeline (per-shard sections + merged section), the merged EDP
// report, the shard-health report, the epoch wide-event JSONL, the
// per-shard health rows, and the flight dumps.
func observedExports(t *testing.T, obs *ShardedObservation) string {
	t.Helper()
	var buf bytes.Buffer
	snaps := make([]metrics.Snapshot, len(obs.Registries))
	for i, reg := range obs.Registries {
		snaps[i] = reg.Snapshot(false)
	}
	if err := metrics.WritePrometheusSharded(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	for i, snap := range snaps {
		if err := snap.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if err := obs.Audits[i].WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := obs.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Trace.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Trace.Report().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flight.Health().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flight.WriteEpochs(&buf, -1); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flight.WriteShards(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.Flight.WriteDumps(&buf); err != nil {
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
		tbl, data, qs, obs, err := OnlineScenarioShardedObserved(freshEnv(t), spec, 4, cfg)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if data.Jobs != 24 || qs.Utilization <= 0 {
			t.Fatalf("GOMAXPROCS=%d: incoherent run: %+v / %+v", procs, data, qs)
		}
		if obs.Flight.Epochs() == 0 {
			t.Fatalf("GOMAXPROCS=%d: run recorded no barrier epochs", procs)
		}
		traced := map[int]bool{}
		for _, s := range obs.Trace.Spans() {
			traced[s.Attrs.Shard] = true
		}
		if len(obs.Registries) != cfg.Shards || len(obs.Audits) != cfg.Shards || len(traced) != cfg.Shards {
			t.Fatalf("GOMAXPROCS=%d: observation handles incomplete: %d regs, %d audits, %d traced shards",
				procs, len(obs.Registries), len(obs.Audits), len(traced))
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
