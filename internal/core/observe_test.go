package core

import (
	"bytes"
	"strings"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/tracing"
)

// attachOrderRun drives the WS4 stream on two nodes as one shard with a
// registry and an audit log attached, the log first when auditFirst,
// and returns the metrics snapshot text. The drift detector is set to
// alarm on the first join above 1%, so the audit mirrors carry data.
func attachOrderRun(t *testing.T, auditFirst bool) string {
	t.Helper()
	c := oneShard(t, NewMemoSTP(fix.lkt, nil), NewProfiler(fix.model, sim.NewRNG(99)), 2)
	reg := metrics.NewRegistry()
	aud := audit.NewLog(audit.DriftConfig{Delta: 1, Lambda: 1e-9, MinSamples: 1})
	if auditFirst {
		c.SetAudit(aud)
		c.SetMetrics(reg)
	} else {
		c.SetMetrics(reg)
		c.SetAudit(aud)
	}
	submitWS4(t)(c)
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.Snapshot(false).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestObserverAttachOrder checks that the audit mirrors in the metrics
// snapshot do not depend on which sink was attached first: auditMetrics
// registers them only once both are, from either setter.
func TestObserverAttachOrder(t *testing.T) {
	fixture(t)
	metricsFirst := attachOrderRun(t, false)
	auditFirst := attachOrderRun(t, true)
	if metricsFirst != auditFirst {
		t.Fatalf("snapshot depends on attach order:\n%s", firstDiff([]byte(auditFirst), []byte(metricsFirst)))
	}
	// The alarm latched the gauge, so the mirrors carried data.
	want := map[string]bool{"stp.drift_alert": false, "audit.drift_alerts": false}
	for _, line := range strings.Split(metricsFirst, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			if _, ok := want[f[0]]; ok {
				want[f[0]] = f[0] != "stp.drift_alert" || f[1] == "1"
			}
		}
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("snapshot lacks %s (latched at 1 for the gauge):\n%s", name, metricsFirst)
		}
	}
	if !strings.Contains(metricsFirst, "audit.rel_err_pct.") {
		t.Errorf("snapshot lacks the audit.rel_err_pct histograms:\n%s", metricsFirst)
	}
}

// TestObserverNilSinks checks that a shard handed only nil sinks keeps
// a nil observer — what ecost-sim does with every report off — and that
// detaching the last sink drops the observer again.
func TestObserverNilSinks(t *testing.T) {
	fixture(t)
	c, err := NewShardedScheduler(fix.model, fix.db, fix.profiler,
		func() STP { return fix.lkt }, 4, ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.SetMetrics(nil)
	c.SetAudit(nil)
	c.SetTracer(nil)
	c.SetFlight(nil)
	for i, sh := range c.shards {
		if sh.obs != nil {
			t.Fatalf("shard %d: nil sinks built an observer", i)
		}
	}

	c.SetMetrics(metrics.NewRegistry())
	c.SetTracer(tracing.New())
	if c.shards[0].obs == nil || c.shards[0].queue.Metrics == nil {
		t.Fatal("attached sinks left shard 0 unobserved")
	}
	c.SetMetrics(nil)
	if c.shards[0].obs == nil {
		t.Fatal("detaching metrics dropped the tracer's observer")
	}
	c.SetTracer(nil)
	for i, sh := range c.shards {
		if sh.obs != nil || sh.queue.Metrics != nil {
			t.Fatalf("shard %d: observer %v, queue registry %v after detaching every sink", i, sh.obs, sh.queue.Metrics)
		}
	}
}
