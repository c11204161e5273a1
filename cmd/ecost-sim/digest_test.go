package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/core"
	"ecost/internal/experiments"
	"ecost/internal/flight"
	"ecost/internal/metrics"
	"ecost/internal/trace"
)

// digestSpec is a small steal-heavy stream: zipf s=2 tenant skew floods
// one shard's home queue while its neighbors idle, so a 4-shard
// stealing run on 16 nodes steals, pairs and raises drift alarms.
const digestSpec = "gen:jobs=400;arrivals=mmpp:calm=0.1,burst=0.01,pcalm=0.95,pburst=0.9;sizes=pareto:alpha=1.5,min=1;mix=zipf:s=2,tenants=24"

// digestShards and digestNodes shape the pinned control plane.
const (
	digestShards = 4
	digestNodes  = 16
)

// digest is the FNV-64a hash of b.
func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestShardedOnlineDigests pins the bytes a 4-shard stealing online run
// writes through every per-shard metrics and audit surface: the
// runner's stdout with -metrics, with -metrics -metrics-json and with
// -quality-report, then the -serve mux's /metrics, /decisions and
// /quality, merged and for every ?shard=N, and the flight recorder's
// /epochs (merged and per shard), /shards, /health and /flight. The runs share one
// environment, whose profiler draws each job's noise in turn, so their
// order is part of the pin.
func TestShardedOnlineDigests(t *testing.T) {
	env, err := experiments.NewEnv(experiments.FastOptions())
	if err != nil {
		t.Fatal(err)
	}
	arrivals, header, perJobTable := buildStream(core.Workload{}, true, digestSpec, "", "", 0, 0, 5, digestNodes)

	runs := []struct {
		name string
		out  runFlags
		want uint64
	}{
		{"-metrics", runFlags{Metrics: true}, 0x4f9b3864828ae463},
		{"-metrics -metrics-json", runFlags{Metrics: true, MetricsJSON: true}, 0xbee696af4a4dad32},
		{"-quality-report", runFlags{QualityReport: true}, 0xfc0d4ac27d90f9f0},
	}
	for _, r := range runs {
		var out bytes.Buffer
		f := r.out
		f.Online, f.Nodes, f.Shards, f.Steal = true, digestNodes, digestShards, true
		runOnline(&out, env, f, arrivals, header, perJobTable)
		if got := digest(out.Bytes()); got != r.want {
			t.Errorf("%s stdout digest = %#016x, want %#016x", r.name, got, r.want)
		}
	}

	srv := httptest.NewServer(newServeMux(digestSources(t, env, arrivals)))
	defer srv.Close()
	want := map[string]uint64{
		"/metrics":           0xad4daabb18e38b50,
		"/metrics?shard=0":   0x200c56f2e896476c,
		"/metrics?shard=1":   0x556b03076b2f7e52,
		"/metrics?shard=2":   0x514e065a0f151b78,
		"/metrics?shard=3":   0xc902250b261fb344,
		"/decisions":         0x58cbb29de7b33a4a,
		"/decisions?shard=0": 0x7cc5079f4073bd5c,
		"/decisions?shard=1": 0xeb0ef55d08074cae,
		"/decisions?shard=2": 0x9c8021a163ed6064,
		"/decisions?shard=3": 0xf45c4e8c3d961225,
		"/quality":           0x5dffb6477c73afb1,
		"/quality?shard=0":   0xc405957ee387d24b,
		"/quality?shard=1":   0xe6659628a2ddace2,
		"/quality?shard=2":   0xd45784a0162d0fdc,
		"/quality?shard=3":   0x0e2151939ea0db07,
		"/epochs":            0x34d60ccc0b77cf94,
		"/epochs?shard=0":    0xead364ff22af3476,
		"/epochs?shard=1":    0x90534b554fbd79bd,
		"/epochs?shard=2":    0xf7db2abd42064b03,
		"/epochs?shard=3":    0xb1759ba16179e617,
		"/shards":            0x1be9dc209e9cafdd,
		"/health":            0xfa734a92240cb586,
		"/flight":            0x786a2eed2d0b303f,
	}
	var paths []string
	for _, ep := range []string{"/metrics", "/decisions", "/quality", "/epochs"} {
		for sel := -1; sel < digestShards; sel++ {
			path := ep
			if sel >= 0 {
				path = fmt.Sprintf("%s?shard=%d", ep, sel)
			}
			paths = append(paths, path)
		}
	}
	for _, path := range append(paths, "/shards", "/health", "/flight") {
		code, body := get(t, srv.URL+path)
		if code != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, code, body)
		}
		if got := digest([]byte(body)); got != want[path] {
			t.Errorf("%s digest = %#016x, want %#016x", path, got, want[path])
		}
	}
}

// digestSources runs the stream once more, wired as runOnline wires a
// -serve run (one registry metering every memoized tuner, one
// decision-audit log, the environment's co-location oracle, one flight
// recorder), and
// returns the sources the -serve mux reads.
func digestSources(t *testing.T, env *experiments.Env, arrivals []trace.Arrival) serveSources {
	t.Helper()
	reg := metrics.NewRegistry()
	aud := audit.NewLog(audit.DriftConfig{})
	fr := flight.New()
	_, _, sched, err := experiments.RunStream(env, arrivals, digestNodes,
		core.ShardedConfig{Shards: digestShards, Steal: true},
		func() core.STP { return core.NewMemoSTP(env.LkT, nil) },
		func(sched *core.ShardedScheduler) {
			sched.SetMetrics(reg)
			sched.SetAudit(aud)
			sched.SetFlight(fr)
		})
	if err != nil {
		t.Fatal(err)
	}
	if sched.Steals() == 0 {
		t.Fatal("the digest stream fired no steals")
	}
	return serveSources{shards: sched.Shards(), reg: reg, aud: aud, qo: core.NewAuditOracle(env.Oracle), fr: fr}
}
