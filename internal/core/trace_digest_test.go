package core_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/flight"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/scenario"
	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// digestShards is the shard count both digest tests run the steal-heavy
// stream on.
const digestShards = 8

// runStealHeavy drives the CI steal-heavy stream (seed 5) through 8
// stealing shards over 64 nodes of an LkT-tuned control plane.
// newTuner wraps the lookup technique for each shard; attach wires the
// sinks before any submission.
func runStealHeavy(t *testing.T, newTuner func(*core.LkTSTP) core.STP, attach func(*core.ShardedScheduler)) {
	t.Helper()
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
	c, err := core.NewShardedScheduler(model, db, core.NewProfiler(model, sim.NewRNG(99)),
		func() core.STP { return newTuner(lkt) }, 64,
		core.ShardedConfig{Shards: digestShards, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	attach(c)
	for _, a := range arrivals {
		c.Submit(a.App, a.SizeGB, a.At)
	}
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Steals() == 0 {
		t.Fatal("the steal-heavy stream fired no steals")
	}
}

// pin hashes what write renders and compares it with want.
func pin(t *testing.T, name string, want uint64, write func(w io.Writer) error) {
	t.Helper()
	h := fnv.New64a()
	if err := write(h); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := h.Sum64(); got != want {
		t.Errorf("%s digest = %#016x, want %#016x", name, got, want)
	}
}

// TestShardedTraceDigests pins the bytes of every multi-shard span
// export: the CI steal-heavy stream (seed 5) on 8 stealing shards over
// 64 nodes, traced. The merged Chrome trace, the sectioned timeline,
// the merged EDP report and each shard's solo Chrome trace and timeline
// must hash to the FNV-64a digests recorded when each shard owned its
// own tracer.
func TestShardedTraceDigests(t *testing.T) {
	const shards = digestShards
	tr := tracing.New()
	runStealHeavy(t, func(lkt *core.LkTSTP) core.STP { return core.NewMemoSTP(lkt, nil) },
		func(c *core.ShardedScheduler) { c.SetTracer(tr) })
	pin(t, "merged chrome trace", 0xe6c2f32765a6ab09, tr.WriteChromeTrace)
	pin(t, "sectioned timeline", 0x5754d7e8e72c68a0, tr.WriteTimeline)
	pin(t, "merged EDP report", 0x973e2ae9d486846a, tr.Report().WriteText)
	wantChrome := [shards]uint64{
		0xddce5570dd941696, 0x0a73f759f5f58eed, 0x1eb9d8d83bba6b42, 0x0e88515966075efd,
		0xb4a514b7e9795d2f, 0x3bd0201dead8972a, 0xfe5cb18533b01e2f, 0xaa39f926528b8eb7,
	}
	wantTimeline := [shards]uint64{
		0x78b31fdfa2040491, 0x92192856576b9d21, 0x7ea08c43ce0123f3, 0x090ea7ec3d8da68f,
		0xb758a9099e8a0342, 0xfe9e6af0f4476aa1, 0xc1ac381bd5ed8eee, 0x7c8d75999920de86,
	}
	for i := 0; i < shards; i++ {
		var spans []tracing.Span
		for _, s := range tr.Spans() {
			if s.Attrs.Shard == i {
				spans = append(spans, s)
			}
		}
		pin(t, fmt.Sprintf("shard %d chrome trace", i), wantChrome[i], func(w io.Writer) error {
			return tracing.WriteChromeTrace(w, spans)
		})
		pin(t, fmt.Sprintf("shard %d timeline", i), wantTimeline[i], func(w io.Writer) error {
			return tracing.WriteTimeline(w, spans)
		})
	}
}

// TestShardedMetricsDigests pins the bytes of every multi-shard metrics
// export on the same run as TestShardedTraceDigests, with one registry
// attached to the control plane and the tuners wired as ecost-sim wires
// them: each shard's deterministic text and JSON snapshot, its
// Prometheus exposition, and the merged exposition must hash to the
// FNV-64a digests recorded while the tuner's stp.* instruments lived in
// a decorator around it and each shard owned its own registry.
func TestShardedMetricsDigests(t *testing.T) {
	const shards = digestShards
	reg := metrics.NewRegistry()
	runStealHeavy(t, func(lkt *core.LkTSTP) core.STP { return core.NewMemoSTP(lkt, nil) },
		func(c *core.ShardedScheduler) { c.SetMetrics(reg) })

	all := reg.Snapshot(false)
	pin(t, "merged prometheus", 0x317601d36d98a23e, all.WritePrometheus)
	wantText := [shards]uint64{
		0x43e9f83851738d7a, 0xe2aeec1f562661d4, 0xc923676b20bcc3f6, 0x2ebf511918ac276a,
		0x7f04967adf71b981, 0x4a2196e370b45e59, 0x52cecdf4dd3dfcec, 0x5525f9130c7436b4,
	}
	wantJSON := [shards]uint64{
		0x6070a01ed6557d84, 0xad71f9a3d53307eb, 0x9768272977ed7a21, 0x660fc88d9dc5792f,
		0x8d7aa61fcc587b88, 0xe534a29e3df066cd, 0xfa4b240bd7b1028a, 0x616ae173a93ce06d,
	}
	wantProm := [shards]uint64{
		0x9e468fb2b22dba14, 0x8ec64c2806613373, 0x4d30df213c2696a7, 0xd5df6ae45acc1f44,
		0x974f311bbdae7bc6, 0x635514519c504b23, 0xcf7bd66d65e12a25, 0x69f140a85769cd0c,
	}
	for i := 0; i < shards; i++ {
		s := all.Shard(i)
		pin(t, fmt.Sprintf("shard %d text snapshot", i), wantText[i], s.WriteText)
		pin(t, fmt.Sprintf("shard %d JSON snapshot", i), wantJSON[i], s.WriteJSON)
		pin(t, fmt.Sprintf("shard %d prometheus", i), wantProm[i], s.WritePrometheus)
	}
}

// TestShardedAuditDigests pins the bytes of every per-shard audit
// export on the same run as TestShardedTraceDigests, with one registry
// and one decision-audit log attached to the control plane and the
// tuners wired as ecost-sim wires them: each shard's decision JSONL,
// its quality report against the co-location oracle, and its
// deterministic text snapshot — which then carries the
// audit.rel_err_pct.*, audit.drift_alerts and stp.drift_alert mirrors —
// must hash to the FNV-64a digests recorded while each shard owned its
// own registry and log.
func TestShardedAuditDigests(t *testing.T) {
	const shards = digestShards
	reg := metrics.NewRegistry()
	aud := audit.NewLog(audit.DriftConfig{})
	runStealHeavy(t, func(lkt *core.LkTSTP) core.STP { return core.NewMemoSTP(lkt, nil) },
		func(c *core.ShardedScheduler) {
			c.SetMetrics(reg)
			c.SetAudit(aud)
		})

	oracle := core.NewAuditOracle(core.NewOracle(mapreduce.NewModel(cluster.AtomC2758())))
	wantJSONL := [shards]uint64{
		0x24f073abac5745aa, 0x4640b2572936ef97, 0xb5dcac44b81e15b6, 0xb91560c9131c43bd,
		0x28222c1192c247e0, 0xd6191aea81b9a1f2, 0x61e079d3c7ec07ac, 0xe92fd1905e5ddfb4,
	}
	wantQuality := [shards]uint64{
		0xf24a688dea592ef3, 0x8326c8124f38fc0a, 0x924707b2b6a7b2f8, 0x6923994c97d1382c,
		0x737376e28e5d9cd9, 0xe401b81d66766de4, 0x493d72547c9e680e, 0x54d3a1b5860f5370,
	}
	wantText := [shards]uint64{
		0xcae4aabdcf029121, 0xd4f18a539564203d, 0x2bf981f0d29d8f13, 0x1122cd94a77c632e,
		0xf2572311b46d376e, 0x77066822f3d21681, 0x068077573a6859ee, 0x1e71620c604fccc1,
	}
	all := reg.Snapshot(false)
	var mirrors strings.Builder
	for i := 0; i < shards; i++ {
		aud, snap := aud.Shard(i), all.Shard(i)
		pin(t, fmt.Sprintf("shard %d decisions", i), wantJSONL[i], aud.WriteJSONL)
		pin(t, fmt.Sprintf("shard %d quality", i), wantQuality[i], aud.Quality(oracle).WriteText)
		pin(t, fmt.Sprintf("shard %d text snapshot", i), wantText[i], snap.WriteText)
		snap.WriteText(&mirrors)
	}
	for _, want := range []string{"audit.rel_err_pct.", "audit.drift_alerts", "stp.drift_alert"} {
		if !strings.Contains(mirrors.String(), want) {
			t.Errorf("no shard's snapshot carries the %s mirror", want)
		}
	}
}

// TestShardedFlightDigests pins the bytes of every flight-recorder
// export on the same run as TestShardedTraceDigests, with all four
// sinks attached to the control plane — one registry, one audit log,
// one tracer and one flight recorder — and the tuners wired as
// ecost-sim wires them: the merged epoch JSONL and each shard's, the
// flight dumps, the per-shard health rows and the health report must
// hash to the FNV-64a digests recorded while each shard fed its own
// collector and the recorder pinned the full barrier cadence.
func TestShardedFlightDigests(t *testing.T) {
	const shards = digestShards
	var fr *flight.Recorder
	runStealHeavy(t, func(lkt *core.LkTSTP) core.STP { return core.NewMemoSTP(lkt, nil) },
		func(c *core.ShardedScheduler) {
			c.SetMetrics(metrics.NewRegistry())
			c.SetAudit(audit.NewLog(audit.DriftConfig{}))
			c.SetTracer(tracing.New())
			fr = flight.New()
			c.SetFlight(fr)
		})
	if len(fr.Dumps()) == 0 {
		t.Fatal("the steal-heavy stream fired no flight dump")
	}
	pin(t, "merged epochs", 0x9f22bab5d4b29262, func(w io.Writer) error { return fr.WriteEpochs(w, -1) })
	wantEpochs := [shards]uint64{
		0x72f7ed3fc1f15cbb, 0x265dce2bc2beffde, 0x763efd1aa753c36d, 0x8dba690f9b39638a,
		0xbe5157d31fe22136, 0xd2a7923bc4f88437, 0x2ea7567929af6ee8, 0x5c20ea02a2396a7e,
	}
	for i := 0; i < shards; i++ {
		pin(t, fmt.Sprintf("shard %d epochs", i), wantEpochs[i], func(w io.Writer) error { return fr.WriteEpochs(w, i) })
	}
	pin(t, "dumps", 0x50fe30eee6e690fe, fr.WriteDumps)
	pin(t, "shard rows", 0xdc0f1998bb886745, fr.WriteShards)
	pin(t, "health report", 0x14eac059dc73d9bf, fr.Health().WriteText)
}
