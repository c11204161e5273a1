package core_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/scenario"
	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// TestShardedTraceDigests pins the bytes of every multi-shard span
// export: the CI steal-heavy stream (seed 5) on 8 stealing shards over
// 64 nodes, traced. The merged Chrome trace, the sectioned timeline,
// the merged EDP report and each shard's solo Chrome trace and timeline
// must hash to the FNV-64a digests recorded when each shard owned its
// own tracer.
func TestShardedTraceDigests(t *testing.T) {
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
	const shards = 8
	c, err := core.NewShardedScheduler(model, db, core.NewProfiler(model, sim.NewRNG(99)),
		func() core.STP { return core.NewMemoSTP(lkt, nil) }, 64,
		core.ShardedConfig{Shards: shards, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.New(nil)
	c.SetTracer(tr)
	for _, a := range arrivals {
		c.Submit(a.App, a.SizeGB, a.At)
	}
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Steals() == 0 {
		t.Fatal("the steal-heavy stream fired no steals")
	}

	// pin hashes what write renders and compares it with want.
	pin := func(name string, want uint64, write func(w io.Writer) error) {
		h := fnv.New64a()
		if err := write(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := h.Sum64(); got != want {
			t.Errorf("%s digest = %#016x, want %#016x", name, got, want)
		}
	}
	pin("merged chrome trace", 0x2c415999ae45f67a, tr.WriteChromeTrace)
	pin("sectioned timeline", 0x5754d7e8e72c68a0, tr.WriteTimeline)
	pin("merged EDP report", 0x973e2ae9d486846a, tr.Report().WriteText)
	wantChrome := [shards]uint64{
		0xa8d6fb9a511d391e, 0x0820988cd8d8a02a, 0xf9c01672a4b57791, 0x0290ffa670e93fa1,
		0xeeac2e48177af12b, 0x9821d15da9094cae, 0x0c70e5ba7b150a08, 0x440d209ca2574f17,
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
		pin(fmt.Sprintf("shard %d chrome trace", i), wantChrome[i], func(w io.Writer) error {
			return tracing.WriteChromeTrace(w, spans)
		})
		pin(fmt.Sprintf("shard %d timeline", i), wantTimeline[i], func(w io.Writer) error {
			return tracing.WriteTimeline(w, spans)
		})
	}
}
