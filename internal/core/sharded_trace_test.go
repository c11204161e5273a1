package core

// Cross-shard distributed tracing tests: one tracer per control plane,
// the deterministic merged layouts, steal flow linkage, and the
// shard-wise extension of the energy-conservation invariants.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/tracing"
)

// render captures one export surface as a string.
func render(t *testing.T, write func(w *bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// shardSpans is shard i's part of tr's spans, in the order of that
// shard's solo exports.
func shardSpans(tr *tracing.Tracer, i int) []tracing.Span {
	var out []tracing.Span
	for _, s := range tr.Spans() {
		if s.Attrs.Shard == i {
			out = append(out, s)
		}
	}
	return out
}

// TestOneShardTraceLegacyEquivalence: with one shard, the control
// plane's tracer exports are byte-identical to the legacy unsharded
// tracer's — the timeline matches testdata/ws4_online.golden's, which
// the retired unsharded scheduler recorded from the same stream, and
// both exporters render the solo layouts.
func TestOneShardTraceLegacyEquivalence(t *testing.T) {
	r := runSharded(t, 2, ShardedConfig{Shards: 1}, submitWS4(t))
	c, ts := r.sched, r.trace
	spans := ts.Spans()
	if got := len(shardSpans(ts, 0)); got != len(spans) {
		t.Fatalf("%d of %d spans stamped shard 0, want all", got, len(spans))
	}
	golden, err := os.ReadFile("testdata/ws4_online.golden")
	if err != nil {
		t.Fatal(err)
	}
	timeline := render(t, func(w *bytes.Buffer) error { return ts.WriteTimeline(w) })
	if section := fmt.Sprintf("--- timeline %d\n%s--- decisions ", len(timeline), timeline); !strings.Contains(string(golden), section) {
		t.Fatalf("1-shard timeline is not testdata/ws4_online.golden's:\n%s", timeline)
	}
	if got, want := render(t, func(w *bytes.Buffer) error { return ts.WriteChromeTrace(w) }),
		render(t, func(w *bytes.Buffer) error { return tracing.WriteChromeTrace(w, spans) }); got != want {
		t.Fatal("1-shard Chrome trace != solo layout")
	}
	rep := ts.Report()
	if rel := relErr(rep.Phases.TotalJ(), c.EnergyJ()); rel > 1e-9 {
		t.Fatalf("merged report energy %.6f != scheduler energy %.6f (rel %g)", rep.Phases.TotalJ(), c.EnergyJ(), rel)
	}
}

// TestShardedMergedTraceGOMAXPROCSInvariance: the merged Chrome trace
// and timeline of a steal-heavy multi-shard run are byte-identical at
// GOMAXPROCS 1 and 4 — the merge is a pure function of the stream,
// invariant to shard drain order.
func TestShardedMergedTraceGOMAXPROCSInvariance(t *testing.T) {
	var baseChrome, baseTimeline string
	for i, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		r := runSharded(t, 8, ShardedConfig{Shards: 4, Steal: true}, skewedStream(t, 48, 10))
		c, ts := r.sched, r.trace
		runtime.GOMAXPROCS(old)
		if c.Steals() == 0 {
			t.Fatal("steal pass never fired — the invariance case is vacuous")
		}
		chrome := render(t, func(w *bytes.Buffer) error { return ts.WriteChromeTrace(w) })
		timeline := render(t, func(w *bytes.Buffer) error { return ts.WriteTimeline(w) })
		if i == 0 {
			baseChrome, baseTimeline = chrome, timeline
			continue
		}
		if chrome != baseChrome {
			t.Fatal("merged Chrome trace diverged across GOMAXPROCS")
		}
		if timeline != baseTimeline {
			t.Fatal("merged timeline diverged across GOMAXPROCS")
		}
	}
}

// TestShardedStealFlowPairs: every steal produces exactly one
// victim-side steal_out span and one thief-side steal_in span sharing
// a unique link id, each naming the counterparty shard, and the merged
// Chrome export joins them with a flow-start ("s") / flow-finish ("f")
// event pair per link.
func TestShardedStealFlowPairs(t *testing.T) {
	r := runSharded(t, 8, ShardedConfig{Shards: 4, Steal: true}, skewedStream(t, 48, 10))
	c, ts := r.sched, r.trace
	steals := c.Steals()
	if steals == 0 {
		t.Fatal("steal pass never fired")
	}
	outs := map[int]tracing.Span{}
	ins := map[int]tracing.Span{}
	for _, s := range ts.Spans() {
		switch s.Kind {
		case tracing.KindStealOut:
			if _, dup := outs[s.Attrs.Link]; dup {
				t.Fatalf("link %d has two steal_out spans", s.Attrs.Link)
			}
			outs[s.Attrs.Link] = s
		case tracing.KindStealIn:
			if _, dup := ins[s.Attrs.Link]; dup {
				t.Fatalf("link %d has two steal_in spans", s.Attrs.Link)
			}
			ins[s.Attrs.Link] = s
		}
	}
	if len(outs) != steals || len(ins) != steals {
		t.Fatalf("%d steal_out and %d steal_in spans for %d steals", len(outs), len(ins), steals)
	}
	for link, out := range outs {
		in, ok := ins[link]
		if !ok {
			t.Fatalf("steal_out link %d has no steal_in counterpart", link)
		}
		if out.Attrs.Job != in.Attrs.Job || out.Attrs.App != in.Attrs.App || out.Start != in.Start {
			t.Fatalf("link %d halves disagree: out %+v in %+v", link, out.Attrs, in.Attrs)
		}
		if out.Attrs.Shard == in.Attrs.Shard {
			t.Fatalf("link %d stayed on shard %d — steals are cross-shard by construction", link, out.Attrs.Shard)
		}
		// Each half names the counterparty shard.
		if want := fmt.Sprintf("to=shard%d", in.Attrs.Shard); out.Attrs.Detail != want {
			t.Fatalf("link %d steal_out detail %q, want %q", link, out.Attrs.Detail, want)
		}
		if want := fmt.Sprintf("from=shard%d", out.Attrs.Shard); in.Attrs.Detail != want {
			t.Fatalf("link %d steal_in detail %q, want %q", link, in.Attrs.Detail, want)
		}
	}

	// The merged Chrome document carries one flow pair per steal, ids
	// matching the span links.
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID int    `json:"id"`
			BP string `json:"bp"`
		} `json:"traceEvents"`
	}
	raw := render(t, func(w *bytes.Buffer) error { return ts.WriteChromeTrace(w) })
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	starts := map[int]int{}
	finishes := map[int]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			starts[e.ID]++
		case "f":
			finishes[e.ID]++
			if e.BP != "e" {
				t.Fatalf("flow finish id %d missing bp=e binding", e.ID)
			}
		}
	}
	if len(starts) != steals || len(finishes) != steals {
		t.Fatalf("%d flow starts and %d finishes for %d steals", len(starts), len(finishes), steals)
	}
	for link := range outs {
		if starts[link] != 1 || finishes[link] != 1 {
			t.Fatalf("link %d has %d flow starts and %d finishes, want 1/1", link, starts[link], finishes[link])
		}
	}

	// The merged timeline renders both halves with their link ids.
	timeline := render(t, func(w *bytes.Buffer) error { return ts.WriteTimeline(w) })
	for _, pat := range []string{`steal_out`, `steal_in`, `link=1\b`, `== merged ==`} {
		if !regexp.MustCompile(pat).MatchString(timeline) {
			t.Fatalf("merged timeline missing %q:\n%s", pat, timeline[:min(2000, len(timeline))])
		}
	}
}

// TestShardedTraceEnergyConservation extends the conservation
// invariants shard-wise: per shard, the node-occupancy spans integrate
// exactly that shard's accrued energy; summed over shards they match
// the global total the merged report prints; and the merged run spans
// carry exactly the solo+co-located share.
func TestShardedTraceEnergyConservation(t *testing.T) {
	r := runSharded(t, 8, ShardedConfig{Shards: 4, Steal: true}, skewedStream(t, 48, 10))
	c, ts := r.sched, r.trace
	if c.Steals() == 0 {
		t.Fatal("steal pass never fired — conservation across steals is vacuous")
	}
	var nodeSum float64
	for i := 0; i < c.Shards(); i++ {
		spans := shardSpans(ts, i)
		shardNodes := tracing.TotalEnergyJ(spans, tracing.KindNode)
		if rel := relErr(shardNodes, c.shards[i].energyJ); rel > 1e-9 {
			t.Fatalf("shard %d: node spans %.6f J != engine energy %.6f J (rel %g)",
				i, shardNodes, c.shards[i].energyJ, rel)
		}
		nodeSum += shardNodes
	}
	if rel := relErr(nodeSum, c.EnergyJ()); rel > 1e-9 {
		t.Fatalf("Σ per-shard node spans %.6f J != global energy %.6f J (rel %g)", nodeSum, c.EnergyJ(), rel)
	}
	merged := ts.Spans()
	p := c.Phases()
	runSum := tracing.TotalEnergyJ(merged, tracing.KindRun)
	if rel := relErr(runSum, p.SoloJ+p.CoJ); rel > 1e-9 {
		t.Fatalf("merged run spans %.6f J != solo+co %.6f J (rel %g)", runSum, p.SoloJ+p.CoJ, rel)
	}
	phaseSum := tracing.TotalEnergyJ(merged, tracing.KindMap) + tracing.TotalEnergyJ(merged, tracing.KindReduce)
	if rel := relErr(phaseSum, runSum); rel > 1e-9 {
		t.Fatalf("merged map+reduce spans %.6f J != run spans %.6f J (rel %g)", phaseSum, runSum, rel)
	}
	// Steal spans are instantaneous markers: they carry no energy.
	for _, k := range []tracing.Kind{tracing.KindStealOut, tracing.KindStealIn} {
		if e := tracing.TotalEnergyJ(merged, k); e != 0 {
			t.Fatalf("%v spans carry %.6f J, want 0", k, e)
		}
	}
	rep := ts.Report()
	if rel := relErr(rep.Phases.TotalJ(), c.EnergyJ()); rel > 1e-9 {
		t.Fatalf("merged report total %.6f J != global energy %.6f J (rel %g)", rep.Phases.TotalJ(), c.EnergyJ(), rel)
	}
	if rel := relErr(rep.AttributedJ, p.SoloJ+p.CoJ); rel > 1e-9 {
		t.Fatalf("merged report attributed %.6f J != solo+co %.6f J (rel %g)", rep.AttributedJ, p.SoloJ+p.CoJ, rel)
	}
}
