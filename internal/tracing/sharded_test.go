package tracing

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// shardFixture builds one tracer holding two shards' spans with
// interleaved starts and a steal pair linking the shards, exercising
// the merge tie-breaks: identical starts across shards and within one
// shard.
func shardFixture() *Tracer {
	tr := New()
	tr.Record(KindNode, "solo", nil, 0, 10, Attrs{Node: 0}).AddEnergy(4)
	tr.Record(KindNode, "solo", nil, 0, 10, Attrs{Node: 1, Shard: 1}).AddEnergy(6)
	tr.Record(KindRun, "run j0", nil, 1, 5, Attrs{Job: 0, Node: 0, App: "wc"}).AddEnergy(4)
	tr.Record(KindRun, "run j1", nil, 1, 7, Attrs{Job: 1, Node: 1, App: "pr", Shard: 1}).AddEnergy(6)
	tr.Record(KindStealIn, "steal_in", nil, 3, 3, Attrs{Job: 2, Node: -1, App: "wc", Detail: "from=shard0", Link: 1, Shard: 1})
	tr.Record(KindStealOut, "steal_out", nil, 3, 3, Attrs{Job: 2, Node: -1, App: "wc", Detail: "to=shard1", Link: 1})
	return tr
}

// TestMergeDeterministic: Spans sorts on (Start, Shard, ID), so a
// shard's spans sort ahead of a higher shard's at the same start
// whatever order they were recorded in.
func TestMergeDeterministic(t *testing.T) {
	spans := shardFixture().Spans()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.Start > b.Start ||
			(a.Start == b.Start && a.Attrs.Shard > b.Attrs.Shard) ||
			(a.Start == b.Start && a.Attrs.Shard == b.Attrs.Shard && a.ID > b.ID) {
			t.Fatalf("merged order violates (Start, Shard, ID) at %d: %+v then %+v", i, a, b)
		}
	}
	// The steal_in was recorded first, on the higher shard.
	if spans[4].Kind != KindStealOut || spans[5].Kind != KindStealIn {
		t.Fatalf("steal pair out of (Start, Shard) order: %v then %v", spans[4].Kind, spans[5].Kind)
	}
}

// TestSingleShardSoloLayout: spans from one shard render the solo
// layouts, whichever shard recorded them — the sharded path is a
// superset, not a dialect.
func TestSingleShardSoloLayout(t *testing.T) {
	for _, shard := range []int{0, 3} {
		tr := New()
		tr.Record(KindNode, "node", nil, 0, 10, Attrs{Node: 0, Shard: shard}).AddEnergy(4)
		tr.Record(KindRun, "run", nil, 1, 5, Attrs{Job: 0, Node: 0, App: "wc", Shard: shard}).AddEnergy(4)

		var chrome, soloChrome, tl, soloTL bytes.Buffer
		if err := tr.WriteChromeTrace(&chrome); err != nil {
			t.Fatal(err)
		}
		if err := WriteChromeTrace(&soloChrome, tr.Spans()); err != nil {
			t.Fatal(err)
		}
		if chrome.String() != soloChrome.String() {
			t.Fatalf("shard %d: single-shard Chrome trace != solo export:\n%s\nvs\n%s", shard, chrome.String(), soloChrome.String())
		}
		if err := tr.WriteTimeline(&tl); err != nil {
			t.Fatal(err)
		}
		if err := WriteTimeline(&soloTL, tr.Spans()); err != nil {
			t.Fatal(err)
		}
		if tl.String() != soloTL.String() {
			t.Fatalf("shard %d: single-shard timeline != solo export:\n%s\nvs\n%s", shard, tl.String(), soloTL.String())
		}
		if strings.Contains(tl.String(), "== shard") {
			t.Fatalf("shard %d: single-shard timeline grew section headers", shard)
		}
	}
}

// TestMergedChromeTrace: the multi-shard Chrome export is valid JSON
// with one contiguous pid block per shard (scheduler + its nodes,
// named and sort-indexed), and the steal pair renders as a flow
// start/finish joined by the link id.
func TestMergedChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := shardFixture().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			ID   int            `json:"id"`
			BP   string         `json:"bp"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v\n%s", err, buf.String())
	}
	names := map[string]bool{}
	var flowS, flowF int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "M" && e.Name == "process_name":
			if n, ok := e.Args["name"].(string); ok {
				names[n] = true
			}
		case e.Ph == "s":
			flowS++
			if e.ID != 1 {
				t.Fatalf("flow start id %d, want steal link 1", e.ID)
			}
		case e.Ph == "f":
			flowF++
			if e.BP != "e" {
				t.Fatalf("flow finish missing bp=e: %+v", e)
			}
		}
	}
	for _, want := range []string{"shard 0 scheduler", "shard 1 scheduler", "node 0 (shard 0)", "node 1 (shard 1)"} {
		if !names[want] {
			t.Fatalf("merged trace missing track group %q (have %v)", want, names)
		}
	}
	if flowS != 1 || flowF != 1 {
		t.Fatalf("steal pair produced %d flow starts and %d finishes, want 1/1", flowS, flowF)
	}
}

// TestMergedTimelineSections: the multi-shard timeline renders one
// "== shard N ==" section per shard plus the global "== merged =="
// section whose rows lead with the shard column.
func TestMergedTimelineSections(t *testing.T) {
	var buf bytes.Buffer
	if err := shardFixture().WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== shard 0 ==", "== shard 1 ==", "== merged ==", "# ecost merged trace timeline", "steal_out", "steal_in", "link=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged timeline missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "== shard 0 ==") > strings.Index(out, "== shard 1 ==") ||
		strings.Index(out, "== shard 1 ==") > strings.Index(out, "== merged ==") {
		t.Fatalf("timeline sections out of order:\n%s", out)
	}
}

// TestShardStampedNilSafety: a nil tracer handed shard-stamped
// attributes behaves like disabled tracing end to end — no panics, no
// spans, and the empty solo exports.
func TestShardStampedNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Record(KindRun, "run", nil, 0, math.NaN(), Attrs{Shard: 3})
	sp.AddEnergy(1)
	sp.FinishAt(1)
	tr.Record(KindStealIn, "steal_in", sp, 1, 1, Attrs{Shard: 2, Link: 1}).FinishAt(2)
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("nil tracer holds %d spans", len(got))
	}
	var chrome, want bytes.Buffer
	if err := tr.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeTrace(&want, nil); err != nil {
		t.Fatal(err)
	}
	if chrome.String() != want.String() {
		t.Fatalf("nil tracer Chrome trace %q, want the empty solo document %q", chrome.String(), want.String())
	}
	var tl bytes.Buffer
	if err := tr.WriteTimeline(&tl); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tl.String(), "== shard") {
		t.Fatal("nil tracer timeline grew section headers")
	}
}

// TestMergedReportRollsUp: the merged report attributes energy across
// both shards and ignores the zero-duration steal markers.
func TestMergedReportRollsUp(t *testing.T) {
	rep := shardFixture().Report()
	if got := rep.Phases.TotalJ(); got != 10 {
		t.Fatalf("merged report total %v J, want 10", got)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("merged report has %d jobs, want 2", len(rep.Jobs))
	}
}

// BenchmarkDisabledShardSpan proves the disabled sharded path costs
// the same single branch as disabled solo tracing: a shard-stamped span
// chain on a nil tracer must stay under the benchguard-gated
// sub-nanosecond/zero-alloc budget.
func BenchmarkDisabledShardSpan(b *testing.B) {
	var tr *Tracer
	attrs := Attrs{Job: 1, Node: 0, App: "wc", Class: "C", Shard: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := float64(i)
		sp := tr.Record(KindRun, "run", nil, at, math.NaN(), attrs)
		sp.AddEnergy(1)
		sp.FinishAt(at)
	}
}
