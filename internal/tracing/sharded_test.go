package tracing

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// shardFixture builds a two-shard set with interleaved span starts and
// a steal pair linking the shards, exercising the merge tie-breaks:
// identical starts across shards and within one shard.
func shardFixture(t *testing.T) *ShardSet {
	t.Helper()
	ts := NewShardSet()
	for i := 0; i < 2; i++ {
		clk := &fakeClock{}
		ts.Attach(New(clk.now))
	}
	a, b := ts.Tracer(0), ts.Tracer(1)
	a.Record(KindNode, "solo", nil, 0, 10, Attrs{Node: 0}).AddEnergy(4)
	b.Record(KindNode, "solo", nil, 0, 10, Attrs{Node: 1}).AddEnergy(6)
	a.Record(KindRun, "run j0", nil, 1, 5, Attrs{Job: 0, Node: 0, App: "wc"}).AddEnergy(4)
	b.Record(KindRun, "run j1", nil, 1, 7, Attrs{Job: 1, Node: 1, App: "pr"}).AddEnergy(6)
	a.Record(KindStealOut, "steal_out", nil, 3, 3, Attrs{Job: 2, Node: -1, App: "wc", Detail: "to=shard1", Link: 1})
	b.Record(KindStealIn, "steal_in", nil, 3, 3, Attrs{Job: 2, Node: -1, App: "wc", Detail: "from=shard0", Link: 1})
	return ts
}

// TestMergeDeterministic: Merge sorts on (Start, Shard, ID) and is
// invariant to the order the per-shard span sets are supplied in.
func TestMergeDeterministic(t *testing.T) {
	ts := shardFixture(t)
	s0, s1 := ts.Tracer(0).Spans(), ts.Tracer(1).Spans()
	fwd := Merge(s0, s1)
	rev := Merge(s1, s0)
	if len(fwd) != len(s0)+len(s1) {
		t.Fatalf("merged %d spans from %d+%d inputs", len(fwd), len(s0), len(s1))
	}
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("merge order depends on input order at %d: %+v vs %+v", i, fwd[i], rev[i])
		}
	}
	for i := 1; i < len(fwd); i++ {
		a, b := fwd[i-1], fwd[i]
		if a.Start > b.Start ||
			(a.Start == b.Start && a.Shard > b.Shard) ||
			(a.Start == b.Start && a.Shard == b.Shard && a.ID > b.ID) {
			t.Fatalf("merged order violates (Start, Shard, ID) at %d: %+v then %+v", i, a, b)
		}
	}
	// Spans carry the shard they were recorded on.
	for _, s := range fwd {
		if s.Shard != 0 && s.Shard != 1 {
			t.Fatalf("span %q has shard %d, want 0 or 1", s.Name, s.Shard)
		}
	}
}

// TestShardSetSingleDelegation: a one-shard set's exports are
// byte-identical to the lone tracer's own exporters — the sharded path
// is a superset, not a dialect.
func TestShardSetSingleDelegation(t *testing.T) {
	ts := NewShardSet()
	clk := &fakeClock{}
	tr := New(clk.now)
	ts.Attach(tr)
	tr.Record(KindNode, "node", nil, 0, 10, Attrs{Node: 0}).AddEnergy(4)
	tr.Record(KindRun, "run", nil, 1, 5, Attrs{Job: 0, Node: 0, App: "wc"}).AddEnergy(4)

	var setChrome, soloChrome, setTL, soloTL bytes.Buffer
	if err := ts.WriteChromeTrace(&setChrome); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&soloChrome); err != nil {
		t.Fatal(err)
	}
	if setChrome.String() != soloChrome.String() {
		t.Fatalf("single-shard Chrome trace != solo export:\n%s\nvs\n%s", setChrome.String(), soloChrome.String())
	}
	if err := ts.WriteTimeline(&setTL); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteTimeline(&soloTL); err != nil {
		t.Fatal(err)
	}
	if setTL.String() != soloTL.String() {
		t.Fatalf("single-shard timeline != solo export:\n%s\nvs\n%s", setTL.String(), soloTL.String())
	}
	if strings.Contains(setTL.String(), "== shard") {
		t.Fatal("single-shard timeline grew section headers")
	}
}

// TestMergedChromeTrace: the multi-shard Chrome export is valid JSON
// with one contiguous pid block per shard (scheduler + its nodes,
// named and sort-indexed), and the steal pair renders as a flow
// start/finish joined by the link id.
func TestMergedChromeTrace(t *testing.T) {
	ts := shardFixture(t)
	var buf bytes.Buffer
	if err := ts.WriteChromeTrace(&buf); err != nil {
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
	ts := shardFixture(t)
	var buf bytes.Buffer
	if err := ts.WriteTimeline(&buf); err != nil {
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

// TestShardSetNilSafety: a nil set and out-of-range lookups behave
// like disabled tracing end to end — no panics, empty exports.
func TestShardSetNilSafety(t *testing.T) {
	var ts *ShardSet
	if ts.Shards() != 0 {
		t.Fatal("nil set reports shards")
	}
	if tr := ts.Tracer(0); tr != nil {
		t.Fatal("nil set yields a tracer")
	}
	// The full span chain on the nil-tracer result is a no-op.
	sp := ts.Tracer(3).Start(KindRun, "run", nil, Attrs{})
	sp.AddEnergy(1)
	sp.Finish()
	if got := ts.Merge(); len(got) != 0 {
		t.Fatalf("nil set merges %d spans", len(got))
	}
	live := NewShardSet()
	live.Attach(New(nil))
	if tr := live.Tracer(7); tr != nil {
		t.Fatal("out-of-range Tracer index yields a tracer")
	}
	if tr := live.Tracer(-1); tr != nil {
		t.Fatal("negative Tracer index yields a tracer")
	}
}

// TestMergedReportRollsUp: the merged report attributes energy across
// both shards and ignores the zero-duration steal markers.
func TestMergedReportRollsUp(t *testing.T) {
	ts := shardFixture(t)
	rep := ts.Report()
	if got := rep.Phases.TotalJ(); got != 10 {
		t.Fatalf("merged report total %v J, want 10", got)
	}
	if len(rep.Jobs) != 2 {
		t.Fatalf("merged report has %d jobs, want 2", len(rep.Jobs))
	}
}

// BenchmarkDisabledShardSpan proves the disabled sharded path costs
// the same single branch as disabled solo tracing: a nil ShardSet's
// Tracer lookup plus the full span chain must stay under the
// benchguard-gated sub-nanosecond/zero-alloc budget.
func BenchmarkDisabledShardSpan(b *testing.B) {
	var ts *ShardSet
	attrs := Attrs{Job: 1, Node: 0, App: "wc", Class: "C"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := ts.Tracer(i&3).Start(KindRun, "run", nil, attrs)
		sp.AddEnergy(1)
		sp.Finish()
	}
}
