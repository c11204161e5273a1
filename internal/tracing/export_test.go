package tracing

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// sampleTracer builds a small two-node, two-job trace with energy.
func sampleTracer() *Tracer {
	tr := New()
	j0 := tr.Record(KindJob, "job wc", nil, 0, 100, Attrs{Job: 0, Node: -1, App: "wc", Class: "C", SizeGB: 5})
	tr.Record(KindWait, "wait", j0, 0, 10, Attrs{Job: 0, Node: -1})
	run := tr.Record(KindRun, "run wc", j0, 10, 100, Attrs{Job: 0, Node: 0, App: "wc", Class: "C", Config: "f2.4 m4", Partner: "nb"})
	run.AddEnergy(900)
	tr.Record(KindMap, "map", run, 10, 70, Attrs{Job: 0, Node: 0}).AddEnergy(600)
	tr.Record(KindReduce, "reduce", run, 70, 100, Attrs{Job: 0, Node: 0}).AddEnergy(300)

	j1 := tr.Record(KindJob, "job nb", nil, 5, 80, Attrs{Job: 1, Node: -1, App: "nb", Class: "I", SizeGB: 1})
	r1 := tr.Record(KindRun, "run nb", j1, 5, 80, Attrs{Job: 1, Node: 0, App: "nb", Class: "I", Config: "f1.6 m2"})
	r1.AddEnergy(300)

	tr.Record(KindNode, "idle", nil, 0, 5, Attrs{Job: -1, Node: 0}).AddEnergy(40)
	tr.Record(KindNode, "solo", nil, 5, 10, Attrs{Job: -1, Node: 0}).AddEnergy(60)
	tr.Record(KindNode, "co-located", nil, 10, 80, Attrs{Job: -1, Node: 0}).AddEnergy(1000)
	tr.Record(KindNode, "solo", nil, 80, 100, Attrs{Job: -1, Node: 0}).AddEnergy(100)
	tr.Record(KindNode, "idle", nil, 0, 100, Attrs{Job: -1, Node: 1}).AddEnergy(100)
	return tr
}

func TestChromeTraceExport(t *testing.T) {
	tr := sampleTracer()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var complete, meta int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			complete++
			if e.Ts < 0 || e.Dur < 0 {
				t.Errorf("negative ts/dur in %+v", e)
			}
			if _, ok := e.Args["energy_j"]; !ok {
				t.Errorf("complete event %q missing energy_j", e.Name)
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if complete != tr.Len() {
		t.Fatalf("exported %d complete events for %d spans", complete, tr.Len())
	}
	// Process metadata: scheduler plus the two nodes.
	if meta != 3 {
		t.Fatalf("exported %d process_name records, want 3", meta)
	}
	// The run span carries its config and partner and sits on node 0's
	// process (pid 1).
	for _, e := range doc.TraceEvents {
		if e.Name == "run wc" {
			if e.Pid != 1 {
				t.Errorf("run span on pid %d, want 1", e.Pid)
			}
			if e.Args["config"] != "f2.4 m4" || e.Args["partner"] != "nb" {
				t.Errorf("run span args = %v", e.Args)
			}
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := sampleTracer().WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("chrome export not byte-stable:\n%s\n---\n%s", a, b)
	}
}

func TestTimelineExport(t *testing.T) {
	tr := sampleTracer()
	tr.Record(KindJob, "job open", nil, 0, math.NaN(), Attrs{Job: 2, Node: -1, App: "pr"})
	var buf bytes.Buffer
	if err := tr.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header (2 lines) + one line per span.
	if got, want := len(lines), tr.Len()+2; got != want {
		t.Fatalf("timeline has %d lines, want %d:\n%s", got, want, out)
	}
	if !strings.Contains(out, "(open)") {
		t.Fatalf("open span not marked:\n%s", out)
	}
	if !strings.Contains(out, "partner=nb") || !strings.Contains(out, "cfg=f2.4 m4") {
		t.Fatalf("attributes missing:\n%s", out)
	}
	// Start times must be non-decreasing down the page.
	prev := math.Inf(-1)
	for _, ln := range lines[2:] {
		fields := strings.Fields(ln)
		if len(fields) == 0 {
			continue
		}
		start, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("unparseable line %q: %v", ln, err)
		}
		if start < prev {
			t.Fatalf("timeline not sorted at %q", ln)
		}
		prev = start
	}
	var buf2 bytes.Buffer
	if err := tr.WriteTimeline(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatal("timeline not byte-stable across renders")
	}
}

func TestReportRollup(t *testing.T) {
	rep := sampleTracer().Report()
	if len(rep.Jobs) != 2 {
		t.Fatalf("report has %d jobs: %+v", len(rep.Jobs), rep.Jobs)
	}
	j0 := rep.Jobs[0]
	if j0.App != "wc" || j0.Class != "C" || j0.WaitS != 10 || j0.RunS != 90 {
		t.Fatalf("job 0 row = %+v", j0)
	}
	if j0.EnergyJ != 900 || j0.EDP != 900*90 {
		t.Fatalf("job 0 energy/EDP = %v / %v", j0.EnergyJ, j0.EDP)
	}
	if j0.MapS != 60 || j0.ReduceS != 30 {
		t.Fatalf("job 0 phases = map %v reduce %v", j0.MapS, j0.ReduceS)
	}
	if rep.AttributedJ != 1200 {
		t.Fatalf("attributed = %v, want 1200", rep.AttributedJ)
	}
	if rep.Phases.IdleJ != 140 || rep.Phases.SoloJ != 160 || rep.Phases.CoJ != 1000 {
		t.Fatalf("phase split = %+v", rep.Phases)
	}
	if len(rep.Classes) != 2 || rep.Classes[0].Class != "C" || rep.Classes[0].EDP != j0.EDP {
		t.Fatalf("class rollup = %+v", rep.Classes)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"job", "class", "occupancy phase", "attributed to jobs"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report text missing %q:\n%s", want, buf.String())
		}
	}
}

// The reference Chrome encoder: the map-based exporter the streaming
// writer replaced, kept test-only so FuzzChromeTraceMatchesReference
// can hold the writer to its bytes. It builds the whole document, with
// each span's args as a map that encoding/json sorts by key.

type refEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   int            `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type refDoc struct {
	TraceEvents     []refEvent `json:"traceEvents"`
	DisplayTimeUnit string     `json:"displayTimeUnit"`
}

func refArgs(s Span) map[string]any {
	args := map[string]any{"energy_j": s.EnergyJ}
	a := s.Attrs
	if a.Job >= 0 {
		args["job"] = a.Job
	}
	if a.Node >= 0 {
		args["node"] = a.Node
	}
	if a.App != "" {
		args["app"] = a.App
	}
	if a.Class != "" {
		args["class"] = a.Class
	}
	if a.SizeGB > 0 {
		args["size_gb"] = a.SizeGB
	}
	if a.Config != "" {
		args["config"] = a.Config
	}
	if a.Partner != "" {
		args["partner"] = a.Partner
	}
	if a.Detail != "" {
		args["detail"] = a.Detail
	}
	if a.Link > 0 {
		args["link"] = a.Link
	}
	if s.Open() {
		args["open"] = true
	}
	return args
}

func refFlow(s Span, pid, tid int) (refEvent, bool) {
	if s.Attrs.Link <= 0 {
		return refEvent{}, false
	}
	ev := refEvent{Name: "steal", Cat: "steal", Ts: s.Start * 1e6, Pid: pid, Tid: tid, ID: s.Attrs.Link}
	switch s.Kind {
	case KindStealOut:
		ev.Ph = "s"
	case KindStealIn:
		ev.Ph, ev.BP = "f", "e"
	default:
		return refEvent{}, false
	}
	return ev, true
}

// refSpanEvents appends every span's complete event and steal flow
// event, placing each with track.
func refSpanEvents(doc *refDoc, spans []Span, track func(Span) (int, int)) {
	for _, s := range spans {
		pid, tid := track(s)
		dur := s.Dur() * 1e6
		doc.TraceEvents = append(doc.TraceEvents, refEvent{Name: s.Name, Cat: s.Kind.String(), Ph: "X",
			Ts: s.Start * 1e6, Dur: &dur, Pid: pid, Tid: tid, Args: refArgs(s)})
		if ev, ok := refFlow(s, pid, tid); ok {
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
}

// refSoloChrome is the reference for WriteChromeTrace.
func refSoloChrome(w io.Writer, spans []Span) error {
	doc := refDoc{TraceEvents: []refEvent{}, DisplayTimeUnit: "ms"}
	maxNode := -1
	for _, s := range spans {
		if s.Attrs.Node > maxNode {
			maxNode = s.Attrs.Node
		}
	}
	meta := func(pid int, name string) {
		doc.TraceEvents = append(doc.TraceEvents, refEvent{Name: "process_name", Cat: "__metadata", Ph: "M",
			Pid: pid, Args: map[string]any{"name": name}})
	}
	meta(0, "scheduler")
	for n := 0; n <= maxNode; n++ {
		meta(n+1, "node "+strconv.Itoa(n))
	}
	refSpanEvents(&doc, spans, func(s Span) (int, int) {
		switch s.Kind {
		case KindJob, KindWait, KindTune, KindStealOut, KindStealIn:
			return 0, s.Attrs.Job
		case KindNode:
			return s.Attrs.Node + 1, 0
		default:
			return s.Attrs.Node + 1, s.Attrs.Job + 1
		}
	})
	return json.NewEncoder(w).Encode(doc)
}

// refTracerChrome is the reference for Tracer.WriteChromeTrace over
// spans in Spans order.
func refTracerChrome(w io.Writer, spans []Span) error {
	var shards []int
	nodes := map[int]map[int]bool{}
	for _, s := range spans {
		if nodes[s.Attrs.Shard] == nil {
			shards = append(shards, s.Attrs.Shard)
			nodes[s.Attrs.Shard] = map[int]bool{}
		}
		if s.Attrs.Node >= 0 {
			nodes[s.Attrs.Shard][s.Attrs.Node] = true
		}
	}
	if len(shards) <= 1 {
		return refSoloChrome(w, spans)
	}
	sort.Ints(shards)
	doc := refDoc{TraceEvents: []refEvent{}, DisplayTimeUnit: "ms"}
	schedPid, nodePid := map[int]int{}, map[int]int{}
	next := 0
	meta := func(pid int, name string) {
		doc.TraceEvents = append(doc.TraceEvents,
			refEvent{Name: "process_name", Cat: "__metadata", Ph: "M", Pid: pid, Args: map[string]any{"name": name}},
			refEvent{Name: "process_sort_index", Cat: "__metadata", Ph: "M", Pid: pid, Args: map[string]any{"sort_index": pid}})
	}
	for _, si := range shards {
		schedPid[si] = next
		meta(next, "shard "+strconv.Itoa(si)+" scheduler")
		next++
		var ns []int
		for n := range nodes[si] {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		for _, n := range ns {
			nodePid[n] = next
			meta(next, fmt.Sprintf("node %d (shard %d)", n, si))
			next++
		}
	}
	refSpanEvents(&doc, spans, func(s Span) (int, int) {
		switch s.Kind {
		case KindJob, KindWait, KindTune, KindStealOut, KindStealIn:
			return schedPid[s.Attrs.Shard], s.Attrs.Job
		case KindNode:
			return nodePid[s.Attrs.Node], 0
		default:
			return nodePid[s.Attrs.Node], s.Attrs.Job + 1
		}
	})
	return json.NewEncoder(w).Encode(doc)
}

// sameBytes runs an export and its reference and fails unless both
// error or both render the same bytes.
func sameBytes(t *testing.T, name string, got, want func(io.Writer) error) {
	t.Helper()
	var g, w bytes.Buffer
	gerr, werr := got(&g), want(&w)
	switch {
	case werr != nil:
		if gerr == nil {
			t.Fatalf("%s: reference failed (%v), writer did not", name, werr)
		}
	case gerr != nil:
		t.Fatalf("%s: writer failed: %v", name, gerr)
	case !bytes.Equal(g.Bytes(), w.Bytes()):
		t.Fatalf("%s: writer and reference differ:\n%s\n---\n%s", name, g.Bytes(), w.Bytes())
	}
}

// FuzzChromeTraceMatchesReference records one span of every kind per
// shard from the fuzzed attributes, varying start, node and openness
// across spans, and requires both Chrome layouts to match the
// reference byte for byte: the tracer's export (solo for one shard,
// per-shard blocks for more) and the package's solo export of the same
// spans.
func FuzzChromeTraceMatchesReference(f *testing.F) {
	negZero := math.Copysign(0, -1)
	f.Add(uint8(1), int8(-1), int8(-1), -1.0, int8(0), 0.0, 0.0, false, "wc", "")
	f.Add(uint8(3), int8(0), int8(0), 0.0, int8(-1), negZero, 1.5, true, `<>&"\`, "\u2028\xff")
	f.Add(uint8(3), int8(-1), int8(0), 5.0, int8(1), 1e-7, 2.0, false, "nb", `a"b<c>`)
	f.Add(uint8(1), int8(0), int8(-1), 0.5, int8(3), 1e21, 0.25, true, "\xff\xfe", "p q")
	f.Add(uint8(3), int8(2), int8(5), -0.5, int8(7), 1e21, 10.0, true, "pr", "&amp;")
	f.Add(uint8(1), int8(7), int8(2), 1e-9, int8(-3), 1e-7, 3.0, false, "", "x")
	f.Fuzz(func(t *testing.T, shards uint8, job, node int8, sizeGB float64, link int8,
		energyJ, start float64, open bool, app, detail string) {
		tr := New()
		for si := 0; si < int(shards%4); si++ {
			for k := KindJob; k <= KindStealIn; k++ {
				i := si*int(KindStealIn+1) + int(k)
				end := start + float64(i%3)
				if open && i%2 == 0 {
					end = math.NaN()
				}
				tr.Record(k, app+k.String(), nil, start+float64(i%4), end, Attrs{
					Job: int(job), Node: int(node)%8 + si*(i%2), App: app, Class: detail,
					SizeGB: sizeGB, Config: detail, Partner: app, Detail: detail,
					Link: int(link), Shard: si,
				}).AddEnergy(energyJ)
			}
		}
		spans := tr.Spans()
		sameBytes(t, "tracer", tr.WriteChromeTrace, func(w io.Writer) error { return refTracerChrome(w, spans) })
		sameBytes(t, "solo",
			func(w io.Writer) error { return WriteChromeTrace(w, spans) },
			func(w io.Writer) error { return refSoloChrome(w, spans) })
	})
}
