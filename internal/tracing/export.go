package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// This file renders recorded spans in two forms:
//
//   - Chrome trace_event JSON ("X" complete events), loadable in
//     Perfetto (ui.perfetto.dev) or chrome://tracing. Jobs appear as a
//     "scheduler" process with one thread per job; each node is its own
//     process with an occupancy track plus one track per resident job.
//
//   - A sorted text timeline, one line per span, designed for golden
//     tests: all values derive from the simulated clock, so same-seed
//     runs render byte-identical output at any GOMAXPROCS.
//
// Both exporters consume one shard's canonical (Start, ID)-sorted
// spans and skip nothing silently: open spans are rendered with their
// start time and a zero duration, marked "open". The Tracer methods in
// sharded.go choose between these solo layouts and the multi-shard
// ones.

// chromeEvent is one trace_event entry. Struct (not map) fields keep
// the JSON key order fixed; Args is a map but encoding/json sorts map
// keys, so the whole document is deterministic.
type chromeEvent struct {
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

// chromeDoc is the JSON-object form of the trace (the form Perfetto
// documents for metadata support).
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// chromeTrack maps a span onto a (pid, tid) track. Process 0 is the
// scheduler-level job view; process n+1 is node n.
func chromeTrack(s Span) (pid, tid int) {
	switch s.Kind {
	case KindJob, KindWait, KindTune, KindStealOut, KindStealIn:
		return 0, s.Attrs.Job
	case KindNode:
		return s.Attrs.Node + 1, 0
	default: // run / map / reduce live on their node, one track per job
		return s.Attrs.Node + 1, s.Attrs.Job + 1
	}
}

// chromeArgs renders the span attributes and energy attribution.
func chromeArgs(s Span) map[string]any {
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

// flowEvent returns the Chrome flow event a steal span carries: the
// victim's steal_out starts a flow ("s") and the thief's steal_in
// finishes it ("f", binding to the enclosing slice), joined by the
// link id. Perfetto then draws an arrow from the victim shard's track
// to the thief's, so a stolen job's wait→tune→run chain reads
// continuously across shards.
func flowEvent(s Span, pid, tid int) (chromeEvent, bool) {
	if s.Attrs.Link <= 0 {
		return chromeEvent{}, false
	}
	ev := chromeEvent{
		Name: "steal", Cat: "steal",
		Ts: s.Start * 1e6, Pid: pid, Tid: tid, ID: s.Attrs.Link,
	}
	switch s.Kind {
	case KindStealOut:
		ev.Ph = "s"
	case KindStealIn:
		ev.Ph, ev.BP = "f", "e"
	default:
		return chromeEvent{}, false
	}
	return ev, true
}

// ChromeTrace converts spans into the trace_event document.
func ChromeTrace(spans []Span) chromeDoc {
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	// Name the processes that actually appear, in pid order.
	maxNode := -1
	for _, s := range spans {
		if s.Attrs.Node > maxNode {
			maxNode = s.Attrs.Node
		}
	}
	meta := func(pid int, name string) {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Cat: "__metadata", Ph: "M",
			Pid: pid, Args: map[string]any{"name": name},
		})
	}
	meta(0, "scheduler")
	for n := 0; n <= maxNode; n++ {
		meta(n+1, "node "+strconv.Itoa(n))
	}
	for _, s := range spans {
		pid, tid := chromeTrack(s)
		dur := s.Dur() * 1e6
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  s.Kind.String(),
			Ph:   "X",
			Ts:   s.Start * 1e6,
			Dur:  &dur,
			Pid:  pid,
			Tid:  tid,
			Args: chromeArgs(s),
		})
		if ev, ok := flowEvent(s, pid, tid); ok {
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	return doc
}

// WriteChromeTrace renders spans as Chrome trace_event JSON.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ChromeTrace(spans))
}

// fmtAttrs renders the non-empty attributes in a fixed order.
func fmtAttrs(a Attrs) string {
	out := ""
	add := func(k, v string) {
		if v == "" {
			return
		}
		if out != "" {
			out += " "
		}
		out += k + "=" + v
	}
	add("app", a.App)
	add("class", a.Class)
	if a.SizeGB > 0 {
		add("size_gb", strconv.FormatFloat(a.SizeGB, 'g', -1, 64))
	}
	add("cfg", a.Config)
	add("partner", a.Partner)
	add("detail", a.Detail)
	if a.Link > 0 {
		add("link", strconv.Itoa(a.Link))
	}
	return out
}

// WriteTimeline renders spans (already in canonical order) as text, one
// line per span. The format is fixed-width and derived from simulated
// quantities only, so it is byte-stable across same-seed runs.
func WriteTimeline(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# ecost trace timeline: %d spans\n", len(spans))
	fmt.Fprintf(bw, "#%13s %13s %13s %-6s %-22s %4s %4s %14s  %s\n",
		"start_s", "end_s", "dur_s", "kind", "name", "job", "node", "energy_j", "attrs")
	for _, s := range spans {
		end := s.End
		dur := s.Dur()
		open := ""
		if s.Open() {
			end = s.Start
			open = " (open)"
		}
		fmt.Fprintf(bw, " %13.6f %13.6f %13.6f %-6s %-22s %4d %4d %14.6f  %s%s\n",
			s.Start, end, dur, s.Kind, s.Name, s.Attrs.Job, s.Attrs.Node,
			s.EnergyJ, fmtAttrs(s.Attrs), open)
	}
	return bw.Flush()
}
