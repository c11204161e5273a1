package tracing

import (
	"bufio"
	"bytes"
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
// Both consume canonical (Start, Shard, ID)-sorted spans and skip
// nothing silently: open spans render with their start time and a zero
// duration, marked "open". Each form has one writer; the solo and
// multi-shard (sharded.go) exports differ only in their layout.

// chromeEvent is one trace_event entry. Struct fields fix the JSON key
// order. Args holds a typed struct whose fields are declared in sorted
// key order, so it encodes to the bytes encoding/json writes for a map
// of the same keys.
type chromeEvent struct {
	Name string   `json:"name"`
	Cat  string   `json:"cat"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	ID   int      `json:"id,omitempty"`
	BP   string   `json:"bp,omitempty"`
	Args any      `json:"args,omitempty"`
}

// spanArgs are a span's attributes and energy attribution. A pointer
// field is set only when its attribute is in range (job and node ≥ 0,
// size_gb and link > 0), so omitempty drops the rest.
type spanArgs struct {
	App     string   `json:"app,omitempty"`
	Class   string   `json:"class,omitempty"`
	Config  string   `json:"config,omitempty"`
	Detail  string   `json:"detail,omitempty"`
	EnergyJ float64  `json:"energy_j"`
	Job     *int     `json:"job,omitempty"`
	Link    *int     `json:"link,omitempty"`
	Node    *int     `json:"node,omitempty"`
	Open    bool     `json:"open,omitempty"`
	Partner string   `json:"partner,omitempty"`
	SizeGB  *float64 `json:"size_gb,omitempty"`
}

// newSpanArgs points spanArgs' optional fields into s.
func newSpanArgs(s *Span) spanArgs {
	a := &s.Attrs
	return spanArgs{App: a.App, Class: a.Class, Config: a.Config, Detail: a.Detail,
		EnergyJ: s.EnergyJ, Job: ptrIf(a.Job >= 0, &a.Job), Link: ptrIf(a.Link > 0, &a.Link),
		Node: ptrIf(a.Node >= 0, &a.Node), Open: s.Open(), Partner: a.Partner,
		SizeGB: ptrIf(a.SizeGB > 0, &a.SizeGB)}
}

// ptrIf returns p when ok holds, else nil.
func ptrIf[T any](ok bool, p *T) *T {
	if ok {
		return p
	}
	return nil
}

// chromeLayout maps spans onto Chrome processes. procs names them in
// pid order, and sortIndex pins each one's process_sort_index.
// schedPid maps a shard to its scheduler process and nodePid a node to
// its process. The solo layout leaves both nil: the scheduler is pid 0
// and node n is pid n+1.
type chromeLayout struct {
	procs     []string
	sortIndex bool
	schedPid  map[int]int
	nodePid   map[int]int
}

// soloLayout names the scheduler and every node up to the highest a
// span names.
func soloLayout(spans []Span) chromeLayout {
	maxNode := -1
	for i := range spans {
		maxNode = max(maxNode, spans[i].Attrs.Node)
	}
	procs := []string{"scheduler"}
	for n := 0; n <= maxNode; n++ {
		procs = append(procs, "node "+strconv.Itoa(n))
	}
	return chromeLayout{procs: procs}
}

// track returns a span's (pid, tid): scheduler-level spans sit on
// their shard's scheduler, one thread per job; node occupancy is its
// node's thread 0, and run / map / reduce take one thread per job on
// their node.
func (l *chromeLayout) track(s *Span) (pid, tid int) {
	node := s.Attrs.Node + 1
	if l.nodePid != nil {
		node = l.nodePid[s.Attrs.Node]
	}
	switch s.Kind {
	case KindJob, KindWait, KindTune, KindStealOut, KindStealIn:
		return l.schedPid[s.Attrs.Shard], s.Attrs.Job // a nil map reads pid 0
	case KindNode:
		return node, 0
	default:
		return node, s.Attrs.Job + 1
	}
}

// writeChrome streams the trace_event document of spans laid out by l:
// each process's metadata in pid order, then every span's complete
// event in span order. A linked steal span also carries a flow event:
// the victim's steal_out starts it ("s") and the thief's steal_in
// finishes it ("f", binding to the enclosing slice), so Perfetto draws
// the hand-off arrow between shards. Each event goes through
// encoding/json on its own, so memory stays one event deep; a
// non-finite time or energy fails the encode and cuts the output short.
func writeChrome(w io.Writer, spans []Span, l chromeLayout) error {
	bw := bufio.NewWriter(w)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	bw.WriteString(`{"traceEvents":[`)
	sep := ""
	var ev chromeEvent
	emit := func() error {
		buf.Reset()
		if err := enc.Encode(&ev); err != nil {
			return err
		}
		bw.WriteString(sep)
		bw.Write(buf.Bytes()[:buf.Len()-1]) // Encode ends the value with '\n'
		sep = ","
		return nil
	}
	for pid, name := range l.procs {
		ev = chromeEvent{Name: "process_name", Cat: "__metadata", Ph: "M", Pid: pid,
			Args: struct {
				Name string `json:"name"`
			}{name}}
		if err := emit(); err != nil {
			return err
		}
		if l.sortIndex {
			ev.Name, ev.Args = "process_sort_index", struct {
				SortIndex int `json:"sort_index"`
			}{pid}
			if err := emit(); err != nil {
				return err
			}
		}
	}
	var (
		args spanArgs
		dur  float64
	)
	for i := range spans {
		s := &spans[i]
		pid, tid := l.track(s)
		args, dur = newSpanArgs(s), s.Dur()*1e6
		ev = chromeEvent{Name: s.Name, Cat: s.Kind.String(), Ph: "X", Ts: s.Start * 1e6,
			Dur: &dur, Pid: pid, Tid: tid, Args: &args}
		if err := emit(); err != nil {
			return err
		}
		if s.Attrs.Link > 0 && (s.Kind == KindStealOut || s.Kind == KindStealIn) {
			ev = chromeEvent{Name: "steal", Cat: "steal", Ph: "s", Ts: s.Start * 1e6, Pid: pid, Tid: tid, ID: s.Attrs.Link}
			if s.Kind == KindStealIn {
				ev.Ph, ev.BP = "f", "e"
			}
			if err := emit(); err != nil {
				return err
			}
		}
	}
	bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return bw.Flush()
}

// WriteChromeTrace renders spans as one Chrome trace_event document in
// the solo layout: process 0 is the scheduler-level job view and
// process n+1 is node n.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	return writeChrome(w, spans, soloLayout(spans))
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
	return writeTimeline(w, spans, 0)
}

// writeTimeline is WriteTimeline's row writer. shards > 0 renders the
// merged section of that many shards instead: its own header, a
// leading shard column and a kind column wide enough for steal_out.
func writeTimeline(w io.Writer, spans []Span, shards int) error {
	bw := bufio.NewWriter(w)
	kindW := 6
	if shards > 0 {
		kindW = 9
		fmt.Fprintf(bw, "# ecost merged trace timeline: %d spans across %d shards\n#shard ", len(spans), shards)
	} else {
		fmt.Fprintf(bw, "# ecost trace timeline: %d spans\n#", len(spans))
	}
	fmt.Fprintf(bw, "%13s %13s %13s %-*s %-22s %4s %4s %14s  %s\n",
		"start_s", "end_s", "dur_s", kindW, "kind", "name", "job", "node", "energy_j", "attrs")
	for _, s := range spans {
		end, open := s.End, ""
		if s.Open() {
			end, open = s.Start, " (open)"
		}
		if shards > 0 {
			fmt.Fprintf(bw, " %5d", s.Attrs.Shard)
		}
		fmt.Fprintf(bw, " %13.6f %13.6f %13.6f %-*s %-22s %4d %4d %14.6f  %s%s\n",
			s.Start, end, s.Dur(), kindW, s.Kind, s.Name, s.Attrs.Job, s.Attrs.Node,
			s.EnergyJ, fmtAttrs(s.Attrs), open)
	}
	return bw.Flush()
}
