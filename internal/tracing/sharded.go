package tracing

// Sharded tracing: one Tracer records a whole sharded control plane,
// and each span carries the index of the shard that recorded it in
// Attrs.Shard. The exports choose their layout from the spans
// themselves: spans from one shard render the solo layout (export.go);
// spans from more render one section or track group per shard plus a
// merged view. Every byte is deterministic by construction:
//
//   - Spans sorts by (Start, Shard, ID). Start comes from the simulated
//     clock, Shard from the recorder, and ID from creation order in the
//     single-threaded event loop, so the merged order — and every byte
//     the exporters derive from it — is identical at any GOMAXPROCS.
//
//   - Restricted to one shard, that order is (Start, ID) in the
//     shard's own creation order, so each shard's section is
//     byte-identical to the solo export of its spans alone.
//
//   - Cross-shard steals appear as a victim-side steal_out span and a
//     thief-side steal_in span sharing one Attrs.Link id (the control
//     plane's steal sequence number); the Chrome export joins them with
//     flow events so Perfetto draws the hand-off arrow between shard
//     track groups.

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
)

// byShard splits spans (in Spans order) into one group per shard
// present, in ascending shard order; each group keeps its shard's
// (Start, ID) order.
func byShard(spans []Span) [][]Span {
	sorted := slices.Clone(spans)
	slices.SortStableFunc(sorted, func(a, b Span) int { return cmp.Compare(a.Attrs.Shard, b.Attrs.Shard) })
	var groups [][]Span
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].Attrs.Shard == sorted[i].Attrs.Shard {
			j++
		}
		groups = append(groups, sorted[i:j])
		i = j
	}
	return groups
}

// WriteChromeTrace renders the span set as one Chrome trace_event
// document. Spans from one shard render the solo layout; spans from
// more render one process block — scheduler process plus that shard's
// node processes, contiguous pids, process_sort_index pinned — per
// shard, so Perfetto shows one track group per shard, and steal span
// pairs are joined with flow events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	shards := byShard(spans)
	if len(shards) <= 1 {
		return WriteChromeTrace(w, spans)
	}
	return json.NewEncoder(w).Encode(mergedChromeTrace(spans, shards))
}

// mergedChromeTrace lays the multi-shard document out: each shard owns
// a contiguous pid block [base, base+1+len(nodes)) — the scheduler
// process first, then that shard's nodes in ascending global id — and
// every process carries a process_sort_index so the shard grouping
// survives Perfetto's sorting. spans is the merged span set and shards
// its byShard groups.
func mergedChromeTrace(spans []Span, shards [][]Span) chromeDoc {
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	schedPid := make(map[int]int)
	nodePid := make(map[int]int)
	next := 0
	meta := func(pid int, name string) {
		doc.TraceEvents = append(doc.TraceEvents,
			chromeEvent{Name: "process_name", Cat: "__metadata", Ph: "M",
				Pid: pid, Args: map[string]any{"name": name}},
			chromeEvent{Name: "process_sort_index", Cat: "__metadata", Ph: "M",
				Pid: pid, Args: map[string]any{"sort_index": pid}})
	}
	for _, group := range shards {
		si := group[0].Attrs.Shard
		schedPid[si] = next
		meta(next, "shard "+strconv.Itoa(si)+" scheduler")
		next++
		for _, n := range shardNodes(group) {
			nodePid[n] = next
			meta(next, fmt.Sprintf("node %d (shard %d)", n, si))
			next++
		}
	}
	for _, s := range spans {
		pid, tid := mergedTrack(s, schedPid, nodePid)
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

// mergedTrack maps a span onto its shard's pid block, mirroring the
// solo chromeTrack layout within the block.
func mergedTrack(s Span, schedPid, nodePid map[int]int) (pid, tid int) {
	switch s.Kind {
	case KindJob, KindWait, KindTune, KindStealOut, KindStealIn:
		return schedPid[s.Attrs.Shard], s.Attrs.Job
	case KindNode:
		return nodePid[s.Attrs.Node], 0
	default: // run / map / reduce live on their node, one track per job
		return nodePid[s.Attrs.Node], s.Attrs.Job + 1
	}
}

// shardNodes lists the distinct global node ids a shard's spans touch,
// ascending.
func shardNodes(spans []Span) []int {
	seen := make(map[int]bool)
	var out []int
	for _, s := range spans {
		if s.Attrs.Node >= 0 && !seen[s.Attrs.Node] {
			seen[s.Attrs.Node] = true
			out = append(out, s.Attrs.Node)
		}
	}
	sort.Ints(out)
	return out
}

// WriteTimeline renders the span set as text. Spans from one shard
// render the solo timeline; spans from more render one "== shard N =="
// section per shard — each byte-identical to the solo timeline of that
// shard's spans — followed by a "== merged ==" section in the canonical
// merged order with a leading shard column.
func (t *Tracer) WriteTimeline(w io.Writer) error {
	spans := t.Spans()
	shards := byShard(spans)
	if len(shards) <= 1 {
		return WriteTimeline(w, spans)
	}
	bw := bufio.NewWriter(w)
	for _, group := range shards {
		fmt.Fprintf(bw, "== shard %d ==\n", group[0].Attrs.Shard)
		if err := WriteTimeline(bw, group); err != nil {
			return err
		}
	}
	fmt.Fprintf(bw, "== merged ==\n")
	if err := WriteMergedTimeline(bw, spans, len(shards)); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteMergedTimeline renders merged spans (already in canonical merged
// order) as text with a shard column. Like WriteTimeline, every value
// derives from simulated quantities, so the output is byte-stable.
func WriteMergedTimeline(w io.Writer, spans []Span, shards int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# ecost merged trace timeline: %d spans across %d shards\n", len(spans), shards)
	fmt.Fprintf(bw, "#%5s %13s %13s %13s %-9s %-22s %4s %4s %14s  %s\n",
		"shard", "start_s", "end_s", "dur_s", "kind", "name", "job", "node", "energy_j", "attrs")
	for _, s := range spans {
		end := s.End
		open := ""
		if s.Open() {
			end = s.Start
			open = " (open)"
		}
		fmt.Fprintf(bw, " %5d %13.6f %13.6f %13.6f %-9s %-22s %4d %4d %14.6f  %s%s\n",
			s.Attrs.Shard, s.Start, end, s.Dur(), s.Kind, s.Name, s.Attrs.Job, s.Attrs.Node,
			s.EnergyJ, fmtAttrs(s.Attrs), open)
	}
	return bw.Flush()
}
