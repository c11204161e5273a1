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
	"fmt"
	"io"
	"slices"
	"strconv"
)

// byShard splits spans (in Spans order) into one group per shard
// present, in ascending shard order; each group keeps its shard's
// (Start, ID) order. Spans from one shard (or none) come back as the
// one group they are, uncopied.
func byShard(spans []Span) [][]Span {
	if !slices.ContainsFunc(spans, func(s Span) bool { return s.Attrs.Shard != spans[0].Attrs.Shard }) {
		return [][]Span{spans}
	}
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
// more render one process block per shard (shardLayout), and steal
// span pairs are joined with flow events.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	spans := t.Spans()
	shards := byShard(spans)
	if len(shards) <= 1 {
		return WriteChromeTrace(w, spans)
	}
	return writeChrome(w, spans, shardLayout(shards))
}

// shardLayout gives each shard a contiguous pid block — its scheduler
// process, then the nodes its spans touch in ascending global id — and
// every process a process_sort_index, so Perfetto shows one track
// group per shard.
func shardLayout(shards [][]Span) chromeLayout {
	l := chromeLayout{sortIndex: true, schedPid: make(map[int]int), nodePid: make(map[int]int)}
	for _, group := range shards {
		si := group[0].Attrs.Shard
		l.schedPid[si] = len(l.procs)
		l.procs = append(l.procs, "shard "+strconv.Itoa(si)+" scheduler")
		var nodes []int
		for i := range group {
			if n := group[i].Attrs.Node; n >= 0 {
				nodes = append(nodes, n)
			}
		}
		slices.Sort(nodes)
		for _, n := range slices.Compact(nodes) {
			l.nodePid[n] = len(l.procs)
			l.procs = append(l.procs, fmt.Sprintf("node %d (shard %d)", n, si))
		}
	}
	return l
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
	if err := writeTimeline(bw, spans, len(shards)); err != nil {
		return err
	}
	return bw.Flush()
}
