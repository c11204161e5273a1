package tracing

// Sharded tracing: each shard of the sharded control plane owns its own
// Tracer (written only by that shard's events between barriers, so
// span recording needs no cross-shard synchronization), and a ShardSet
// groups them for export. The merge is deterministic by construction:
//
//   - Span identity is (shard, ID) — the shard index stamped at
//     creation plus the per-tracer creation-order ID — so a span's
//     identity never depends on when its shard drained relative to the
//     others.
//
//   - Merge sorts by (Start, Shard, ID). Start comes from the simulated
//     clock and Shard/ID from single-threaded per-shard event loops, so
//     the merged order — and every byte the exporters derive from it —
//     is identical at any GOMAXPROCS and invariant to drain order.
//
//   - Cross-shard steals appear as a victim-side steal_out span and a
//     thief-side steal_in span sharing one Attrs.Link id (the control
//     plane's steal sequence number); the Chrome export joins them with
//     flow events so Perfetto draws the hand-off arrow between shard
//     track groups.
//
// With a single shard every ShardSet export delegates to the shard's
// own exporter, byte-identical to a lone tracer's.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
)

// ShardSet is an ordered set of per-shard tracers. Construct with
// NewShardSet and let core.ShardedScheduler.SetTracer populate it (or
// Attach tracers yourself in shard order). A nil *ShardSet is the
// disabled mode: Tracer returns nil, so the whole per-span path
// collapses to the usual nil-tracer branch (BenchmarkDisabledShardSpan).
type ShardSet struct {
	mu  sync.Mutex
	trs []*Tracer
}

// NewShardSet returns an empty shard set.
func NewShardSet() *ShardSet { return &ShardSet{} }

// Attach appends tr as the next shard's tracer and stamps the shard
// index on it. Nil-safe on both sides; attach in shard order, before
// the tracer records any spans.
func (ts *ShardSet) Attach(tr *Tracer) {
	if ts == nil {
		return
	}
	ts.mu.Lock()
	tr.SetShard(len(ts.trs))
	ts.trs = append(ts.trs, tr)
	ts.mu.Unlock()
}

// Shards reports how many tracers are attached. Nil-safe.
func (ts *ShardSet) Shards() int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.trs)
}

// Tracer returns shard i's tracer, or nil when the set is nil or i is
// out of range — so a disabled set hands out disabled tracers and the
// per-span cost stays one branch per call. The nil check lives here
// and the locked lookup in tracerAt so the disabled path inlines.
func (ts *ShardSet) Tracer(i int) *Tracer {
	if ts == nil {
		return nil
	}
	return ts.tracerAt(i)
}

func (ts *ShardSet) tracerAt(i int) *Tracer {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if i < 0 || i >= len(ts.trs) {
		return nil
	}
	return ts.trs[i]
}

// tracers snapshots the tracer slice under the lock.
func (ts *ShardSet) tracers() []*Tracer {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return append([]*Tracer(nil), ts.trs...)
}

// Merge flattens per-shard span sets into the canonical merged order:
// (Start, Shard, ID). Each input slice must come from one shard's
// Tracer.Spans (already Shard-stamped); the result is a pure function
// of the span sets, independent of slice order or GOMAXPROCS.
func Merge(shards ...[]Span) []Span {
	n := 0
	for _, s := range shards {
		n += len(s)
	}
	out := make([]Span, 0, n)
	for _, s := range shards {
		out = append(out, s...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// shardSpans snapshots every shard's canonical span set, in shard
// order.
func (ts *ShardSet) shardSpans() [][]Span {
	trs := ts.tracers()
	out := make([][]Span, len(trs))
	for i, tr := range trs {
		out[i] = tr.Spans()
	}
	return out
}

// Merge returns the set's spans in the canonical merged order.
// Nil-safe.
func (ts *ShardSet) Merge() []Span { return Merge(ts.shardSpans()...) }

// Report builds the per-job / per-class EDP attribution over the merged
// span set — job and node ids are global, so the single-tracer rollup
// applies unchanged.
func (ts *ShardSet) Report() Report { return BuildReport(ts.Merge()) }

// WriteChromeTrace renders the set as one Chrome trace_event document.
// With one shard it delegates to that shard's exporter (byte-identical
// to a lone tracer's trace); with more it emits one process block
// — scheduler process plus that shard's node processes, contiguous
// pids, process_sort_index pinned — per shard, so Perfetto shows one
// track group per shard, and joins steal span pairs with flow events.
func (ts *ShardSet) WriteChromeTrace(w io.Writer) error {
	shards := ts.shardSpans()
	if len(shards) == 1 {
		return WriteChromeTrace(w, shards[0])
	}
	return json.NewEncoder(w).Encode(mergedChromeTrace(shards))
}

// mergedChromeTrace lays the multi-shard document out: shard s owns a
// contiguous pid block [base, base+1+len(nodes)) — the scheduler
// process first, then that shard's nodes in ascending global id — and
// every process carries a process_sort_index so the shard grouping
// survives Perfetto's sorting.
func mergedChromeTrace(shards [][]Span) chromeDoc {
	doc := chromeDoc{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	schedPid := make([]int, len(shards))
	nodePid := make(map[int]int)
	next := 0
	meta := func(pid int, name string) {
		doc.TraceEvents = append(doc.TraceEvents,
			chromeEvent{Name: "process_name", Cat: "__metadata", Ph: "M",
				Pid: pid, Args: map[string]any{"name": name}},
			chromeEvent{Name: "process_sort_index", Cat: "__metadata", Ph: "M",
				Pid: pid, Args: map[string]any{"sort_index": pid}})
	}
	for si, spans := range shards {
		schedPid[si] = next
		meta(next, "shard "+strconv.Itoa(si)+" scheduler")
		next++
		for _, n := range shardNodes(spans) {
			nodePid[n] = next
			meta(next, fmt.Sprintf("node %d (shard %d)", n, si))
			next++
		}
	}
	for _, s := range Merge(shards...) {
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
func mergedTrack(s Span, schedPid []int, nodePid map[int]int) (pid, tid int) {
	switch s.Kind {
	case KindJob, KindWait, KindTune, KindStealOut, KindStealIn:
		return schedPid[s.Shard], s.Attrs.Job
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

// WriteTimeline renders the set as text. With one shard it delegates
// (byte-identical to a lone tracer's timeline); with more it writes one
// "== shard N ==" section per shard — each byte-identical to that
// shard's solo export — followed by a "== merged ==" section in the
// canonical merged order with a leading shard column.
func (ts *ShardSet) WriteTimeline(w io.Writer) error {
	shards := ts.shardSpans()
	if len(shards) == 1 {
		return WriteTimeline(w, shards[0])
	}
	bw := bufio.NewWriter(w)
	for i, spans := range shards {
		fmt.Fprintf(bw, "== shard %d ==\n", i)
		if err := WriteTimeline(bw, spans); err != nil {
			return err
		}
	}
	fmt.Fprintf(bw, "== merged ==\n")
	if err := WriteMergedTimeline(bw, Merge(shards...), len(shards)); err != nil {
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
			s.Shard, s.Start, end, s.Dur(), s.Kind, s.Name, s.Attrs.Job, s.Attrs.Node,
			s.EnergyJ, fmtAttrs(s.Attrs), open)
	}
	return bw.Flush()
}
