// Package tracing is the span layer of the ECoST observability stack:
// where internal/metrics answers "how much" (counts, depths,
// percentiles), tracing answers "where did the time and energy go".
// Every job's lifecycle (submit → queue-wait → tune → map →
// shuffle/reduce → complete) and every node's occupancy phase (idle /
// solo / co-located) becomes a span over the simulated clock, carrying
// attributes (application, class, size, chosen configuration, partner)
// and an energy attribution in joules integrated from the power model.
//
// Two properties carry over from internal/metrics:
//
//  1. Determinism. Span timestamps come from the simulated clock and
//     span order from the single-threaded event loop, so the exported
//     timeline (export.go) is byte-identical across same-seed runs at
//     any GOMAXPROCS — golden tests enforce it. One tracer serves a
//     whole sharded control plane: each span carries the shard that
//     recorded it, and the exports lay a multi-shard span set out per
//     shard (sharded.go).
//
//  2. Nil-safety. A nil *Tracer hands out nil *Spans, and every span
//     operation on nil is a single-branch no-op (BenchmarkDisabledSpan
//     — sub-nanosecond), so uninstrumented runs pay nothing.
//
// The tracer itself is concurrency-safe (a mutex guards the span
// table) because the -serve endpoints read it live while the
// simulation runs.
package tracing

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// Kind labels what a span covers.
type Kind uint8

// The span vocabulary, following the paper's Figure-4 job flow plus
// the per-node occupancy view the energy split needs.
const (
	// KindJob is the whole job: submit to complete.
	KindJob Kind = iota
	// KindWait is the queueing delay: submit to placement.
	KindWait
	// KindTune is the STP tuning decision (instantaneous in sim-time).
	KindTune
	// KindRun is the residency on a node: placement to completion.
	KindRun
	// KindMap is the map phase of a run.
	KindMap
	// KindReduce is the shuffle/reduce phase of a run.
	KindReduce
	// KindNode is one node-occupancy phase: the interval over which a
	// node's resident set stays unchanged (named idle/solo/co-located).
	KindNode
	// KindStealOut marks the victim side of a cross-shard work steal:
	// the instant a queued job leaves this shard. Paired with the
	// thief's KindStealIn through Attrs.Link.
	KindStealOut
	// KindStealIn marks the thief side of a cross-shard work steal: the
	// instant the stolen job re-queues on this shard.
	KindStealIn
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindJob:
		return "job"
	case KindWait:
		return "wait"
	case KindTune:
		return "tune"
	case KindRun:
		return "run"
	case KindMap:
		return "map"
	case KindReduce:
		return "reduce"
	case KindNode:
		return "node"
	case KindStealOut:
		return "steal_out"
	case KindStealIn:
		return "steal_in"
	}
	return "unknown"
}

// Attrs are a span's attributes. Every field must derive from simulated
// state only, so the exported trace stays deterministic.
type Attrs struct {
	// Job is the subject job's ID (-1 when not job-scoped).
	Job int
	// Node is the node the span ran on (-1 when not node-scoped).
	Node int
	// App and Class identify the application (empty when not job-scoped).
	App   string
	Class string
	// SizeGB is the job's input size.
	SizeGB float64
	// Config is the rendered tuning configuration applied to the span.
	Config string
	// Partner names the co-located application, when there was one.
	Partner string
	// Detail is a short free-form annotation.
	Detail string
	// Link joins the two halves of a cross-shard steal: the victim's
	// steal_out span and the thief's steal_in span carry the same
	// positive link id (the control plane's deterministic steal
	// sequence number). 0 means unlinked.
	Link int
	// Shard is the index of the control-plane shard that recorded the
	// span (0 for an unsharded recorder). The exports group spans by
	// it; no export renders it as an attribute.
	Shard int
}

// Span is one traced interval. Fields are written by the tracer under
// its lock; readers must go through Tracer.Spans (which copies) or hold
// a finished span.
type Span struct {
	// ID is the creation-order identifier (deterministic under the
	// single-threaded event loop). Restricted to one shard, ID order is
	// that shard's own creation order.
	ID int
	// Parent is the enclosing span's ID, or -1 for a root span.
	Parent int
	// Kind and Name classify the span.
	Kind Kind
	Name string
	// Start and End are simulated seconds. End is NaN while the span is
	// open.
	Start float64
	End   float64
	// EnergyJ is the energy attributed to the span's interval, in
	// joules, integrated from the power model by the owner.
	EnergyJ float64
	// Attrs carries the span's attributes.
	Attrs Attrs

	tr *Tracer
}

// Open reports whether the span has not ended yet.
func (s Span) Open() bool { return math.IsNaN(s.End) }

// Dur returns the span duration in simulated seconds (0 while open).
func (s Span) Dur() float64 {
	if s.Open() {
		return 0
	}
	return s.End - s.Start
}

// Tracer records spans at simulated times its caller supplies.
// Construct with New; a nil *Tracer is the disabled mode.
type Tracer struct {
	mu    sync.Mutex
	spans []*Span
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record adds a span over [start, end]: retroactively, as the scheduler
// materializes map/reduce sub-phases once a job's actual interval is
// known, or open, with an end of NaN, until FinishAt closes it.
// Nil-safe: a nil tracer returns a nil span whose operations are
// no-ops. The nil branch is small enough to inline, so disabled tracing
// compiles down to a compare-and-return at call sites (see
// BenchmarkDisabledSpan).
func (t *Tracer) Record(kind Kind, name string, parent *Span, start, end float64, a Attrs) *Span {
	if t == nil {
		return nil
	}
	return t.record(kind, name, parent, start, end, a)
}

func (t *Tracer) record(kind Kind, name string, parent *Span, start, end float64, a Attrs) *Span {
	if end < start {
		end = start
	}
	pid := -1
	if parent != nil {
		pid = parent.ID
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{
		ID:     len(t.spans),
		Parent: pid,
		Kind:   kind,
		Name:   name,
		Start:  start,
		End:    end,
		Attrs:  a,
		tr:     t,
	}
	t.spans = append(t.spans, s)
	return s
}

// FinishAt closes an open span at simulated time at (clamped to its
// start). Finishing a finished span (or a nil span) is a no-op.
func (s *Span) FinishAt(at float64) {
	if s == nil {
		return
	}
	s.finishAt(at)
}

func (s *Span) finishAt(at float64) {
	s.tr.mu.Lock()
	if math.IsNaN(s.End) {
		if at < s.Start {
			at = s.Start
		}
		s.End = at
	}
	s.tr.mu.Unlock()
}

// AddEnergy accrues joules onto the span. Nil-safe.
func (s *Span) AddEnergy(j float64) {
	if s == nil {
		return
	}
	s.addEnergy(j)
}

func (s *Span) addEnergy(j float64) {
	s.tr.mu.Lock()
	s.EnergyJ += j
	s.tr.mu.Unlock()
}

// SetEnergy overwrites the span's energy attribution. Nil-safe.
func (s *Span) SetEnergy(j float64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.EnergyJ = j
	s.tr.mu.Unlock()
}

// SetConfig records the applied tuning configuration. Nil-safe.
func (s *Span) SetConfig(cfg string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Attrs.Config = cfg
	s.tr.mu.Unlock()
}

// SetPartner records the co-located application. Nil-safe.
func (s *Span) SetPartner(p string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Attrs.Partner = p
	s.tr.mu.Unlock()
}

// Snapshot returns a value copy of the span's current state (safe to
// read fields from). A nil span yields a zero value.
func (s *Span) Snapshot() Span {
	if s == nil {
		return Span{Parent: -1}
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	cp := *s
	cp.tr = nil
	return cp
}

// Len reports the number of recorded spans. Nil-safe.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Spans returns value copies of every span, sorted by (Start, Shard,
// ID) — the canonical deterministic order every exporter uses; with one
// shard it is (Start, ID). Open spans are included with End = NaN.
// Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	order := slices.Clone(t.spans)
	t.mu.Unlock()
	// Sort the pointers, not the spans, so each span is copied once,
	// into its place. The sort needs no lock: its key is fixed when the
	// span is recorded. The copy does, since the drive may still be
	// finishing spans and attributing energy to them.
	slices.SortStableFunc(order, spanOrder)
	out := make([]Span, len(order))
	t.mu.Lock()
	for i, s := range order {
		out[i] = *s
		out[i].tr = nil
	}
	t.mu.Unlock()
	return out
}

// spanOrder orders spans by (Start, Shard, ID). Starts compare by !=
// and < alone, not cmp.Compare, which would order a NaN first.
func spanOrder(a, b *Span) int {
	if a.Start != b.Start {
		if a.Start < b.Start {
			return -1
		}
		return 1
	}
	if c := cmp.Compare(a.Attrs.Shard, b.Attrs.Shard); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// TotalEnergyJ sums the energy attributed to spans of the given kind.
func TotalEnergyJ(spans []Span, kind Kind) float64 {
	var sum float64
	for _, s := range spans {
		if s.Kind == kind {
			sum += s.EnergyJ
		}
	}
	return sum
}
