package sim

import "container/heap"

// Event is a callback scheduled at a point in simulated time.
type Event struct {
	// At is the absolute simulated time (seconds) the event fires.
	At float64
	// Fire runs when the clock reaches At. It may schedule further events.
	Fire func()

	seq   int64 // tiebreaker: FIFO among equal timestamps
	index int   // heap bookkeeping
}

// eventHeap is a min-heap ordered by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a minimal deterministic discrete-event simulation kernel.
// Events with equal timestamps fire in scheduling order.
type Engine struct {
	now     float64
	seq     int64
	headSeq int64 // negative tiebreakers handed out by AtHead
	events  eventHeap
	fired   int64

	// free is the event free-list: fired and cancelled Events are
	// reused by later At/After/AtHead calls instead of allocated fresh.
	// Recycling changes nothing observable about event ordering, but it
	// does alias Event pointers across logical events — callers must
	// drop every *Event they hold once it has fired or been cancelled
	// (the scheduler's per-node completion event, the only retained
	// handle in this codebase, does exactly that).
	free []*Event
}

// NewEngine returns a kernel with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Clock returns a closure reading the engine's simulated time — the
// clock signature observability consumers (the span tracer, series
// samplers) take without holding the engine itself.
func (e *Engine) Clock() func() float64 {
	return func() float64 { return e.now }
}

// Fired reports how many events have run so far.
func (e *Engine) Fired() int64 { return e.fired }

// alloc returns a zeroed-for-reuse Event, from the free-list when one
// is available.
func (e *Engine) alloc(t float64, fn func(), seq int64) *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.At, ev.Fire, ev.seq = t, fn, seq
		return ev
	}
	return &Event{At: t, Fire: fn, seq: seq}
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) is clamped to Now: the event fires next, preserving causality.
func (e *Engine) At(t float64, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := e.alloc(t, fn, e.seq)
	e.seq++
	heap.Push(&e.events, ev)
	return ev
}

// AtHead schedules fn at absolute time t ahead of every event scheduled
// with At/After at the same timestamp, regardless of scheduling order.
// The scheduler's arrival ring uses it to keep batched arrivals firing
// before same-instant completions, exactly as per-job arrival events
// scheduled before the run would have (their submission-time seq always
// undercuts runtime-scheduled events). Among AtHead events at one
// timestamp the later-scheduled fires first, so callers keep at most
// one in flight per engine (the ring schedules its next head event only
// after the previous one fired).
func (e *Engine) AtHead(t float64, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	e.headSeq--
	ev := e.alloc(t, fn, e.headSeq)
	heap.Push(&e.events, ev)
	return ev
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op and reports false.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.index < 0 || ev.index >= len(e.events) || e.events[ev.index] != ev {
		return false
	}
	heap.Remove(&e.events, ev.index)
	ev.index = -1
	ev.Fire = nil
	e.free = append(e.free, ev)
	return true
}

// NextAt peeks at the timestamp of the next scheduled event without
// firing it. It reports false when no events are pending. The sharded
// control plane's drive reads it to pick the next global event time.
func (e *Engine) NextAt() (float64, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].At, true
}

// RunThrough fires every event with a timestamp at or before t, in
// (At, seq) order, including events those callbacks schedule at or
// before t, and stops without advancing the clock past the last fired
// event: it never moves the clock to t when no event lands exactly
// there.
func (e *Engine) RunThrough(t float64) {
	for len(e.events) > 0 && e.events[0].At <= t {
		e.Step()
	}
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*Event)
	ev.index = -1
	e.now = ev.At
	e.fired++
	ev.Fire()
	// Retire after Fire so a callback cancelling or inspecting the
	// firing event never races its own reuse.
	ev.Fire = nil
	e.free = append(e.free, ev)
	return true
}
