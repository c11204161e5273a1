package metrics

// The typed scheduler event log: the run-time flow of the paper's
// Figure 4 (submit → classify → queue → pair → tune → complete) recorded
// as a deterministic, sim-time-ordered sequence. Events are append-only;
// Snapshot copies them in emission order.

// EventKind labels one scheduler decision.
type EventKind uint8

// The scheduler event vocabulary.
const (
	EvSubmit   EventKind = iota // job arrived and was queued
	EvLeap                      // a non-head job leapt forward past the reserved head
	EvReserve                   // the reserved head claimed a fresh node slot
	EvPair                      // a partner was co-located next to a resident
	EvTune                      // a (re-)tuning decision was applied
	EvComplete                  // a job finished
	EvDrift                     // the STP drift detector fired an alarm
	EvSteal                     // a starved shard claimed a queued job from a neighbor
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvLeap:
		return "leap"
	case EvReserve:
		return "reserve"
	case EvPair:
		return "pair"
	case EvTune:
		return "tune"
	case EvComplete:
		return "complete"
	case EvDrift:
		return "drift"
	case EvSteal:
		return "steal"
	}
	return "unknown"
}

// MarshalText makes the kind render as its name in JSON expositions.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one recorded scheduler decision.
type Event struct {
	// At is the simulated time of the decision in seconds.
	At   float64   `json:"at"`
	Kind EventKind `json:"kind"`
	// Job is the subject job's ID (-1 when not job-scoped).
	Job int `json:"job"`
	// Node is the target node (-1 when not node-scoped).
	Node int `json:"node"`
	// Detail is a short free-form annotation (classes, configs, …). It
	// must be derived from simulated state only, so the log stays
	// deterministic.
	Detail string `json:"detail,omitempty"`
	// Shard is the index of the shard that emitted the event (Emit sets
	// it). Like an instrument's, it is not rendered: the text and JSON
	// forms render one shard's snapshot.
	Shard int `json:"-"`
}

// Emit appends an event to the log, stamped with the handle's shard.
// No-op on a nil registry.
func (r *Registry) Emit(e Event) {
	if r == nil {
		return
	}
	e.Shard = r.shard
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

// Events returns a copy of every shard's events in emission order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// EventCount reports the number of events every shard recorded.
func (r *Registry) EventCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}
