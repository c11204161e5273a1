package core

// The sharded control plane: the cluster is partitioned across S
// per-shard schedulers — each owning its own node slice, wait-queue
// index, and tune-cache shard — with submissions routed by a
// deterministic app/tenant hash and a bounded work-stealing pass at
// event-loop barriers. Every export — metrics snapshots, timelines,
// decision logs, completions, energy — is a pure function of the
// submitted stream, and steals fire at deterministic sim times.
//
// One clock drives every shard (DESIGN.md §22, §24): the control plane
// owns the only completion heap and the only pending-arrival ring, and
// each shard schedules its nodes' completions on that heap. Between
// steal passes the shards share no mutable state but the one
// completion log, whose order Completed fixes by sorting, so
// interleaving their events in one (time, seq) order is invisible in
// every export.
//
// The steal pass is the only cross-shard interaction, and it runs only
// at barrier times (DESIGN.md §17): a wait queue can only grow at an
// arrival, and every arrival is submitted before Run, so a steal can
// fire at t only if some queue is non-empty before t's events or an
// arrival is due at t. Every other event time runs without one. An
// attached flight recorder closes one epoch at every event time, after
// the steal pass where there is one, and never adds a barrier.

import (
	"fmt"
	"slices"

	"ecost/internal/audit"
	"ecost/internal/flight"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/power"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// ShardedConfig parameterizes the sharded control plane.
type ShardedConfig struct {
	// Shards is the number of per-shard schedulers (1..nodes).
	Shards int
	// Steal enables the barrier work-stealing pass: a shard with an
	// empty queue and free capacity claims queued jobs from neighbors.
	Steal bool
	// ProfileMemo replaces the router's serial noisy profiling with
	// noise-free ObserveExact profiles memoized by (app, size). Recurring
	// tenants then profile once ever — the "recurring jobs have
	// recurring profiles" shortcut — at the cost of exact equivalence
	// with the legacy sampler-noise stream. Benchmarks and large
	// scenario sweeps want this; equivalence goldens must not.
	ProfileMemo bool
}

// stealBatch caps how many jobs one shard claims per barrier. The cap
// bounds how far a single barrier can rebalance, keeping steal-induced
// divergence local.
const stealBatch = 8

// ShardedScheduler is the online form of ECoST (Figure 4): S per-shard
// schedulers over disjoint node slices, driven by one clock. It
// is the only online scheduler — Shards: 1 runs the whole cluster as
// one shard. Build with NewShardedScheduler, attach observability
// (SetMetrics, SetAudit, SetTracer and SetFlight each take one sink for
// every shard), Submit the stream in nondecreasing arrival order, then
// Run.
type ShardedScheduler struct {
	cfg    ShardedConfig
	shards []*shard
	prof   *Profiler

	// ev is the clock and completion heap every shard schedules on.
	// arrQ is the pending-arrival ring Submit fills: its head is the
	// one arrival event, which delivers every arrival sharing its
	// timestamp to its home shard, in submission order (DESIGN.md §24).
	// arrHead indexes the first undelivered entry.
	ev      eventQueue
	arrQ    []pendingArrival
	arrHead int

	// recs holds the first record of each (app, size): under
	// ProfileMemo the one record every job of the pair gets, otherwise
	// the record whose spec id and home later submissions of the pair
	// share. chunk is the store records are carved from; a record keeps
	// its address for the run. specs counts the spec ids handed out, so
	// ids are dense, start at 1 and are never reused.
	recs  map[profileKey]*profileRec
	chunk []profileRec
	specs int

	nextID int
	lastAt float64
	steals int

	// queued is the steal pass's set of shards with queued work,
	// reused across passes.
	queued nodeSet

	// completed is the one completion log: every shard appends to it at
	// its completion events, which the one engine fires in time order.
	// Run reserves it for every submitted job, so it never regrows.
	completed []CompletedJob

	// err is the first bad submission (a profile error or an
	// out-of-order arrival time). Submit ignores everything after it and
	// Run returns it without driving anything.
	err error

	// stats counts barrier and window event times.
	stats BarrierStats

	// flight is the flight recorder (nil = off; see SetFlight).
	// flightT0 is the previous epoch's end (each epoch record spans
	// [flightT0, t]); statBuf is the reusable per-epoch sample buffer.
	flight   *flight.Recorder
	flightT0 float64
	statBuf  []flight.ShardStat
}

// BarrierStats counts how the run's event work was driven. Barriers is
// the number of barrier iterations: event times followed by a steal
// pass (DESIGN.md §22 defines which times those are). Windows is the
// number of maximal runs of the other event times, and WindowEvents how
// many events fired in them — each would have cost one barrier under
// the full cadence of a steal pass at every event time, so it measures
// the barriers elided. An attached flight recorder changes none of
// them.
type BarrierStats struct {
	Barriers     int64
	Windows      int64
	WindowEvents int64
}

// ElidedRatio is the fraction of event work that ran barrier-free:
// WindowEvents / (WindowEvents + Barriers). Zero on an empty run.
func (b BarrierStats) ElidedRatio() float64 {
	tot := b.Barriers + b.WindowEvents
	if tot == 0 {
		return 0
	}
	return float64(b.WindowEvents) / float64(tot)
}

type profileKey struct {
	app    string
	sizeGB float64
}

// routeShard maps an application/tenant name to its home shard: FNV-1a
// over the name, mod S. The hash is stable across processes and
// platforms, so a recurring tenant always lands on the same shard —
// which is what lets the per-shard tune caches and wait-queue indexes
// stay hot for its recurring profile. Inlined rather than hash/fnv so
// the per-submission route costs no hasher or byte-slice allocation
// (TestRouteShardMatchesFNV pins it to the library hash).
func routeShard(name string, shards int) int {
	h := uint32(2166136261) // FNV-1a 32-bit offset basis
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619 // FNV 32-bit prime
	}
	return int(h % uint32(shards))
}

// NewShardedScheduler partitions `nodes` across cfg.Shards schedulers
// (near-even split: the first nodes%S shards own one extra node) over a
// shared model, database, and profiler. newTuner builds one tuner per
// shard so each shard owns its own memo shard (pass a closure returning
// a fresh MemoSTP); it must return non-nil. The model and database are
// shared by every shard: the model is only read, and the database's
// lazy caches are built once.
func NewShardedScheduler(model *mapreduce.Model, db *Database, prof *Profiler, newTuner func() STP, nodes int, cfg ShardedConfig) (*ShardedScheduler, error) {
	if model == nil || db == nil || prof == nil {
		return nil, fmt.Errorf("core: sharded scheduler: nil dependency")
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("core: sharded scheduler: need at least one shard")
	}
	if cfg.Shards > nodes {
		return nil, fmt.Errorf("core: sharded scheduler: %d shards exceed %d nodes", cfg.Shards, nodes)
	}
	if newTuner == nil {
		return nil, fmt.Errorf("core: sharded scheduler: nil tuner factory")
	}
	c := &ShardedScheduler{cfg: cfg, prof: prof, queued: newNodeSet(cfg.Shards),
		recs: make(map[profileKey]*profileRec)}
	base := 0
	for i := 0; i < cfg.Shards; i++ {
		n := nodes / cfg.Shards
		if i < nodes%cfg.Shards {
			n++
		}
		tuner := newTuner()
		if tuner == nil {
			return nil, fmt.Errorf("core: sharded scheduler: tuner factory returned nil for shard %d", i)
		}
		sh := newShard(&c.ev, model, db, tuner, n, base)
		sh.idx = i
		sh.completions = &c.completed
		c.shards = append(c.shards, sh)
		base += n
	}
	return c, nil
}

// Shards reports the shard count.
func (c *ShardedScheduler) Shards() int { return len(c.shards) }

// Steals reports how many jobs migrated between shards.
func (c *ShardedScheduler) Steals() int { return c.steals }

// ShardNodes returns each shard's node count in shard order.
func (c *ShardedScheduler) ShardNodes() []int {
	out := make([]int, len(c.shards))
	for i, sh := range c.shards {
		out[i] = len(sh.nodes)
	}
	return out
}

// SetFlight attaches one flight recorder to the whole control plane;
// nil detaches it. Call before the first Submit, with a fresh recorder
// (flight.New()): SetFlight sizes it to the plane's shards and their
// node counts. Every event time then closes one epoch of one wide
// record per shard, each shard's forecast joins and drift alerts reach
// the recorder tagged with its index, and the steal pass reports
// per-edge flow. The recorder's triggers read shard queues to name the
// implicated applications (DESIGN.md §31).
func (c *ShardedScheduler) SetFlight(r *flight.Recorder) {
	c.flight = r
	for _, sh := range c.shards {
		sh.setFlight(r)
	}
	r.Attach(c.ShardNodes(), func(i, max int) []string {
		return c.shards[i].topTenants(max)
	})
}

// SetMetrics attaches one registry to the whole control plane; nil
// detaches it. Call before the first Submit. Each shard records its
// scheduler, wait-queue and tuner instruments and its event log through
// reg.Shard(i), so every instrument and event carries its shard, and
// reg.Snapshot(…).Shard(i) is shard i's part (DESIGN.md §30).
func (c *ShardedScheduler) SetMetrics(reg *metrics.Registry) {
	for _, sh := range c.shards {
		sh.setMetrics(reg.Shard(sh.idx))
	}
}

// SetAudit attaches one decision-audit log to the whole control plane;
// nil detaches it. Call before the first Submit. Each shard records
// through l.Shard(i), keeping its own records and drift detector, and
// l.Shard(i) reads them back. With a registry attached as well, joins
// and drift alarms are mirrored into it.
func (c *ShardedScheduler) SetAudit(l *audit.Log) {
	for _, sh := range c.shards {
		sh.setAudit(l.Shard(sh.idx))
	}
}

// SetTracer attaches one span tracer to the whole control plane; nil
// detaches it. Call before the first Submit, with a fresh tracer
// (tracing.New()): every shard records into it at the control
// plane's simulated times and stamps its index in each span's
// Attrs.Shard, so its exports lay the spans out per shard (DESIGN.md
// §28).
func (c *ShardedScheduler) SetTracer(tr *tracing.Tracer) {
	for _, sh := range c.shards {
		sh.setTracer(tr)
	}
}

// recordEpoch samples every shard once t's events and steal pass have
// settled and closes the epoch [flightT0, t] in the recorder.
func (c *ShardedScheduler) recordEpoch(t float64) {
	stats := c.statBuf[:0]
	for _, sh := range c.shards {
		st := flight.ShardStat{
			Queue:   sh.queue.Len(),
			Free:    sh.freeSlots(),
			Active:  sh.pending - sh.queue.Len(),
			EnergyJ: sh.energyJ,
		}
		if m, ok := sh.Tuner.(*MemoSTP); ok { // the deterministic tune-cache hit/miss source
			st.TuneHits, st.TuneMisses = m.HitMiss()
		}
		stats = append(stats, st)
	}
	c.statBuf = stats
	c.flight.RecordEpoch(c.flightT0, t, stats)
	c.flightT0 = t
}

// Submit queues a job arrival for its home shard. Arrivals must be
// submitted in nondecreasing time order: the router profiles serially
// at submission, in submission order, so the sampler's draw sequence is
// the stream's arrival order (every stream source — scenario
// generators, trace replay, workload cycling — emits sorted arrivals).
// An out-of-order arrival or a job the profiler rejects is kept as the
// run's error: later submissions are ignored and Run returns it.
func (c *ShardedScheduler) Submit(app workloads.App, sizeGB, at float64) {
	if c.err != nil {
		return
	}
	if at < c.lastAt {
		c.err = fmt.Errorf("core: sharded scheduler: out-of-order submission at %g after %g", at, c.lastAt)
		return
	}
	c.lastAt = at
	rec, err := c.profile(app, sizeGB)
	if err != nil {
		c.err = fmt.Errorf("core: sharded profile: %w", err)
		return
	}
	c.shards[rec.home].pending++
	if len(c.arrQ) == cap(c.arrQ) {
		// Double a full ring: append's 1.25× step for large slices
		// allocates about five times the final ring.
		c.arrQ = slices.Grow(c.arrQ, len(c.arrQ)+1)
	}
	c.arrQ = append(c.arrQ, pendingArrival{id: c.nextID, at: at, rec: rec})
	c.nextID++
}

// fireArrivals is the ring's head event: it delivers every arrival due
// at the current clock to its home shard in submission order — each
// shard's arrive runs classify, queue and dispatch exactly as a per-job
// event would.
func (c *ShardedScheduler) fireArrivals() {
	now := c.ev.now
	for c.arrHead < len(c.arrQ) && c.arrQ[c.arrHead].at <= now {
		p := c.arrQ[c.arrHead]
		c.arrQ[c.arrHead] = pendingArrival{}
		c.arrHead++
		c.shards[p.rec.home].arrive(p.id, p.rec, p.at)
	}
	if c.arrHead == len(c.arrQ) {
		c.arrQ = c.arrQ[:0]
		c.arrHead = 0
	}
}

// profile returns the record for one submission: under ProfileMemo
// the (app, size) record, profiled exactly on first sight; otherwise a
// new record of this job's noisy profile, with the spec id and home of
// its (app, size). A record's id names the record, not its contents
// (DESIGN.md §26, §33).
func (c *ShardedScheduler) profile(app workloads.App, sizeGB float64) (*profileRec, error) {
	k := profileKey{app.Name, sizeGB}
	first := c.recs[k]
	if first != nil && c.cfg.ProfileMemo {
		return first, nil
	}
	observe := c.prof.Observe
	if c.cfg.ProfileMemo {
		observe = c.prof.ObserveExact
	}
	obs, err := observe(app, sizeGB)
	if err != nil {
		return nil, err
	}
	if len(c.chunk) == cap(c.chunk) {
		c.chunk = make([]profileRec, 0, recChunk)
	}
	c.chunk = append(c.chunk, profileRec{obs: obs, single: !c.cfg.ProfileMemo})
	rec := &c.chunk[len(c.chunk)-1]
	rec.obs.stamp()
	if first != nil {
		rec.spec, rec.home = first.spec, first.home
	} else {
		c.specs++
		rec.spec, rec.home = c.specs, routeShard(app.Name, len(c.shards))
		c.recs[k] = rec
	}
	return rec, nil
}

// recChunk is how many records one store chunk holds: one allocation
// per recChunk records, instead of one per record or a store that
// regrows.
const recChunk = 256

// BarrierStats reports how the last Run drove the shards: barriers
// executed vs events fired between them.
func (c *ShardedScheduler) BarrierStats() BarrierStats { return c.stats }

// Run drives all shards to completion and returns the global makespan
// and summed energy, or the first bad submission's error without
// driving anything. A panic in a shard event surfaces as the error, at
// the first panicking event in (time, seq) order. After the last event
// the clock reads the global makespan, and every shard is closed
// out there, so every shard bills its trailing idle energy up to the
// same end time.
func (c *ShardedScheduler) Run() (makespan, energyJ float64, err error) {
	if c.err != nil {
		return 0, 0, c.err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: sharded scheduler: %v", r)
		}
	}()
	c.completed = append(make([]CompletedJob, 0, c.nextID), c.completed...)
	c.drive()
	pending := 0
	for _, sh := range c.shards {
		pending += sh.pending
	}
	if pending > 0 {
		return 0, 0, fmt.Errorf("core: sharded scheduler: %d jobs never completed", pending)
	}
	end := c.ev.now
	for _, sh := range c.shards {
		sh.finishRun()
	}
	if c.flight != nil {
		// One closing epoch so trailing idle energy and the drained
		// final state land in the ring.
		c.recordEpoch(end)
	}
	return end, c.EnergyJ(), nil
}

// drive is the event loop (DESIGN.md §22, §24, §31). At the next
// event time t it fires every event at t, including those t's events
// schedule at t; the steal pass follows at a barrier time, then the
// flight epoch (recorder attached) at every event time.
func (c *ShardedScheduler) drive() {
	inWindow := false
	for {
		t, ok := c.nextAt()
		if !ok {
			return
		}
		barrier := c.barrierAt(t)
		var fired int64
		for c.step(t) {
			fired++
		}
		if barrier {
			inWindow = false
			c.stats.Barriers++
			c.stealPass(t)
		} else {
			if !inWindow {
				c.stats.Windows++
				inWindow = true
			}
			c.stats.WindowEvents += fired
		}
		if c.flight != nil {
			c.recordEpoch(t)
		}
	}
}

// barrierAt reports whether event time t needs a barrier (a steal
// pass), read before t's events fire:
//
//   - never with stealing off: shards share no mutable state at all;
//   - otherwise exactly when the steal pass could move a job at t:
//     some wait queue is non-empty, or an arrival is due at t. A wait
//     queue grows only at an arrival (WaitQueue.Push is reached from
//     arrive and acceptStolen alone), so with every queue empty and no
//     arrival at t the pass would early-out.
//
// Every arrival before t has fired (the ring's head is the first
// undelivered arrival, and t is the earliest event time), so the ring
// head is due at t exactly when its time is t.
func (c *ShardedScheduler) barrierAt(t float64) bool {
	if !c.cfg.Steal {
		return false
	}
	return (c.arrHead < len(c.arrQ) && c.arrQ[c.arrHead].at <= t) || c.anyQueued()
}

// ringAt is the ring head's event time: its arrival time, never before
// the clock.
func (c *ShardedScheduler) ringAt() (float64, bool) {
	if c.arrHead == len(c.arrQ) {
		return 0, false
	}
	return max(c.arrQ[c.arrHead].at, c.ev.now), true
}

// nextAt is the earliest pending event time, the ring head's or the
// earliest completion's.
func (c *ShardedScheduler) nextAt() (float64, bool) {
	at, ok := c.ringAt()
	if h := c.ev.heap; len(h) > 0 && (!ok || h[0].at < at) {
		return h[0].at, true
	}
	return at, ok
}

// step fires the one earliest event if it is due at or before t, and
// reports whether it fired one. The ring head fires ahead of a
// completion at the same time, as per-job arrival events scheduled
// before the run always did. A firing node's heap entry stays in place
// until its nodeComplete reschedules it.
func (c *ShardedScheduler) step(t float64) bool {
	h := c.ev.heap
	if at, ok := c.ringAt(); ok && at <= t && (len(h) == 0 || at <= h[0].at) {
		c.ev.now = at
		c.fireArrivals()
		return true
	}
	if len(h) == 0 || h[0].at > t {
		return false
	}
	n := h[0].n
	c.ev.now = h[0].at
	n.sh.nodeComplete(n)
	return true
}

// anyQueued reports whether any shard has queued work — the
// steal-eligibility read, O(1) per shard off the wait-queue counters.
func (c *ShardedScheduler) anyQueued() bool {
	for _, sh := range c.shards {
		if sh.queue.Len() > 0 {
			return true
		}
	}
	return false
}

// stealPass runs at the barrier, after every event at t fired: shards
// are scanned in index order; a shard with an empty queue and free
// capacity claims queue heads from its neighbors (nearest first,
// wrapping upward) up to min(stealBatch, freeSlots) jobs, then
// dispatches them at the barrier time. Everything here is a function
// of shard state and t alone, so a steal that fires at t fires at t in
// every run of the same stream.
//
// The pass reads each queue's length once, into the set of shards with
// queued work, and a thief visits only the set's members, in the same
// nearest-first order. The set tracks the queues exactly: only a
// victim's queue shrinks (a drained victim leaves it) and only a
// thief's grows (it joins if its dispatch leaves jobs queued), so the
// pass takes the same steals as a scan of every queue (DESIGN.md §25).
// It returns once the set is empty.
func (c *ShardedScheduler) stealPass(t float64) {
	q := c.queued
	clear(q.words)
	left := 0
	for i, sh := range c.shards {
		if sh.queue.Len() > 0 {
			q.set(i, true)
			left++
		}
	}
	s := len(c.shards)
	for i, thief := range c.shards {
		if left == 0 {
			return // nothing left to steal anywhere
		}
		if q.has(i) {
			continue
		}
		budget := min(thief.freeSlots(), stealBatch)
		if budget <= 0 {
			continue
		}
		claimed := 0
		// Victims i+1..s-1, then 0..i-1: the (i+k) % s order, k = 1..s-1.
		for _, span := range [2][2]int{{i + 1, s}, {0, i}} {
			for vi := q.next(span[0], span[1]); vi >= 0 && budget > 0; vi = q.next(vi+1, span[1]) {
				victim := c.shards[vi]
				for budget > 0 && victim.queue.Len() > 0 {
					// The link id is the global steal sequence number — a
					// function of shard state and t alone, so the victim's
					// steal_out span and the thief's steal_in span carry
					// the same id in every run of the same stream.
					link := c.steals + 1
					j := victim.releaseHead(t, i, link)
					thief.acceptStolen(j, vi, t, link)
					// The job retires into the thief's pool; hand the victim a
					// pooled record back, so one-way steals do not leave the
					// victim allocating while the thief's pool grows.
					if k := len(thief.jobPool); k > 0 {
						victim.jobPool = append(victim.jobPool, thief.jobPool[k-1])
						thief.jobPool[k-1] = nil
						thief.jobPool = thief.jobPool[:k-1]
					}
					c.flight.Steal(vi, i)
					c.steals++
					claimed++
					budget--
				}
				if victim.queue.Len() == 0 {
					q.set(vi, false)
					left--
				}
			}
		}
		if claimed > 0 {
			thief.dispatch()
			if thief.queue.Len() > 0 {
				q.set(i, true)
				left++
			}
		}
	}
}

// Completed returns every finished job ordered by (finish time, job
// id), as a copy the caller owns (never nil).
//
// The log is appended in event order, so it is already in
// nondecreasing finish order, save for same-instant completions that
// landed out of id order. It is sorted in place — linear on an
// already-sorted log.
func (c *ShardedScheduler) Completed() []CompletedJob {
	slices.SortFunc(c.completed, func(a, b CompletedJob) int { return cmpCompleted(&a, &b) })
	return append(make([]CompletedJob, 0, len(c.completed)), c.completed...)
}

// cmpCompleted orders completions by (Finished, ID), a total order: a
// job completes once.
func cmpCompleted(a, b *CompletedJob) int {
	switch {
	case a.Finished < b.Finished:
		return -1
	case a.Finished > b.Finished:
		return 1
	}
	return a.ID - b.ID
}

// EnergyJ sums shard energy in shard order.
func (c *ShardedScheduler) EnergyJ() float64 {
	var e float64
	for _, sh := range c.shards {
		e += sh.energyJ
	}
	return e
}

// Phases sums the per-shard phase splits in shard order.
func (c *ShardedScheduler) Phases() power.PhaseAccumulator {
	var p power.PhaseAccumulator
	for _, sh := range c.shards {
		sp := sh.phases
		p.IdleJ += sp.IdleJ
		p.SoloJ += sp.SoloJ
		p.CoJ += sp.CoJ
	}
	return p
}

// QueueLen sums the shard wait-queue lengths.
func (c *ShardedScheduler) QueueLen() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.queue.Len()
	}
	return n
}

// SetFastAccrual toggles the O(1) aggregate accrual path on every
// shard: integrating running per-phase power sums instead of walking
// every node. The sums reassociate the float adds, so energy may differ
// from the per-node walk in the last bits (1e-9 relative); placements
// and makespan stay bit-identical. Tracing and audit attribute energy
// with their own node walk, so attaching them changes neither the path
// nor its sums. Call before the first Submit.
func (c *ShardedScheduler) SetFastAccrual(v bool) {
	for _, sh := range c.shards {
		sh.setFastAccrual(v)
	}
}
