package core

// The sharded control plane: the cluster is partitioned across S
// per-shard schedulers — each owning its own node slice, engine,
// wait-queue index, and tune-cache shard — with submissions routed by a
// deterministic app/tenant hash and a bounded work-stealing pass at
// event-loop barriers. Every export — metrics snapshots, timelines,
// decision logs, completions, energy — is a pure function of the
// submitted stream, and steals fire at deterministic sim times.
//
// Run drains every shard on the calling goroutine, in shard order
// (DESIGN.md §21): the shards share no mutable state between barriers,
// so the order is invisible in every export, and per-shard worker
// goroutines measured slower on two cores than this drive on one.
//
// Barriers are elided wherever cross-shard interaction is provably
// impossible (DESIGN.md §17). The steal pass is the only cross-shard
// interaction, and a queue can only grow at an arrival event — every
// arrival is submitted before Run, so the arrival timeline is fully
// known. Whenever all wait queues are empty, no steal can fire at any
// barrier before the next arrival, and every shard free-runs through
// that window; with stealing off the whole run is one window. An
// attached flight recorder pins the exact lock-step cadence, because
// epoch records sample every shard at every global event time.

import (
	"fmt"
	"math"
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
// schedulers over disjoint node slices, driven in lock-step epochs. It
// is the only online scheduler — Shards: 1 runs the whole cluster as
// one shard. Build with NewShardedScheduler, attach observability
// (SetMetrics, SetAudit, SetTracer, SetFlight — one sink per shard),
// Submit the stream in nondecreasing arrival order, then Run.
type ShardedScheduler struct {
	cfg    ShardedConfig
	shards []*shard
	prof   *Profiler

	// memo interns router profiles under ProfileMemo: one record per
	// (app, size). recs is the chunk new records are carved from; a
	// chunk never moves, so every record keeps its address for the run.
	memo map[profileKey]*profileRec
	recs []profileRec

	nextID int
	lastAt float64
	steals int

	// err is the first bad submission (a profile error or an
	// out-of-order arrival time). Submit ignores everything after it and
	// Run returns it without driving anything.
	err error

	// stats counts barriers executed vs elided.
	stats BarrierStats

	// flight is the barrier-epoch flight recorder (nil = off; see
	// SetFlight). flightT0 is the previous barrier time (each epoch
	// record spans [flightT0, t]); statBuf is the reusable per-barrier
	// sample buffer.
	flight   *flight.Recorder
	flightT0 float64
	statBuf  []flight.ShardStat
}

// BarrierStats counts how the run's event work was driven. Barriers is
// the number of exact lock-step barrier iterations (each with a steal
// pass); Windows is the number of barrier-free free-running spans;
// WindowEvents is how many events fired inside those spans — each would
// have cost roughly one global barrier under the lock-step cadence, so
// it measures the barriers elided.
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
	c := &ShardedScheduler{cfg: cfg, prof: prof}
	if cfg.ProfileMemo {
		c.memo = make(map[profileKey]*profileRec)
	}
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
		c.shards = append(c.shards, newShard(model, db, tuner, n, base))
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

// SetFlight attaches a flight recorder: every barrier epoch emits one
// wide record per shard, each shard's forecast joins and drift alerts
// flow into its collector, and the steal pass reports per-edge flow.
// The recorder's triggers read shard queues through the tenant source
// to name the implicated applications. Pass nil to detach (the
// disabled path costs one branch per barrier).
func (c *ShardedScheduler) SetFlight(r *flight.Recorder) {
	c.flight = r
	for i, sh := range c.shards {
		// Only the owning shard's events write its collector between
		// barriers; the control plane drains it at every barrier.
		sh.fl = r.Collector(i)
	}
	r.SetTenantSource(func(i, max int) []string {
		return c.shards[i].topTenants(max)
	})
}

// SetMetrics attaches regs[i] to shard i — its scheduler counters,
// histograms and event log, and its wait queue's. Call before the first
// Submit, with at most Shards() entries; a nil entry, or a shard past
// the end of regs, stays uninstrumented. Each shard needs its own
// registry: a registry's event log is one shard's export.
func (c *ShardedScheduler) SetMetrics(regs []*metrics.Registry) {
	for i, reg := range regs {
		c.shards[i].setMetrics(reg)
	}
}

// SetAudit attaches logs[i] to shard i as its decision-audit log. Call
// before the first Submit, with at most Shards() entries; a nil entry,
// or a shard past the end of logs, stays unaudited. With a registry
// attached as well, joins and drift alarms are mirrored into it.
func (c *ShardedScheduler) SetAudit(logs []*audit.Log) {
	for i, l := range logs {
		c.shards[i].setAudit(l)
	}
}

// SetTracer attaches a sharded span tracer: one fresh Tracer per shard
// — reading that shard's engine clock, stamped with its shard index —
// appended to ts in shard order. Call before the first Submit on a
// fresh ShardSet; pass nil to detach every shard. Each shard's tracer
// is written only by that shard's events between barriers (plus the
// steal pass), and ts merges the span sets deterministically for
// export.
func (c *ShardedScheduler) SetTracer(ts *tracing.ShardSet) {
	for _, sh := range c.shards {
		if ts == nil {
			sh.setTracer(nil)
			continue
		}
		tr := tracing.New(sh.Engine.Clock())
		ts.Attach(tr)
		sh.setTracer(tr)
	}
}

// recordBarrier samples every shard once a barrier's events and steal
// pass have settled and closes the epoch [flightT0, t] in the
// recorder.
func (c *ShardedScheduler) recordBarrier(t float64) {
	stats := c.statBuf[:0]
	for _, sh := range c.shards {
		st := flight.ShardStat{
			Queue:   sh.queue.Len(),
			Free:    sh.freeSlots(),
			Active:  sh.pending - sh.queue.Len(),
			EnergyJ: sh.energyJ,
		}
		if m := memoOf(sh.Tuner); m != nil {
			st.TuneHits, st.TuneMisses = m.HitMiss()
		}
		stats = append(stats, st)
	}
	c.statBuf = stats
	c.flight.RecordEpoch(c.flightT0, t, stats)
	c.flightT0 = t
}

// memoOf unwraps the shard tuner chain down to its MemoSTP, if any
// (the deterministic tune-cache hit/miss source for epoch records).
func memoOf(t STP) *MemoSTP {
	for t != nil {
		switch v := t.(type) {
		case *MemoSTP:
			return v
		case *MeteredSTP:
			t = v.Inner
		default:
			return nil
		}
	}
	return nil
}

// Submit routes a job arrival to its home shard. Arrivals must be
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
	id := c.nextID
	c.nextID++
	c.shards[routeShard(app.Name, len(c.shards))].submit(id, rec, at)
}

// profile returns the interned record for one submission: under
// ProfileMemo the (app, size) record, profiled exactly on first sight;
// otherwise a fresh record holding this job's noisy profile.
func (c *ShardedScheduler) profile(app workloads.App, sizeGB float64) (*profileRec, error) {
	if c.memo == nil {
		obs, err := c.prof.Observe(app, sizeGB)
		if err != nil {
			return nil, err
		}
		return c.intern(obs), nil
	}
	k := profileKey{app.Name, sizeGB}
	if rec, ok := c.memo[k]; ok {
		return rec, nil
	}
	obs, err := c.prof.ObserveExact(app, sizeGB)
	if err != nil {
		return nil, err
	}
	rec := c.intern(obs)
	c.memo[k] = rec
	return rec, nil
}

// recChunk is how many records one store chunk holds.
const recChunk = 256

// intern stores obs in a new record: one allocation per recChunk
// records, instead of one per record or a store that regrows.
func (c *ShardedScheduler) intern(obs Observation) *profileRec {
	if len(c.recs) == cap(c.recs) {
		c.recs = make([]profileRec, 0, recChunk)
	}
	c.recs = append(c.recs, profileRec{obs: obs})
	return &c.recs[len(c.recs)-1]
}

// BarrierStats reports how the last Run drove the shards: exact
// barriers executed vs events fired inside free-running windows.
func (c *ShardedScheduler) BarrierStats() BarrierStats { return c.stats }

// Run drives all shards to completion and returns the global makespan
// and summed energy, or the first bad submission's error without
// driving anything. After the last event every shard is advanced to the
// global makespan and closed out, so every shard bills its trailing
// idle energy up to the same end time.
func (c *ShardedScheduler) Run() (makespan, energyJ float64, err error) {
	if c.err != nil {
		return 0, 0, c.err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: sharded scheduler: %v", r)
		}
	}()
	for _, sh := range c.shards {
		sh.reserveCompleted()
	}
	c.drive()
	pending := 0
	for _, sh := range c.shards {
		pending += sh.pending
	}
	if pending > 0 {
		return 0, 0, fmt.Errorf("core: sharded scheduler: %d jobs never completed", pending)
	}
	end := 0.0
	for _, sh := range c.shards {
		if now := sh.Engine.Now(); now > end {
			end = now
		}
	}
	for _, sh := range c.shards {
		sh.Engine.AdvanceTo(end)
		sh.finishRun()
	}
	if c.flight != nil {
		// One closing epoch so trailing idle energy and the drained
		// final state land in the ring.
		c.recordBarrier(end)
	}
	return end, c.EnergyJ(), nil
}

// drive is the event loop (DESIGN.md §17). At the global next-event
// time t it asks horizon how far the shards may run without a barrier:
// past t, every shard drains its events strictly before the horizon (a
// free window); at t, one exact barrier drains the events at t, then
// the steal pass runs (stealing on) and the flight recorder closes an
// epoch (recorder attached).
func (c *ShardedScheduler) drive() {
	for {
		t := c.nextBarrier()
		if math.IsInf(t, 1) {
			return
		}
		if h := c.horizon(t); h > t {
			fired := c.totalFired()
			c.stats.Windows++
			c.runSpan(h, true)
			c.stats.WindowEvents += c.totalFired() - fired
			continue
		}
		c.stats.Barriers++
		c.runSpan(t, false)
		if c.cfg.Steal {
			c.stealPass(t)
		}
		if c.flight != nil {
			c.recordBarrier(t)
		}
	}
}

// horizon returns how far past the global next-event time t the shards
// may free-run:
//
//   - t (no window) when a flight recorder is attached: epoch records
//     sample every shard at every global event time;
//   - +Inf with stealing off: shards share no mutable state at all, so
//     the whole run is one window and the exports merge afterwards;
//   - t while any wait queue is non-empty: the steal pass may fire;
//   - otherwise the next arrival time. A wait queue grows only at an
//     arrival event (WaitQueue.Push is reached from arrive and
//     acceptStolen alone) and every arrival time is known before Run,
//     so with every queue empty the steal pass is a no-op at every
//     barrier before the next arrival — precisely its own early-out.
func (c *ShardedScheduler) horizon(t float64) float64 {
	switch {
	case c.flight != nil:
		return t
	case !c.cfg.Steal:
		return math.Inf(1)
	case c.anyQueued():
		return t
	}
	// Every arrival strictly before t has fired: each shard's earliest
	// unfired arrival keeps a pending event at its time, so the global
	// min next-event time t bounds it. The earliest arrival ring head
	// is therefore the first arrival at or after t.
	next := math.Inf(1)
	for _, sh := range c.shards {
		if at, ok := sh.nextArrival(); ok && at < next {
			next = at
		}
	}
	return next
}

// nextBarrier returns the minimum next-event time across shards (+Inf
// when every engine is drained).
func (c *ShardedScheduler) nextBarrier() float64 {
	t := math.Inf(1)
	for _, sh := range c.shards {
		if at, ok := sh.Engine.NextAt(); ok && at < t {
			t = at
		}
	}
	return t
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

// totalFired sums shard event counts (window accounting).
func (c *ShardedScheduler) totalFired() int64 {
	var n int64
	for _, sh := range c.shards {
		n += sh.Engine.Fired()
	}
	return n
}

// runSpan drains every shard in shard order: events strictly before
// horizon for a free window (excl), through it inclusive for a barrier.
// A shard with no event in range is untouched — RunBefore and
// RunThrough never move a clock that has no due event. A panic in a
// shard event unwinds straight into Run's recover, at the
// lowest-index panicking shard.
func (c *ShardedScheduler) runSpan(horizon float64, excl bool) {
	for _, sh := range c.shards {
		if excl {
			sh.Engine.RunBefore(horizon)
		} else {
			sh.Engine.RunThrough(horizon)
		}
	}
}

// stealPass runs at the barrier, after every shard drained: shards are scanned in
// index order; a shard with an empty queue and free capacity claims
// queue heads from its neighbors (nearest first, wrapping upward) up to
// min(stealBatch, freeSlots) jobs, then dispatches them at the barrier
// time. Everything here is a function of shard state and t alone, so a
// steal that fires at t fires at t in every run of the same stream.
func (c *ShardedScheduler) stealPass(t float64) {
	if !c.anyQueued() {
		return // nothing to steal anywhere — the common barrier
	}
	s := len(c.shards)
	for i, thief := range c.shards {
		if thief.queue.Len() > 0 {
			continue
		}
		budget := thief.freeSlots()
		if budget > stealBatch {
			budget = stealBatch
		}
		if budget <= 0 {
			continue
		}
		claimed := 0
		for k := 1; k < s && budget > 0; k++ {
			vi := (i + k) % s
			victim := c.shards[vi]
			for budget > 0 && victim.queue.Len() > 0 {
				victim.Engine.AdvanceTo(t)
				// The link id is the global steal sequence number — a
				// function of shard state and t alone, so the victim's
				// steal_out span and the thief's steal_in span carry
				// the same id in every run of the same stream.
				link := c.steals + 1
				j := victim.releaseHead(t, i, link)
				if j == nil {
					break
				}
				thief.Engine.AdvanceTo(t)
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
		}
		if claimed > 0 {
			thief.dispatch()
		}
	}
}

// Completed returns all finished jobs merged across shards, ordered by
// (finish time, job id).
//
// Each shard appends completions at its own completion events, so its
// log is already in nondecreasing finish order, save for same-instant
// completions that landed out of id order. Each log is sorted in place
// by (Finished, ID) — linear on an already-sorted log — and a linear
// S-way merge replaces the global sort (which burned ~15% of the
// sharded bench in comparator closures and 120-byte struct swaps).
func (c *ShardedScheduler) Completed() []CompletedJob {
	total := 0
	for _, sh := range c.shards {
		slices.SortFunc(sh.completed, func(a, b CompletedJob) int { return cmpCompleted(&a, &b) })
		total += len(sh.completed)
	}
	out := make([]CompletedJob, 0, total)
	idx := make([]int, len(c.shards))
	for len(out) < total {
		best := -1
		for si, sh := range c.shards {
			i := idx[si]
			if i < len(sh.completed) && (best < 0 || cmpCompleted(&sh.completed[i], &c.shards[best].completed[idx[best]]) < 0) {
				best = si
			}
		}
		out = append(out, c.shards[best].completed[idx[best]])
		idx[best]++
	}
	return out
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
// and makespan stay bit-identical. It stands down on shards with a
// tracer or audit log attached, whose per-node and per-job attribution
// needs the walk. Call before the first Submit.
func (c *ShardedScheduler) SetFastAccrual(v bool) {
	for _, sh := range c.shards {
		sh.setFastAccrual(v)
	}
}
