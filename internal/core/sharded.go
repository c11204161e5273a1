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
// completion log, which every append keeps in (finish time, job id)
// order (DESIGN.md §41), so interleaving their events in one
// (time, seq) order is invisible in every export.
//
// Submit only solves each job's profiling run. One helper goroutine
// finishes the records during Run — noise, id and classification, in
// submission order — ahead of the drive, which delivers an arrival
// once its record is finished (DESIGN.md §45). Without ProfileMemo a
// record lives only while its job does: the helper re-solves each
// submission into a fixed window at most one window ahead of the
// drive, and the drive copies it into a record it recycles once the
// job completes (DESIGN.md §46).
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
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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
	// arrivals is the pending-arrival ring Submit fills: its head is
	// the one arrival event, which delivers every arrival sharing its
	// timestamp to its home shard, in submission order (DESIGN.md §24,
	// §41).
	ev       eventQueue
	arrivals arrivalRing

	// steadyMemo is the one steady memo every shard probes and fills
	// (shard.steadyMemo, DESIGN.md §37). Its key is made of plane-wide
	// spec ids, so a set one shard solved is a hit on every other, and
	// the one drive fixes the order of its fills and clears.
	steadyMemo memoTable[steadyKey, steadyVal]

	// recs holds each (app, size)'s one record under ProfileMemo.
	// Without it specOf maps each (app, size) to its spec id, and only
	// the finisher touches it (assignSpec); no entry points at a record,
	// which lives only while its job does. specs counts the spec ids
	// handed out, so ids are dense, start at 1 and are never reused.
	recs   memoTable[recKey, *profileRec]
	specOf memoTable[recKey, int]
	specs  int

	// store is where records are carved: ProfileMemo's, kept for the
	// plane's life, and the records pooled jobs keep (Job.own). subObs
	// is the scratch observation Submit solves a single submission
	// into, and win the window of records the finisher has finished
	// and the drive has not yet delivered (DESIGN.md §46).
	store  recStore
	subObs Observation
	win    []profileRec

	nextID int
	lastAt float64
	steals int

	// fin is what Run's finishing helper shares with the drive, and
	// finished the drive's last reading of its count (DESIGN.md §45).
	fin      finisher
	finished int

	// queued is the steal pass's set of shards with queued work,
	// reused across passes.
	queued nodeSet

	// completed is the one completion log, in (Finished, ID) order:
	// every shard appends to it at its completion events through
	// logCompletion, which keeps the order. Run reserves it for every
	// submitted job, so it never regrows. It is also what Completed
	// returns, so each completion is stored once (DESIGN.md §44).
	completed []CompletedJob

	// err is the first bad submission (a profile error or an
	// out-of-order arrival time) or the first error an event hit.
	// Submit ignores everything after it; Run returns a submission's
	// without driving anything, an event's once the drive stops at it.
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

// recKey is a record's (app, size) key in the router's record table:
// the app's id plus one, so no key is zero, and the size's bits. It
// keeps a map's float equality: recKeyOf folds −0 into +0, and a NaN
// size has no key, so each NaN submission gets a fresh spec id.
type recKey struct{ app, size uint64 }

func (k recKey) hash() uint64 { return fpFinish(k.app*fpMul ^ k.size) }

// recKeyOf returns the key of (app, sizeGB), and false for a NaN size.
func recKeyOf(app workloads.ID, sizeGB float64) (recKey, bool) {
	if sizeGB == 0 {
		sizeGB = 0 // −0 keys as +0
	}
	return recKey{uint64(app) + 1, math.Float64bits(sizeGB)}, sizeGB == sizeGB
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
	c := &ShardedScheduler{cfg: cfg, prof: prof, queued: newNodeSet(cfg.Shards)}
	c.fin.wake.L = &c.fin.mu
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
		sh := newShard(&c.ev, &c.steadyMemo, model, db, tuner, n, base)
		sh.idx = i
		sh.completions, sh.err, sh.recs = &c.completed, &c.err, &c.store
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
// submitted in nondecreasing time order (every stream source — scenario
// generators, trace replay, workload cycling — emits sorted arrivals).
// Submit takes only the part of the job's profile that can fail, the
// profiling run's solve; Run's helper finishes the record, in
// submission order, so the sampler's draw sequence is the stream's
// arrival order (DESIGN.md §45). Without ProfileMemo it keeps only the
// job's stub beside the ring (DESIGN.md §46). An out-of-order arrival
// or a job the profiler rejects is kept as the run's error: later
// submissions are ignored and Run returns it.
func (c *ShardedScheduler) Submit(app workloads.ID, sizeGB, at float64) {
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
	if rec != nil {
		c.shards[rec.home].pending++
		c.arrivals.push(pendingArrival{at: at, rec: rec})
	} else {
		s := recStub{size: sizeGB, app: app, home: int32(routeShard(app.Name(), len(c.shards)))}
		c.shards[s.home].pending++
		c.arrivals.pushStub(at, s)
	}
	c.nextID++
}

// fireArrivals is the ring's head event: it delivers every arrival due
// at the current clock to its home shard in submission order — each
// shard's arrive runs classify, queue and dispatch exactly as a per-job
// event would. A job's id is the number of arrivals delivered before
// it, which is its submission index. An arrival is delivered only once
// its record is finished (finishRecords). An arrival without a record
// is delivered with its finished record in the window, which arrive
// copies into its job's own record (DESIGN.md §46).
func (c *ShardedScheduler) fireArrivals() {
	r := &c.arrivals
	for p := r.peek(); p != nil && p.at <= c.ev.now; p = r.peek() {
		if r.delivered >= c.finished {
			c.awaitFinished(r.delivered)
		}
		a, id := r.pop()
		if a.rec != nil {
			c.shards[a.rec.home].arrive(id, a.rec, a.at)
			continue
		}
		slot := &c.win[id%len(c.win)]
		c.shards[slot.home].arrive(id, slot, a.at)
		// The slot is free for the record a window later.
		c.fin.deliver(int64(id + 1))
	}
}

// finisher is the state Run's finishing helper shares with the drive
// (DESIGN.md §45). done counts the arrivals whose records are finished,
// a prefix of the submission order: the helper publishes it after each
// batch and the drive reads it. delivered counts the arrivals the drive
// has copied out of the window, which the helper reads to stay within
// one window of it (DESIGN.md §46). Each count sits alone on its cache
// line, away from the fields the drive writes; want, beside delivered,
// is the delivered count a helper asleep at the window's edge waits
// for, 0 otherwise, and wake (on mu) is where it sleeps. stop asks the
// helper to return at its next batch, once the drive has stopped; wg
// joins it. failure is the helper's panic, published by done reading
// finFailed.
type finisher struct {
	_         [64]byte
	done      atomic.Int64
	_         [56]byte
	delivered atomic.Int64
	want      atomic.Int64
	_         [48]byte
	stop      atomic.Bool
	mu        sync.Mutex
	wake      sync.Cond
	wg        sync.WaitGroup
	failure   any
}

// deliver publishes the drive's delivered count n and wakes the helper
// once n reaches the count it sleeps for. Only the delivery that takes
// want back to 0 takes the lock, once per sleep.
func (f *finisher) deliver(n int64) {
	f.delivered.Store(n)
	if w := f.want.Load(); w != 0 && n >= w && f.want.CompareAndSwap(w, 0) {
		f.mu.Lock()
		f.wake.Signal()
		f.mu.Unlock()
	}
}

// awaitDelivered sleeps the helper until the drive's delivered count
// reaches n or the drive stops. It announces n, under the lock, before
// it checks the count, and deliver stores the count before it checks
// want and signals under the lock, so no wake is lost.
func (f *finisher) awaitDelivered(n int64) {
	f.mu.Lock()
	f.want.Store(n)
	for f.delivered.Load() < n && !f.stop.Load() {
		f.wake.Wait()
	}
	f.want.Store(0)
	f.mu.Unlock()
}

// halt asks the helper to return and wakes it if it sleeps.
func (f *finisher) halt() {
	f.stop.Store(true)
	f.mu.Lock()
	f.wake.Signal()
	f.mu.Unlock()
}

// finFailed is the count a panicking helper publishes.
const finFailed = math.MaxInt64

// finBatch is how many records the helper finishes between two
// publications of its count.
const finBatch = 64

// finishRecords finishes the records of the submitted arrivals the
// count does not cover yet, in submission order, and publishes the
// count after each batch. r is the arrival ring as the finisher starts.
// A single submission's record is its stub re-solved into its window
// slot, at most one window ahead of the drive's delivered count, with
// its measurement noise drawn and its spec id given. Every record not
// yet finished gets its id stamped and the classifier's answers cached
// — the parts of a profile that cannot fail and that nothing reads
// before the record's first arrival is delivered. A record already
// finished, a ProfileMemo record seen before, is skipped. Run runs it
// on one helper goroutine ahead of the drive; a test that steps the
// drive without Run calls it after submitting, with a window that
// holds every submission.
//
// The drive delivers an arrival only after the count covers it, and
// clears a ring slot or drops a chunk only after delivering from it;
// it copies a window slot out before its delivered count frees the
// slot. So every slot the finisher reads and every record it writes is
// ordered against the drive's accesses by the two counts.
func (c *ShardedScheduler) finishRecords(r arrivalRing) {
	f := &c.fin
	cls := c.shards[0].DB.Classifier()
	base, win, single := r.base(), c.win, len(r.stubs) > 0
	for i, end := int(f.done.Load()), c.nextID; i < end && !f.stop.Load(); {
		stop := min(i+finBatch, end)
		if single {
			// Slot i%len(win) is free once arrival i-len(win) is
			// delivered. At the window's edge the helper sleeps until a
			// batch of slots is free, rather than spin.
			if stop = min(stop, int(f.delivered.Load())+len(win)); i == stop {
				f.awaitDelivered(int64(i - len(win) + min(finBatch, len(win))))
				continue
			}
		}
		for ; i < stop; i++ {
			k := i - base
			var rec *profileRec
			if single {
				rec = &win[i%len(win)]
				c.resolve(rec, &r.stubs[k/arrChunk][k%arrChunk])
				c.prof.noise(&rec.obs)
				c.assignSpec(rec)
			} else if rec = r.chunks[k/arrChunk][k%arrChunk].rec; rec.by == cls.id {
				continue
			}
			rec.obs.stamp()
			class, near := cls.answer(&rec.obs)
			rec.class, rec.near, rec.by = uint8(class), int32(near), cls.id
		}
		f.done.Store(int64(i))
	}
}

// resolve makes rec the unfinished record of the submission s stubs:
// its profiling run solved again, a pure function of app and size, so
// bit for bit the solve Submit took, on the profiler's evaluator,
// which Run never shares with Submit.
func (c *ShardedScheduler) resolve(rec *profileRec, s *recStub) {
	*rec = profileRec{home: s.home, single: true}
	if err := c.prof.solve(&rec.obs, s.app, s.size); err != nil {
		panic(fmt.Sprintf("re-solve of %s@%g failed after Submit's succeeded: %v", s.app.Name(), s.size, err))
	}
}

// finishAhead is Run's helper goroutine: finishRecords, with a panic
// handed to the drive instead of ending the process.
func (c *ShardedScheduler) finishAhead(r arrivalRing) {
	f := &c.fin
	defer f.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			f.failure = r
			f.done.Store(finFailed)
		}
	}()
	c.finishRecords(r)
}

// awaitFinished returns once the finisher's count covers arrival id,
// yielding the processor while it waits, so it works at GOMAXPROCS 1;
// a panic of the helper's is raised here, in the drive.
func (c *ShardedScheduler) awaitFinished(id int) {
	for {
		n := c.fin.done.Load()
		if n == finFailed {
			panic(fmt.Sprintf("record finisher: %v", c.fin.failure))
		}
		if c.finished = int(n); id < c.finished {
			return
		}
		runtime.Gosched()
	}
}

// arrChunk is how many arrivals one ring chunk holds: 64 KiB of
// entries, one allocation per arrChunk submissions.
const arrChunk = 4096

// arrivalRing is the control plane's FIFO of undelivered arrivals, in
// fixed chunks filled at the tail and drained at the head (DESIGN.md
// §41). A full tail chunk is followed by a new one rather than regrown,
// so no entry is ever copied; only the short list of chunk pointers
// grows. A drained head chunk leaves the list at once, for the
// collector, and a ring drained empty keeps its last chunk to refill.
//
// chunks[0] holds the first undelivered entry, at hi; the last chunk
// is filled up to ti. delivered counts the entries popped over the
// ring's life. stubs is empty under ProfileMemo; otherwise stubs[k]
// holds the stubs of chunks[k]'s entries, which carry no record, at
// the same places (DESIGN.md §46).
type arrivalRing struct {
	chunks    []*[arrChunk]pendingArrival
	stubs     []*[arrChunk]recStub
	hi, ti    int
	delivered int
}

// recStub is what Submit keeps of a single submission's profile until
// Run's helper re-solves it: the application, the size and the home
// shard, 16 B and no pointer (TestRecordSizes).
type recStub struct {
	size float64
	home int32
	app  workloads.ID
}

// base is the submission index of the first chunk's first entry.
func (r *arrivalRing) base() int { return r.delivered - r.hi }

// push appends p at the tail.
func (r *arrivalRing) push(p pendingArrival) {
	if len(r.chunks) == 0 || r.ti == arrChunk {
		r.chunks = append(r.chunks, new([arrChunk]pendingArrival))
		r.ti = 0
	}
	r.chunks[len(r.chunks)-1][r.ti] = p
	r.ti++
}

// pushStub appends an arrival at `at` without a record, with its stub
// s beside it.
func (r *arrivalRing) pushStub(at float64, s recStub) {
	r.push(pendingArrival{at: at})
	if len(r.stubs) < len(r.chunks) {
		r.stubs = append(r.stubs, new([arrChunk]recStub))
	}
	r.stubs[len(r.stubs)-1][r.ti-1] = s
}

// peek returns the first undelivered entry, or nil on an empty ring.
func (r *arrivalRing) peek() *pendingArrival {
	if len(r.chunks) == 0 || (len(r.chunks) == 1 && r.hi == r.ti) {
		return nil
	}
	return &r.chunks[0][r.hi]
}

// pop removes the first entry of a non-empty ring and returns it with
// the number of entries delivered before it.
func (r *arrivalRing) pop() (pendingArrival, int) {
	head := r.chunks[0]
	p := head[r.hi]
	head[r.hi] = pendingArrival{} // drop the record reference
	r.hi++
	switch {
	case len(r.chunks) == 1 && r.hi == r.ti:
		r.hi, r.ti = 0, 0 // drained: refill the last chunk from its start
	case r.hi == arrChunk:
		r.chunks[0] = nil
		r.chunks, r.hi = r.chunks[1:], 0
		if len(r.stubs) > 0 {
			r.stubs[0] = nil
			r.stubs = r.stubs[1:]
		}
	}
	r.delivered++
	return p, r.delivered - 1
}

// profile takes one submission's profile. Under ProfileMemo it returns
// the (app, size) record, profiled exactly and given its spec id on
// first sight; the finisher stamps its id, which names the record, not
// its contents (DESIGN.md §26, §33), and its home is its application's
// shard. Otherwise it solves the job's profiling run into the plane's
// scratch observation, for its error alone, and returns no record: the
// finisher re-solves the job's stub into a record of its own (DESIGN.md
// §46).
func (c *ShardedScheduler) profile(app workloads.ID, sizeGB float64) (*profileRec, error) {
	if !c.cfg.ProfileMemo {
		if err := c.prof.solve(&c.subObs, app, sizeGB); err != nil {
			return nil, fmt.Errorf("core: profile %s: %w", app.Name(), err)
		}
		return nil, nil
	}
	k, keyed := recKeyOf(app, sizeGB)
	if keyed {
		if rec := c.recs.get(k); rec != nil {
			return *rec, nil
		}
	}
	// The profile is measured into its record's place in the store.
	rec := c.store.carve()
	if err := c.prof.observeExact(&rec.obs, app, sizeGB); err != nil {
		return nil, fmt.Errorf("core: profile %s: %w", app.Name(), err)
	}
	rec.home = int32(routeShard(app.Name(), len(c.shards)))
	c.specs++
	rec.spec = c.specs
	if keyed {
		c.recs.put(k, rec)
	}
	return rec, nil
}

// assignSpec gives a single submission's record the spec id of its
// (app, size): the one the pair got at first sight, or on first sight
// a new one. The finisher calls it in submission order, so ids are
// handed out in order of first sight.
func (c *ShardedScheduler) assignSpec(rec *profileRec) {
	k, keyed := recKeyOf(rec.obs.App, rec.obs.SizeGB)
	if keyed {
		if spec := c.specOf.get(k); spec != nil {
			rec.spec = *spec
			return
		}
	}
	c.specs++
	rec.spec = c.specs
	if keyed {
		c.specOf.put(k, rec.spec)
	}
}

// recStore carves the plane's records from fixed chunks that never
// move, one allocation per recChunk records, and none holding a
// pointer. ProfileMemo's records are carved for the plane's life.
// Without it the drive carves one record per Job it allocates, which
// the pooled Job keeps (Job.own), so the records carved follow the
// jobs in the system (DESIGN.md §46). Only the drive carves during
// Run.
type recStore struct {
	chunk []profileRec
}

// recChunk is how many records one store chunk holds.
const recChunk = 256

// carve returns a zero record new to the store.
func (s *recStore) carve() *profileRec {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]profileRec, 0, recChunk)
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	return &s.chunk[len(s.chunk)-1]
}

// recWindow is how many finished records the window holds: how far
// Run's helper may run ahead of the drive (DESIGN.md §46).
const recWindow = 1024

// BarrierStats reports how the last Run drove the shards: barriers
// executed vs events fired between them.
func (c *ShardedScheduler) BarrierStats() BarrierStats { return c.stats }

// Run drives all shards to completion and returns the global makespan
// and summed energy, or the first bad submission's error without
// driving anything. An error an event hits stops the drive at that
// event and is returned wrapped, so errors.Is and errors.As reach it;
// a panic in a shard event surfaces as the error too, at the first
// panicking event in (time, seq) order. After the last event
// the clock reads the global makespan, and every shard is closed
// out there, so every shard bills its trailing idle energy up to the
// same end time.
func (c *ShardedScheduler) Run() (makespan, energyJ float64, err error) {
	if c.err != nil {
		return 0, 0, c.err
	}
	c.completed = append(make([]CompletedJob, 0, c.nextID), c.completed...)
	// The window is sized at the first Run with arrivals pending.
	if !c.cfg.ProfileMemo && len(c.win) == 0 {
		c.win = make([]profileRec, min(recWindow, c.nextID-c.arrivals.delivered))
	}
	// One helper finishes the records ahead of the drive; it is joined
	// on every way out, the error and panic paths included.
	c.fin.stop.Store(false)
	c.fin.wg.Add(1)
	go c.finishAhead(c.arrivals)
	defer func() {
		c.fin.halt()
		c.fin.wg.Wait()
		if r := recover(); r != nil {
			err = fmt.Errorf("core: sharded scheduler: %v", r)
		}
	}()
	if c.drive(); c.err != nil {
		return 0, 0, c.err
	}
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
// flight epoch (recorder attached) at every event time. It returns
// after an event that failed (shard.fail).
func (c *ShardedScheduler) drive() {
	inWindow := false
	for {
		t, ok := c.nextAt()
		if !ok {
			return
		}
		barrier := c.barrierAt(t)
		var fired int64
		for c.err == nil && c.step(t) {
			fired++
		}
		if c.err != nil {
			return
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
	if p := c.arrivals.peek(); p != nil && p.at <= t {
		return true
	}
	return c.anyQueued()
}

// ringAt is the ring head's event time: its arrival time, never before
// the clock.
func (c *ShardedScheduler) ringAt() (float64, bool) {
	p := c.arrivals.peek()
	if p == nil {
		return 0, false
	}
	return max(p.at, c.ev.now), true
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
// id), never nil. The result is the plane's own completion log, kept in
// that order as it is appended (logCompletion), so Completed copies and
// allocates nothing (TestCompletedAllocatesNothing): two calls return
// the same entries. The plane never writes the log after Run returns,
// and the result is clipped to its length, so a caller's append
// reallocates instead of writing into the plane. Callers must not
// write to its entries.
func (c *ShardedScheduler) Completed() []CompletedJob {
	if c.completed == nil {
		return []CompletedJob{}
	}
	return c.completed[:len(c.completed):len(c.completed)]
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

// SetFastAccrual does nothing. Every shard integrates its per-phase
// power sums from construction, the one accrual path (DESIGN.md §36);
// the method stays for the repository benchmark, which calls it.
func (c *ShardedScheduler) SetFastAccrual(bool) {}
