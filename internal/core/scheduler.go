package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"ecost/internal/audit"
	"ecost/internal/cluster"
	"ecost/internal/flight"
	"ecost/internal/hdfs"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/power"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// shard is one partition of the event-driven form of ECoST (Figure 4),
// owned by a ShardedScheduler: jobs arrive over time, are classified,
// wait in the FIFO queue with head reservation, and are co-located onto
// the shard's nodes by the pairing decision tree with STP-tuned
// configurations. Job progress follows the execution model's fluid
// contention solver, recomputed whenever a node's resident set changes.
type shard struct {
	// ev is the control plane's clock and completion heap, shared by
	// every shard.
	ev    *eventQueue
	Model *mapreduce.Model
	DB    *Database
	Tuner STP

	queue *WaitQueue
	nodes []*onlineNode

	// base offsets node ids in every export (metrics events, span
	// attributes, audit rows, CompletedJob.Node) so a shard owning
	// nodes [base, base+len) reports cluster-global ids while its
	// internal indexes stay dense.
	base int

	// fastAcc selects the O(1) aggregate accrual path: reschedule
	// maintains phaseWatts, the running sum of cached node draws per
	// occupancy phase (0 idle, 1 solo, 2 co-located), and accrueEnergy
	// integrates the three sums instead of walking every node. Summing
	// incrementally reassociates the float adds, so total energy can
	// differ from the per-node walk in the last ulps (golden-tested to
	// 1e-9 relative); scheduling decisions never read energy, so
	// makespan and every placement stay bit-identical. The fast path
	// only engages when no per-node attribution is needed (tracer and
	// audit off); see setFastAccrual.
	fastAcc    bool
	phaseWatts [3]float64

	// steadyMemo caches steady-state contention solves by the exact
	// model inputs packed in one word (per resident, in resident order:
	// the spec id of its (app, size) and its configuration's grid
	// index; see steadyKey). Steady is a pure function of those inputs,
	// so a hit returns bit-identical times and watts — the cache is
	// transparent to every golden — while recurring tenant pairs skip
	// the fluid solver entirely. At steadyMemoCap entries it clears
	// wholesale (the MemoSTP policy: recurring streams re-warm
	// instantly, adversarial key churn cannot grow memory).
	steadyMemo map[steadyKey]steadyVal

	// freeCnt / halfCnt mirror the dispatch bitmaps' populations so
	// freeSlots — called per shard at every steal barrier — is O(1)
	// instead of a popcount walk.
	freeCnt, halfCnt int

	// idleWatts caches the empty-node steady-state draw (bit-identical
	// to Model.Steady(nil)); scratch is the reusable RunSpec buffer the
	// reschedule path builds resident specs into, and eval the solver
	// reschedule runs them through on reused scratch; freeSet / halfSet
	// index nodes with zero / exactly one resident for O(1) dispatch.
	idleWatts float64
	scratch   []mapreduce.RunSpec
	eval      *mapreduce.Evaluator
	freeSet   nodeSet
	halfSet   nodeSet

	// completions points at the control plane's one completion log.
	pending     int
	completions *[]CompletedJob

	// energy accounting
	energyJ    float64
	lastUpdate float64
	phases     power.PhaseAccumulator

	// met holds the pre-resolved metric handles (nil = observability
	// off; see setMetrics).
	met *schedMetrics

	// tracer records lifecycle and occupancy spans (nil = tracing off;
	// see setTracer). traced maps in-flight job IDs to their open
	// spans; nodeSpans holds each node's current occupancy span.
	tracer    *tracing.Tracer
	traced    map[int]*jobSpans
	nodeSpans []*tracing.Span

	// aud records every decision joined with its realized outcome
	// (nil = auditing off; see setAudit).
	aud *audit.Log

	// fl is this shard's flight-recorder collector (nil = flight
	// recording off; see ShardedScheduler.SetFlight). Forecast joins
	// and drift alerts accumulate here until the control plane drains
	// them at the next barrier.
	fl *flight.Collector

	// jobPool / ojPool recycle Job and onlineJob records: both become
	// unreachable at completion (CompletedJob copies every exported
	// field; spans, audit rows, and metrics hold ids and strings, never
	// the pointers), so the completion path returns them here and
	// arrive/place reuse them. A stolen job's pointer migrates with it
	// and retires into the thief's pool.
	jobPool []*Job
	ojPool  []*onlineJob
}

// maxPerNode caps co-located jobs per node: the paper pairs at most two
// applications, and dispatch only targets empty or half-busy nodes.
const maxPerNode = 2

// pendingArrival is one undelivered submission in the control plane's
// arrival ring. It holds the profile by reference, and the home shard
// lives on the record, so an entry is three words however large an
// Observation grows (TestPendingArrivalSize pins it at 24 B or less).
type pendingArrival struct {
	id  int
	at  float64
	rec *profileRec
}

// profileRec is one interned router profile: the observation measured
// for a submission and the behaviour class derived from it. The sharded
// router owns the records for the run — one per (app, size) under
// ProfileMemo, one per distinct observation otherwise — and hands them
// to the home shard by pointer, so the observation is copied once, into
// the Job. The record's observation carries its id (DESIGN.md §26).
//
// home is the shard the router sends every job holding the record to.
// The class is computed on first arrival and cached here. Classify is
// a pure function of the observation, so the cache is bit-identical to
// classifying every arrival. Only the home shard classifies a record:
// routing is by app name, so every job sharing a record shares a home
// shard, and a stolen job carries its class in the Job instead. A
// thief reads only the record's spec id, fixed at Submit.
//
// spec is the router's id for the record's (app name, size), shared by
// every record of that pair and never reused (DESIGN.md §25). Ids
// start at 1, so a zero spec word marks an empty steadyKey slot.
type profileRec struct {
	obs     Observation
	spec    int
	home    int
	class   workloads.Class
	classed bool
}

// classOf returns rec's behaviour class, classifying on first use.
func (s *shard) classOf(rec *profileRec) workloads.Class {
	if !rec.classed {
		rec.class = s.DB.Classifier().Classify(rec.obs)
		rec.classed = true
	}
	return rec.class
}

// jobSpans tracks one in-flight job's open spans plus the model's
// latest map/total time split (refreshed at every reschedule, so the
// final value reflects the contention conditions the job actually
// finished under).
type jobSpans struct {
	job, wait, run *tracing.Span
	mapFrac        float64
}

// schedMetrics pre-resolves the scheduler's instruments so the hot
// event path never takes the registry lock.
type schedMetrics struct {
	reg        *metrics.Registry
	submitted  *metrics.Counter
	completed  *metrics.Counter
	pairs      *metrics.Counter
	reserves   *metrics.Counter
	leaps      *metrics.Counter
	tunePair   *metrics.Counter
	tuneSolo   *metrics.Counter
	depth      *metrics.Series
	turnaround *metrics.Histogram
	wait       map[workloads.Class]*metrics.Histogram

	energyIdle   *metrics.Gauge
	energySolo   *metrics.Gauge
	energyPaired *metrics.Gauge

	// Audit mirrors (registered by auditMetrics once both a registry
	// and an audit log are attached).
	driftAlert  *metrics.Gauge   // stp.drift_alert: 0 healthy, latched 1 on alarm
	driftAlerts *metrics.Counter // audit.drift_alerts: alarms fired
	relErr      map[string]*metrics.Histogram

	// Steal counters, registered lazily on first use so steal-free
	// runs' snapshots carry no steal families.
	stealsIn  *metrics.Counter // sched.steals_in: jobs claimed from neighbors
	stealsOut *metrics.Counter // sched.steals_out: queued jobs claimed away
}

// stealIn lazily registers the jobs-claimed-from-neighbors counter.
func (m *schedMetrics) stealIn() *metrics.Counter {
	if m.stealsIn == nil {
		m.stealsIn = m.reg.Counter("sched.steals_in")
	}
	return m.stealsIn
}

// stealOut lazily registers the jobs-claimed-away counter.
func (m *schedMetrics) stealOut() *metrics.Counter {
	if m.stealsOut == nil {
		m.stealsOut = m.reg.Counter("sched.steals_out")
	}
	return m.stealsOut
}

// waitFor returns the per-class wait-latency histogram.
func (m *schedMetrics) waitFor(c workloads.Class) *metrics.Histogram {
	h, ok := m.wait[c]
	if !ok {
		h = m.reg.Histogram("sched.wait_s."+c.String(), metrics.ExpBuckets(16, 2, 14))
		m.wait[c] = h
	}
	return h
}

// relErrFor returns the per-predicted-class STP relative-error
// histogram (buckets track audit.ErrBuckets: 5% doubling to 1280%).
func (m *schedMetrics) relErrFor(class string) *metrics.Histogram {
	h, ok := m.relErr[class]
	if !ok {
		h = m.reg.Histogram("audit.rel_err_pct."+class, metrics.ExpBuckets(5, 2, 9))
		m.relErr[class] = h
	}
	return h
}

// setMetrics attaches an observability registry to the shard (and its
// wait queue); nil disables. The execution model is shared across
// shards and stays uninstrumented.
func (s *shard) setMetrics(reg *metrics.Registry) {
	if reg == nil {
		s.met = nil
		s.queue.Metrics = nil
		return
	}
	s.met = &schedMetrics{
		reg:          reg,
		submitted:    reg.Counter("sched.submitted"),
		completed:    reg.Counter("sched.completed"),
		pairs:        reg.Counter("sched.pairings"),
		reserves:     reg.Counter("sched.reservations"),
		leaps:        reg.Counter("sched.leaps"),
		tunePair:     reg.Counter("sched.tune.pair"),
		tuneSolo:     reg.Counter("sched.tune.solo"),
		depth:        reg.Series("sched.queue_depth"),
		turnaround:   reg.Histogram("sched.turnaround_s", metrics.ExpBuckets(16, 2, 14)),
		wait:         map[workloads.Class]*metrics.Histogram{},
		energyIdle:   reg.Gauge("power.energy_j.idle"),
		energySolo:   reg.Gauge("power.energy_j.solo"),
		energyPaired: reg.Gauge("power.energy_j.paired"),
		relErr:       map[string]*metrics.Histogram{},
	}
	s.queue.Metrics = reg
	s.auditMetrics()
}

// setAudit attaches a decision-audit log to the shard; nil disables.
// When a metrics registry is also attached, joins and drift alarms are
// mirrored into it (per-class audit.rel_err_pct histograms, the
// stp.drift_alert gauge, the audit.drift_alerts counter, and EvDrift
// events).
func (s *shard) setAudit(l *audit.Log) {
	s.aud = l
	s.auditMetrics()
}

// auditMetrics pre-registers the audit mirror instruments once both an
// audit log and a registry are attached (either attachment order), so
// the drift gauge is visible at 0 on healthy runs.
func (s *shard) auditMetrics() {
	if s.aud == nil || s.met == nil {
		return
	}
	s.met.driftAlert = s.met.reg.Gauge("stp.drift_alert")
	s.met.driftAlerts = s.met.reg.Counter("audit.drift_alerts")
}

// setTracer attaches a span tracer to the shard; nil disables. The
// tracer's clock must be the control plane's (tracing.New(ev.clock)) or
// span timestamps will not line up with the event log.
func (s *shard) setTracer(tr *tracing.Tracer) {
	s.tracer = tr
	if tr == nil {
		s.traced = nil
		s.nodeSpans = nil
		return
	}
	s.traced = make(map[int]*jobSpans)
	s.nodeSpans = make([]*tracing.Span, len(s.nodes))
	for _, n := range s.nodes {
		s.nodeSpans[n.id] = tr.Start(tracing.KindNode, power.PhaseName(0), nil,
			tracing.Attrs{Job: -1, Node: s.gid(n)})
	}
}

// topTenants names the most-queued applications, busiest first (name
// ascending on ties), at most max. The flight recorder's triggers use
// it to name the tenants behind a hot shard.
func (s *shard) topTenants(max int) []string {
	counts := make(map[string]int)
	for _, j := range s.queue.Jobs() {
		counts[j.Obs.App.Name]++
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > max {
		names = names[:max]
	}
	return names
}

// rollOccupancy closes a node's current occupancy span and opens the
// next one — called whenever the resident set changes (after the
// closing interval's energy has been accrued). The nil branch must
// stay small enough to inline (see Histogram.Observe): with tracing
// off the call compiles down to a compare-and-return (sub-ns,
// BenchmarkDisabledOccupancyRoll, guarded in CI).
func (s *shard) rollOccupancy(n *onlineNode) {
	if s.tracer == nil {
		return
	}
	s.rollOccupancySlow(n)
}

func (s *shard) rollOccupancySlow(n *onlineNode) {
	now := s.ev.now
	s.nodeSpans[n.id].FinishAt(now)
	var names []string
	for _, r := range n.residents {
		names = append(names, r.job.Obs.App.Name)
	}
	s.nodeSpans[n.id] = s.tracer.Start(tracing.KindNode, power.PhaseName(len(n.residents)), nil,
		tracing.Attrs{Job: -1, Node: s.gid(n), Detail: strings.Join(names, "+")})
}

// sampleDepth records the queue depth at the current sim-time. Like
// rollOccupancy, the disabled path is a single inlined branch
// (BenchmarkDisabledDepthSample) — dispatch calls this per placement,
// so an uninstrumented run must not even read the engine clock.
func (s *shard) sampleDepth() {
	if s.met == nil {
		return
	}
	s.sampleDepthSlow()
}

func (s *shard) sampleDepthSlow() {
	s.met.depth.Sample(s.ev.now, float64(s.queue.Len()))
}

// CompletedJob records one finished job for reporting.
type CompletedJob struct {
	ID        int
	App       string
	Class     workloads.Class
	SizeGB    float64
	Submitted float64
	Started   float64
	Finished  float64
	Node      int
	Cfg       mapreduce.Config
}

type onlineJob struct {
	job     *Job
	cfg     mapreduce.Config
	rem     float64 // fraction of work remaining
	started float64
}

type onlineNode struct {
	id        int
	residents []*onlineJob

	// sh is the owning shard, whose nodeComplete fires this node's
	// completion; hi indexes the node's pending completion in the
	// control plane's heap (-1 = none).
	sh *shard
	hi int

	// watts caches the node's steady-state draw for the current
	// resident set. It is refreshed at every reschedule (the one place
	// the resident set or its configurations change hands) and reset to
	// the idle draw when the node empties, so the accrual path reads it
	// instead of re-solving the execution model per node per event.
	watts float64

	// rates is the reusable progress-rate buffer the completion path
	// reads; evDT and evFinisher carry the pending completion's elapsed
	// interval and predicted finisher. Every reschedule refills all
	// three and moves or clears the node's one heap entry, so a firing
	// completion always reads the values its own reschedule wrote.
	rates      []float64
	evDT       float64
	evFinisher *onlineJob

	// accWatts/accPhase are the contribution this node currently makes
	// to the scheduler's phaseWatts sums under fast accrual: the watts
	// last folded in and the phase bucket they went into. reschedule
	// subtracts the old contribution and adds the new one; every
	// resident-set or configuration mutation is followed by a
	// reschedule before the next accrual, so the sums are always
	// consistent with the per-node caches at integration time.
	accWatts float64
	accPhase int8
}

// newShard builds a shard over `nodes` single-node lanes whose
// cluster-global ids start at base, scheduling its nodes' completions
// on ev (the control plane's one heap).
func newShard(ev *eventQueue, model *mapreduce.Model, db *Database, tuner STP, nodes, base int) *shard {
	s := &shard{
		ev:         ev,
		Model:      model,
		DB:         db,
		Tuner:      tuner,
		queue:      NewWaitQueue(),
		base:       base,
		steadyMemo: make(map[steadyKey]steadyVal),
	}
	// The idle draw is the same expression Model.Steady evaluates for an
	// empty spec set, so cached node watts stay bit-identical to a fresh
	// per-accrual recompute.
	s.idleWatts = model.IdlePower()
	s.eval = model.NewEvaluator()
	s.freeSet = newNodeSet(nodes)
	s.halfSet = newNodeSet(nodes)
	for i := 0; i < nodes; i++ {
		n := &onlineNode{id: i, watts: s.idleWatts, sh: s, hi: -1}
		s.nodes = append(s.nodes, n)
		s.freeSet.set(i, true)
	}
	s.freeCnt = nodes
	return s
}

// gid maps a node's dense internal index to its cluster-global id.
func (s *shard) gid(n *onlineNode) int { return s.base + n.id }

// setFastAccrual enables the O(1) aggregate energy-accrual path (see
// the fastAcc field). It only takes effect while no tracer and no
// audit log are attached — per-node and per-job energy attribution
// need the per-node walk. Call before the first submit.
func (s *shard) setFastAccrual(v bool) {
	s.fastAcc = v
	if !v {
		return
	}
	// Seed the phase sums from the current (all-idle) node caches.
	s.phaseWatts = [3]float64{}
	for _, n := range s.nodes {
		n.accWatts = n.watts
		n.accPhase = nodePhase(len(n.residents))
		s.phaseWatts[n.accPhase] += n.accWatts
	}
}

// nodePhase buckets a resident count into the phase accumulator's
// categories: 0 idle, 1 solo, 2 co-located.
func nodePhase(residents int) int8 {
	if residents > 2 {
		residents = 2
	}
	return int8(residents)
}

// steadyKey is a full node's solver input in one word (DESIGN.md §26):
// per resident, in resident order (order matters — the returned states
// are positional), 32 bits holding the router's spec id for its
// (app, size) (profileRec.spec, 1..2^24−1) above its configuration's
// index on the paper's 4 × 5 × 8 grid. The first resident fills the
// high half. A one-resident key leaves the low half zero, which no
// resident's half equals, as spec ids start at 1. Equal halves mean
// equal RunSpecs (DESIGN.md §25).
type steadyKey = uint64

// steadyTimes is the part of one resident's SteadyState reschedule
// reads.
type steadyTimes struct {
	job, mapT, reduce float64
}

// steadyVal is one cached solve.
type steadyVal struct {
	res   [2]steadyTimes
	watts float64
}

// Grid axes of the steady key's configuration index. A mapper count
// past gridMappers is off the grid.
var (
	gridFreqs  = cluster.Frequencies()
	gridBlocks = hdfs.BlockSizes()
)

const gridMappers = 8

// gridIndex is c's index on the paper's configuration grid, and false
// when c is off it.
func gridIndex(c mapreduce.Config) (uint64, bool) {
	if c.Mappers < 1 || c.Mappers > gridMappers {
		return 0, false
	}
	fi := slices.Index(gridFreqs, c.Freq)
	bi := slices.Index(gridBlocks, c.Block)
	if fi < 0 || bi < 0 {
		return 0, false
	}
	return uint64((fi*len(gridBlocks)+bi)*gridMappers + c.Mappers - 1), true
}

// steadyHalf is one resident's half of a steady key, and false when the
// resident does not fit one: a spec id of 2^24 or more, or a
// configuration off the grid.
func steadyHalf(r *onlineJob) (uint64, bool) {
	spec := uint64(r.job.rec.spec)
	g, ok := gridIndex(r.cfg)
	return spec<<8 | g, ok && spec < 1<<24
}

// steadyKeyOf builds the memo key for a 1- or 2-resident node straight
// from its residents, so a memo hit never builds the spec list. ok is
// false when the set does not fit a key.
func steadyKeyOf(res []*onlineJob) (k steadyKey, ok bool) {
	k, ok = steadyHalf(res[0])
	k <<= 32
	if len(res) == 2 {
		b, okB := steadyHalf(res[1])
		k, ok = k|b, ok && okB
	}
	return k, ok
}

// steady returns the steady-state solve for n's resident set (one or
// two residents), from the memo when the set was solved before. A set
// that does not fit a key is solved every time.
func (s *shard) steady(n *onlineNode) (steadyVal, error) {
	k, fits := steadyKeyOf(n.residents)
	if fits {
		if v, ok := s.steadyMemo[k]; ok {
			return v, nil
		}
	}
	out, w, err := s.eval.Steady(s.specsInto(n))
	if err != nil {
		return steadyVal{}, err
	}
	v := steadyVal{watts: w}
	for i, st := range out {
		v.res[i] = steadyTimes{st.JobTime, st.MapTime, st.ReduceTime}
	}
	if !fits {
		return v, nil
	}
	if len(s.steadyMemo) >= steadyMemoCap {
		clear(s.steadyMemo)
	}
	s.steadyMemo[k] = v
	return v, nil
}

// steadyMemoCap bounds the steady memo.
const steadyMemoCap = 4096

// arrive is the in-event half of submission: classify, queue, record,
// dispatch. The observation's SizeGB doubles as the nominal size
// (Observe preserves the requested size exactly).
func (s *shard) arrive(id int, rec *profileRec, at float64) {
	var j *Job
	if k := len(s.jobPool); k > 0 {
		j = s.jobPool[k-1]
		s.jobPool[k-1] = nil
		s.jobPool = s.jobPool[:k-1]
	} else {
		j = new(Job)
	}
	*j = Job{
		ID:      id,
		Obs:     rec.obs,
		Class:   s.classOf(rec),
		EstTime: rec.obs.SizeGB,
		Arrived: at,
		rec:     rec,
	}
	app, sizeGB := &j.Obs.App, j.Obs.SizeGB
	s.queue.Push(j)
	// app.Class is ground truth the prediction path never sees;
	// recording it next to the Classify verdict is what makes the
	// confusion matrix possible.
	s.aud.Submit(id, app.Name, sizeGB, app.Class.String(), j.Class.String(), at)
	if s.met != nil {
		s.met.submitted.Inc()
		s.met.reg.Emit(metrics.Event{
			At: at, Kind: metrics.EvSubmit, Job: id, Node: -1,
			Detail: fmt.Sprintf("%s@%gG class=%s", app.Name, sizeGB, j.Class),
		})
		s.sampleDepth()
	}
	if s.tracer != nil {
		attrs := tracing.Attrs{
			Job: id, Node: -1,
			App: app.Name, Class: j.Class.String(), SizeGB: sizeGB,
		}
		js := &jobSpans{}
		js.job = s.tracer.Start(tracing.KindJob, "job "+app.Name, nil, attrs)
		js.wait = s.tracer.Start(tracing.KindWait, "wait", js.job, attrs)
		s.traced[id] = js
	}
	s.dispatch()
}

// finishRun closes out a drained run at the engine's current clock:
// the last accrual interval is integrated and open occupancy spans are
// finished. Every shard shares the control plane's engine, whose clock
// stops at the global makespan, so every shard bills its idle tail up
// to the same end time.
func (s *shard) finishRun() {
	s.accrueEnergy() // close the last interval
	if s.tracer != nil {
		now := s.ev.now
		for _, sp := range s.nodeSpans {
			sp.FinishAt(now)
		}
	}
}

// freeSlots reports how many more residents dispatch could place right
// now: an empty node absorbs up to two queued jobs (head claim, then a
// partner), a half-busy node one. The work-stealing pass uses it to
// bound a starved shard's claim budget.
func (s *shard) freeSlots() int { return 2*s.freeCnt + s.halfCnt }

// releaseHead removes the wait queue's head for migration to shard
// `to` at barrier time `at` (the engine clock reads at). The victim
// records a steal_out span carrying the steal's link id, closes the
// job's open spans, and forgets it — the audit record stays
// submit-only, documenting where the job first landed — while the
// thief re-registers it under the same global id. Returns nil when the
// queue is empty.
func (s *shard) releaseHead(at float64, to, link int) *Job {
	j := s.queue.PopHead()
	if j == nil {
		return nil
	}
	s.pending--
	if s.met != nil {
		s.met.stealOut().Inc()
		s.sampleDepth()
	}
	if s.tracer != nil {
		if js := s.traced[j.ID]; js != nil {
			if link > 0 {
				s.tracer.Record(tracing.KindStealOut, "steal_out", js.job, at, at, tracing.Attrs{
					Job: j.ID, Node: -1,
					App: j.Obs.App.Name, Class: j.Class.String(), SizeGB: j.Obs.SizeGB,
					Detail: fmt.Sprintf("to=shard%d", to), Link: link,
				})
			}
			js.wait.FinishAt(at)
			js.job.FinishAt(at)
			delete(s.traced, j.ID)
		}
	}
	return j
}

// acceptStolen registers a job claimed from neighbor shard `from` at
// barrier time `at` (the engine clock reads at). The job keeps its
// global id, observation, class, and original arrival time —
// wait-latency metrics still measure from first submission — and opens
// fresh spans (plus a steal_in span linked to the victim's steal_out
// through `link`) and a fresh audit record in this shard's exports.
// The caller dispatches after the claim batch.
func (s *shard) acceptStolen(j *Job, from int, at float64, link int) {
	s.pending++
	s.queue.Push(j)
	s.aud.Submit(j.ID, j.Obs.App.Name, j.Obs.SizeGB, j.Obs.App.Class.String(), j.Class.String(), j.Arrived)
	if s.met != nil {
		s.met.stealIn().Inc()
		s.met.reg.Emit(metrics.Event{
			At: at, Kind: metrics.EvSteal, Job: j.ID, Node: -1,
			Detail: fmt.Sprintf("from=shard%d arrived=%g", from, j.Arrived),
		})
		s.sampleDepth()
	}
	if s.tracer != nil {
		attrs := tracing.Attrs{
			Job: j.ID, Node: -1,
			App: j.Obs.App.Name, Class: j.Class.String(), SizeGB: j.Obs.SizeGB,
		}
		js := &jobSpans{}
		js.job = s.tracer.Start(tracing.KindJob, "job "+j.Obs.App.Name, nil, attrs)
		js.wait = s.tracer.Start(tracing.KindWait, "wait", js.job, attrs)
		s.traced[j.ID] = js
		if link > 0 {
			inAttrs := attrs
			inAttrs.Detail = fmt.Sprintf("from=shard%d", from)
			inAttrs.Link = link
			s.tracer.Record(tracing.KindStealIn, "steal_in", js.job, at, at, inAttrs)
		}
	}
}

// accrueEnergy integrates cluster power since the last update.
//
// The per-node watts are read from the cache reschedule maintains, so
// the loop is a handful of float adds per node — no execution-model
// solves and no allocations (asserted by TestAccrueEnergyZeroAlloc
// with tracing, audit, and metrics all attached). The summation keeps
// the reference per-node order (node id ascending, one phases.Add and
// one share division per node), so the accumulated energy, phase
// split, and every span/audit attribution are bit-identical to
// recomputing Steady per node (testdata/ws4_online.golden) — a running
// cluster-sum updated at invalidation points would drift in the last
// ulp.
func (s *shard) accrueEnergy() {
	now := s.ev.now
	dt := now - s.lastUpdate
	if dt <= 0 {
		return
	}
	if s.fastAcc && s.tracer == nil && s.aud == nil {
		// O(1) aggregate path: integrate the phase sums reschedule
		// maintains instead of walking the node array. At 16k nodes the
		// per-node walk is the dominant cost of every event.
		s.phases.IdleJ += s.phaseWatts[0] * dt
		s.phases.SoloJ += s.phaseWatts[1] * dt
		s.phases.CoJ += s.phaseWatts[2] * dt
		s.energyJ += (s.phaseWatts[0] + s.phaseWatts[1] + s.phaseWatts[2]) * dt
		s.lastUpdate = now
		if s.met != nil {
			s.met.energyIdle.Set(s.phases.IdleJ)
			s.met.energySolo.Set(s.phases.SoloJ)
			s.met.energyPaired.Set(s.phases.CoJ)
		}
		return
	}
	var watts float64
	for _, n := range s.nodes {
		w := n.watts
		watts += w
		s.phases.Add(len(n.residents), w*dt)
		if s.tracer != nil {
			// Attribute the node's joules to its occupancy span in full,
			// so node spans re-integrate to the cluster bill.
			s.nodeSpans[n.id].AddEnergy(w * dt)
		}
		if (s.tracer != nil || s.aud != nil) && len(n.residents) > 0 {
			// Equal shares to the resident jobs — run spans carry the
			// solo+co-located share of the bill, and the audit log uses
			// the *same* division, so its realized join is bit-identical
			// to tracing's JobReport.EnergyJ.
			share := w * dt / float64(len(n.residents))
			for _, r := range n.residents {
				if s.tracer != nil {
					if js := s.traced[r.job.ID]; js != nil {
						js.run.AddEnergy(share)
					}
				}
				s.aud.AddEnergy(r.job.ID, share)
			}
		}
	}
	s.energyJ += watts * dt
	s.lastUpdate = now
	if s.met != nil {
		s.met.energyIdle.Set(s.phases.IdleJ)
		s.met.energySolo.Set(s.phases.SoloJ)
		s.met.energyPaired.Set(s.phases.CoJ)
	}
}

// specsInto builds the node's resident RunSpecs in the scheduler's
// reusable scratch buffer: the event loop is single-threaded and the
// solver only reads the slice, so the reschedule path builds every
// resident-spec list in place instead of allocating one per call.
func (s *shard) specsInto(n *onlineNode) []mapreduce.RunSpec {
	out := s.scratch[:0]
	for _, r := range n.residents {
		out = append(out, mapreduce.RunSpec{
			App:    r.job.Obs.App,
			DataMB: r.job.Obs.SizeGB * 1024,
			Cfg:    r.cfg,
		})
	}
	s.scratch = out
	return out
}

// refreshPhaseWatts folds a node's freshly-cached draw into the fast
// accrual's phase sums, retiring its previous contribution. Called
// from reschedule only — the single point where n.watts changes.
func (s *shard) refreshPhaseWatts(n *onlineNode) {
	if !s.fastAcc {
		return
	}
	s.phaseWatts[n.accPhase] -= n.accWatts
	n.accPhase = nodePhase(len(n.residents))
	n.accWatts = n.watts
	s.phaseWatts[n.accPhase] += n.accWatts
}

// occupancyChanged refreshes the dispatch indexes (and their mirror
// counts) after a node's resident count changed (a placement or a
// completion).
func (s *shard) occupancyChanged(n *onlineNode) {
	free := len(n.residents) == 0
	half := len(n.residents) == 1
	if s.freeSet.has(n.id) != free {
		if free {
			s.freeCnt++
		} else {
			s.freeCnt--
		}
		s.freeSet.set(n.id, free)
	}
	if s.halfSet.has(n.id) != half {
		if half {
			s.halfCnt++
		} else {
			s.halfCnt--
		}
		s.halfSet.set(n.id, half)
	}
}

// dispatch places queued jobs: empty slots are filled head-first; a node
// with one resident gets a partner chosen by the decision tree.
func (s *shard) dispatch() {
	for s.queue.Len() > 0 {
		// Prefer pairing onto a half-busy node, then an empty node. The
		// indexes hand back the lowest node id, which is exactly the
		// node an in-order scan would stop at.
		var target *onlineNode
		if id, ok := s.halfSet.min(); ok {
			target = s.nodes[id]
		} else if id, ok := s.freeSet.min(); ok {
			target = s.nodes[id]
		}
		if target == nil {
			return // cluster full
		}
		var j *Job
		branch := audit.BranchReserve
		leapOver := -1
		if len(target.residents) == 1 {
			running := target.residents[0].job.Class
			head := s.queue.Head()
			j = s.queue.SelectPartner(running, s.DB.PartnerPriority(running))
			if j != nil {
				taken, err := s.queue.Take(j.ID)
				if err != nil {
					panic(err)
				}
				j = taken
				branch = audit.BranchPairHead
				if head != nil && j.ID != head.ID {
					branch = audit.BranchPairLeap
					leapOver = head.ID
				}
				if s.met != nil {
					now := s.ev.now
					s.met.pairs.Inc()
					s.met.reg.Counter("sched.pair." + running.String() + "+" + j.Class.String()).Inc()
					s.met.reg.Emit(metrics.Event{
						At: now, Kind: metrics.EvPair, Job: j.ID, Node: s.gid(target),
						Detail: fmt.Sprintf("partner=%s running=%s", j.Class, running),
					})
					if branch == audit.BranchPairLeap {
						s.met.leaps.Inc()
						s.met.reg.Emit(metrics.Event{
							At: now, Kind: metrics.EvLeap, Job: j.ID, Node: s.gid(target),
							Detail: fmt.Sprintf("over=%d", leapOver),
						})
					}
				}
			}
		} else {
			j = s.queue.PopHead()
			if j != nil && s.met != nil {
				s.met.reserves.Inc()
				s.met.reg.Emit(metrics.Event{
					At: s.ev.now, Kind: metrics.EvReserve, Job: j.ID, Node: s.gid(target),
					Detail: "head claims fresh slot",
				})
			}
		}
		if j == nil {
			return
		}
		s.sampleDepth()
		s.place(target, j, branch, leapOver)
	}
}

// place starts a job on a node and retunes the node's residents:
// "after pairing, ECoST fine-tunes the architectural, system, and
// application level parameters of the paired applications concurrently"
// (§5). The resident application's frequency and mapper slots are
// re-tuned live; its HDFS block size stays as loaded (data layout is
// fixed once written).
func (s *shard) place(n *onlineNode, j *Job, branch audit.Branch, leapOver int) {
	s.accrueEnergy()
	cfg, ti := s.tuneFor(n, j)
	now := s.ev.now
	if s.met != nil {
		s.met.waitFor(j.Class).Observe(now - j.Arrived)
	}
	var partner *onlineJob
	if len(n.residents) == 1 {
		partner = n.residents[0]
	}
	if s.aud != nil {
		s.aud.Place(j.ID, s.gid(n), now, branch, leapOver)
		s.aud.Tune(j.ID, s.Tuner.Name(), cfg.String(), ti.path, ti.exp)
		if partner != nil {
			var pred audit.Expectation
			if ti.path == audit.TunePair {
				// The pair forecast only holds when the pair tuning was
				// actually applied; a solo fallback leaves it zero (no
				// join, no drift sample).
				pred = ti.exp
				s.aud.Retune(partner.job.ID, partner.cfg.String())
			}
			s.aud.Paired(partner.job.ID, j.ID, s.gid(n), now, branch, pred)
		}
	}
	var oj *onlineJob
	if k := len(s.ojPool); k > 0 {
		oj = s.ojPool[k-1]
		s.ojPool[k-1] = nil
		s.ojPool = s.ojPool[:k-1]
	} else {
		oj = new(onlineJob)
	}
	*oj = onlineJob{job: j, cfg: cfg, rem: 1, started: now}
	n.residents = append(n.residents, oj)
	s.occupancyChanged(n)
	if s.tracer != nil {
		js := s.traced[j.ID]
		js.wait.FinishAt(now)
		attrs := tracing.Attrs{
			Job: j.ID, Node: s.gid(n),
			App: j.Obs.App.Name, Class: j.Class.String(), SizeGB: j.Obs.SizeGB,
			Config: cfg.String(),
		}
		if partner != nil {
			attrs.Partner = partner.job.Obs.App.Name
			// The resident learns its partner too (and its possibly
			// re-tuned configuration).
			if pjs := s.traced[partner.job.ID]; pjs != nil {
				pjs.run.SetPartner(j.Obs.App.Name)
				pjs.run.SetConfig(partner.cfg.String())
			}
		}
		js.run = s.tracer.Start(tracing.KindRun, "run "+j.Obs.App.Name, js.job, attrs)
		s.rollOccupancy(n)
	}
	s.reschedule(n)
}

// tuneInfo carries what the audit log wants to know about a tuning
// decision alongside the chosen configuration.
type tuneInfo struct {
	path audit.TunePath
	exp  audit.Expectation
}

// tuneFor picks the new job's configuration, adjusting the resident's
// frequency and mapper count to the pair-tuned values when co-locating.
// The returned tuneInfo records which path fired and the tuner's own
// outcome forecast (zero when the technique exposes none).
func (s *shard) tuneFor(n *onlineNode, j *Job) (mapreduce.Config, tuneInfo) {
	if len(n.residents) == 1 {
		resident := n.residents[0]
		pairCfg, exp, err := predictExpected(s.Tuner, &resident.job.Obs, &j.Obs)
		if err == nil && pairCfg[0].Mappers+pairCfg[1].Mappers <= s.Model.Spec.Cores {
			resident.cfg.Freq = pairCfg[0].Freq
			resident.cfg.Mappers = pairCfg[0].Mappers
			if s.met != nil {
				s.met.tunePair.Inc()
				s.met.reg.Emit(metrics.Event{
					At: s.ev.now, Kind: metrics.EvTune, Job: j.ID, Node: s.gid(n),
					Detail: fmt.Sprintf("pair cfg=%v resident=%d cfg=%v", pairCfg[1], resident.job.ID, pairCfg[0]),
				})
			}
			if s.tracer != nil { // build the detail string only when traced
				s.traceTune(n, j, pairCfg[1], fmt.Sprintf("pair resident=%d cfg=%v", resident.job.ID, pairCfg[0]))
			}
			return pairCfg[1], tuneInfo{path: audit.TunePair, exp: audit.Expectation(exp)}
		}
	}
	cfg, soloExp, err := PredictSoloBestExpected(s.Tuner, j.Obs, s.DB)
	if err != nil {
		cfg = NTConfig(s.Model.Spec.Cores / maxPerNode)
		soloExp = PairExpectation{}
	}
	free := s.Model.Spec.Cores
	for _, r := range n.residents {
		free -= r.cfg.Mappers
	}
	if cfg.Mappers > free {
		cfg.Mappers = free
	}
	if cfg.Mappers < 1 {
		cfg.Mappers = 1
	}
	if s.met != nil {
		s.met.tuneSolo.Inc()
		s.met.reg.Emit(metrics.Event{
			At: s.ev.now, Kind: metrics.EvTune, Job: j.ID, Node: s.gid(n),
			Detail: fmt.Sprintf("solo cfg=%v", cfg),
		})
	}
	s.traceTune(n, j, cfg, "solo")
	return cfg, tuneInfo{path: audit.TuneSolo, exp: audit.Expectation(soloExp)}
}

// traceTune records the (instantaneous in sim-time) STP tuning decision
// as a zero-duration span under the job.
func (s *shard) traceTune(n *onlineNode, j *Job, cfg mapreduce.Config, detail string) {
	if s.tracer == nil {
		return
	}
	now := s.ev.now
	var parent *tracing.Span
	if js := s.traced[j.ID]; js != nil {
		parent = js.job
	}
	s.tracer.Record(tracing.KindTune, "tune", parent, now, now, tracing.Attrs{
		Job: j.ID, Node: s.gid(n),
		App: j.Obs.App.Name, Class: j.Class.String(),
		Config: cfg.String(), Detail: detail,
	})
}

// traceComplete closes a finished job's spans: the run span ends now,
// the retroactive map and shuffle/reduce sub-spans split the run at the
// model's phase boundary (sharing the run's attributed energy in the
// same proportion), and the node's occupancy span rolls over.
func (s *shard) traceComplete(n *onlineNode, finisher *onlineJob) {
	if s.tracer == nil {
		return
	}
	js := s.traced[finisher.job.ID]
	if js == nil {
		return
	}
	now := s.ev.now
	js.run.FinishAt(now)
	run := js.run.Snapshot()
	attrs := tracing.Attrs{
		Job: finisher.job.ID, Node: s.gid(n),
		App: finisher.job.Obs.App.Name, Class: finisher.job.Class.String(),
	}
	mapEnd := run.Start + js.mapFrac*(now-run.Start)
	s.tracer.Record(tracing.KindMap, "map", js.run, run.Start, mapEnd, attrs).
		SetEnergy(js.mapFrac * run.EnergyJ)
	s.tracer.Record(tracing.KindReduce, "shuffle/reduce", js.run, mapEnd, now, attrs).
		SetEnergy((1 - js.mapFrac) * run.EnergyJ)
	js.job.FinishAt(now)
	delete(s.traced, finisher.job.ID)
	s.rollOccupancy(n)
}

// reschedule recomputes the node's next completion event from the
// current resident set's steady-state rates: it moves the node's heap
// entry to the new time with a fresh seq, or clears it when the node
// has no finisher.
func (s *shard) reschedule(n *onlineNode) {
	if len(n.residents) == 0 {
		s.ev.clear(n)
		n.watts = s.idleWatts
		s.refreshPhaseWatts(n)
		return
	}
	// Dispatch caps a node at maxPerNode (two) residents, so every
	// resident set fits a memo key.
	v, err := s.steady(n)
	if err != nil {
		panic(err)
	}
	sts := v.res[:len(n.residents)]
	// Capture the node's steady-state draw for the incremental accrual
	// path: this is the single point where a node's resident set or
	// configurations take effect, so the cache is fresh at every later
	// accrual (which always runs before the next mutation).
	n.watts = v.watts
	s.refreshPhaseWatts(n)
	if s.tracer != nil {
		// Refresh each resident's map/total split under the current
		// contention — the value in force at completion places the
		// map → shuffle/reduce boundary on the job's span.
		for i, r := range n.residents {
			if js := s.traced[r.job.ID]; js != nil {
				if tot := sts[i].mapT + sts[i].reduce; tot > 0 {
					js.mapFrac = sts[i].mapT / tot
				}
			}
		}
	}
	// Next finisher under current contention.
	next := -1
	nextDT := math.Inf(1)
	for i, r := range n.residents {
		dt := r.rem * sts[i].job
		if dt < nextDT {
			next, nextDT = i, dt
		}
	}
	if next < 0 {
		s.ev.clear(n)
		return
	}
	// Record progress rates to advance remaining fractions at the event.
	if cap(n.rates) < len(n.residents) {
		n.rates = make([]float64, len(n.residents))
	}
	rates := n.rates[:len(n.residents)]
	for i := range n.residents {
		rates[i] = 1 / sts[i].job
	}
	n.evDT = nextDT
	n.evFinisher = n.residents[next]
	s.ev.set(n, s.ev.now+nextDT)
}

// nodeComplete is the node's completion event: advance every resident's
// remaining fraction by the elapsed interval's progress rates, retire
// the finisher, and refill the node. It reads the reschedule-maintained
// n.evDT / n.evFinisher / n.rates, and its closing reschedule moves or
// clears the node's heap entry.
func (s *shard) nodeComplete(n *onlineNode) {
	nextDT := n.evDT
	finisher := n.evFinisher
	rates := n.rates[:len(n.residents)]
	s.accrueEnergy()
	for i, r := range n.residents {
		r.rem -= nextDT * rates[i]
		if r.rem < 0 {
			r.rem = 0
		}
	}
	// Remove the finisher.
	for i, r := range n.residents {
		if r == finisher {
			n.residents = append(n.residents[:i], n.residents[i+1:]...)
			break
		}
	}
	s.occupancyChanged(n)
	s.pending--
	*s.completions = append(*s.completions, CompletedJob{
		ID:        finisher.job.ID,
		App:       finisher.job.Obs.App.Name,
		Class:     finisher.job.Class,
		SizeGB:    finisher.job.Obs.SizeGB,
		Submitted: finisher.job.Arrived,
		Started:   finisher.started,
		Finished:  s.ev.now,
		Node:      s.gid(n),
		Cfg:       finisher.cfg,
	})
	if s.met != nil {
		now := s.ev.now
		s.met.completed.Inc()
		s.met.turnaround.Observe(now - finisher.job.Arrived)
		s.met.reg.Emit(metrics.Event{
			At: now, Kind: metrics.EvComplete, Job: finisher.job.ID, Node: s.gid(n),
			Detail: fmt.Sprintf("%s class=%s", finisher.job.Obs.App.Name, finisher.job.Class),
		})
	}
	if s.aud != nil {
		now := s.ev.now
		joins, alerts := s.aud.Complete(finisher.job.ID, now)
		if s.fl != nil {
			for _, jn := range joins {
				s.fl.Join(jn.RelErrPct)
			}
			for _, a := range alerts {
				tenant := finisher.job.Obs.App.Name + ":" + finisher.job.Class.String()
				s.fl.Drift(finisher.job.ID, tenant, a.Stat)
			}
		}
		if s.met != nil {
			for _, jn := range joins {
				s.met.relErrFor(jn.Class).Observe(jn.RelErrPct)
			}
			for _, a := range alerts {
				s.met.driftAlerts.Inc()
				s.met.driftAlert.Set(1)
				s.met.reg.Emit(metrics.Event{
					At: now, Kind: metrics.EvDrift, Job: finisher.job.ID, Node: s.gid(n),
					Detail: fmt.Sprintf("cusum stat=%.1f mean=%.1f%% sample=%d", a.Stat, a.Mean, a.Sample),
				})
			}
		}
	}
	s.traceComplete(n, finisher)
	// The finisher and its job are unreachable now — every export above
	// copied what it needed — so both records go back to the pools.
	n.evFinisher = nil
	s.jobPool = append(s.jobPool, finisher.job)
	*finisher = onlineJob{}
	s.ojPool = append(s.ojPool, finisher)
	s.reschedule(n)
	s.dispatch()
}
