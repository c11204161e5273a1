package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"ecost/internal/audit"
	"ecost/internal/flight"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/perfctr"
	"ecost/internal/power"
	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// OnlineScheduler is the event-driven form of ECoST (Figure 4): jobs
// arrive over time, are profiled and classified, wait in the FIFO queue
// with head reservation, and are co-located onto nodes by the pairing
// decision tree with STP-tuned configurations. Job progress follows the
// execution model's fluid contention solver, recomputed whenever a
// node's resident set changes.
type OnlineScheduler struct {
	Engine   *sim.Engine
	Model    *mapreduce.Model
	DB       *Database
	Tuner    STP
	Profiler *Profiler

	// MaxPerNode caps co-located jobs per node (the paper fixes 2).
	MaxPerNode int

	queue *WaitQueue
	nodes []*onlineNode

	// naive selects the legacy reference paths (O(nodes) power
	// recompute per accrual, linear dispatch and partner scans) kept
	// for equivalence testing and baseline benchmarks; see SetNaive.
	naive bool

	// base offsets node ids in every export (metrics events, span
	// attributes, audit rows, CompletedJob.Node) so a shard owning
	// nodes [base, base+len) reports cluster-global ids while its
	// internal indexes stay dense. Zero for the unsharded scheduler.
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
	// audit off, not naive); see SetFastAccrual.
	fastAcc    bool
	phaseWatts [3]float64

	// steadyMemo caches steady-state contention solves by the exact
	// model inputs (per-resident app name, data size, configuration, in
	// resident order). Steady is a pure function of those inputs, so a
	// hit returns bit-identical times and watts — the cache is
	// transparent to every golden — while recurring tenant pairs skip
	// the fluid solver entirely. Nil when disabled; see SetSteadyMemo.
	steadyMemo map[steadyKey]steadyVal

	// freeCnt / halfCnt mirror the dispatch bitmaps' populations so
	// FreeSlots — called per shard at every steal barrier — is O(1)
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

	nextID    int
	pending   int
	completed []CompletedJob

	// energy accounting
	energyJ    float64
	lastUpdate float64
	phases     power.PhaseAccumulator

	// met holds the pre-resolved metric handles (nil = observability
	// off; see SetMetrics).
	met *schedMetrics

	// tracer records lifecycle and occupancy spans (nil = tracing off;
	// see SetTracer). traced maps in-flight job IDs to their open
	// spans; nodeSpans holds each node's current occupancy span.
	tracer    *tracing.Tracer
	traced    map[int]*jobSpans
	nodeSpans []*tracing.Span

	// aud records every decision joined with its realized outcome
	// (nil = auditing off; see SetAudit).
	aud *audit.Log

	// fl is this shard's flight-recorder collector (nil = flight
	// recording off; see SetFlight). Forecast joins and drift alerts
	// accumulate here until the control plane drains them at the next
	// barrier.
	fl *flight.Collector

	// arrQ is the pending-arrival ring SubmitObserved fills: instead of
	// one closure + one engine event per submission, the scheduler keeps
	// a single in-flight head event (arrFire) that batch-drains every
	// arrival sharing its timestamp and then re-arms itself at the next
	// arrival time. arrHead indexes the first undelivered entry. The
	// ring keeps shard event heaps shallow — a 200k-job stream holds one
	// pending arrival event instead of 12.5k per shard.
	arrQ    []pendingArrival
	arrHead int
	arrFire func()

	// classMemo caches Classify verdicts by feature vector. Classify is
	// a pure function of Observation.Reduced() — KNN against a fixed
	// training set — so a hit is bit-identical to a fresh call while
	// recurring tenants (identical memoized observations under the
	// sharded router's ProfileMemo) skip the KNN distance scan. It is
	// keyed the way MemoSTP is: by the vector's fingerprint, with a hit
	// requiring the stored vector to equal the queried one, so a
	// colliding vector misses, reclassifies and overwrites the entry.
	// Under churn every vector is new and every lookup misses; the
	// fingerprint keeps that miss to one word-by-word hash. Nil when
	// disabled; see SetClassMemo.
	classMemo map[uint64]classEntry

	// jobPool / ojPool recycle Job and onlineJob records: both become
	// unreachable at completion (CompletedJob copies every exported
	// field; spans, audit rows, and metrics hold ids and strings, never
	// the pointers), so the completion path returns them here and
	// arrive/place reuse them. A stolen job's pointer migrates with it
	// and retires into the thief's pool.
	jobPool []*Job
	ojPool  []*onlineJob
}

// pendingArrival is one undelivered SubmitObserved entry in the ring.
type pendingArrival struct {
	id  int
	at  float64
	obs Observation
}

// classMemoCap bounds the classify memo; at the cap it clears wholesale
// (same policy as the steady memo: recurring tenants repopulate the hot
// entries immediately).
const classMemoCap = 8192

// SetClassMemo toggles the Classify memo. A hit is bit-identical to
// calling the classifier (Classify is pure), so this is safe under every
// golden; it pays off when observations recur exactly — the sharded
// control plane enables it on every shard, where ProfileMemo makes
// recurring tenants' feature vectors identical. Call before the first
// Submit.
func (s *OnlineScheduler) SetClassMemo(v bool) {
	if v {
		s.classMemo = make(map[uint64]classEntry)
	} else {
		s.classMemo = nil
	}
}

// classEntry is one classify-memo verdict with the vector it answers.
type classEntry struct {
	features perfctr.Vector
	class    workloads.Class
}

// classify returns the behaviour class for obs, through the memo when
// one is attached.
func (s *OnlineScheduler) classify(obs *Observation) workloads.Class {
	if s.classMemo == nil {
		return s.DB.Classifier().Classify(*obs)
	}
	fp := featureFingerprint(&obs.Features)
	e, ok := s.classMemo[fp]
	if ok && e.features == obs.Features {
		return e.class
	}
	c := s.DB.Classifier().Classify(*obs)
	if !ok && len(s.classMemo) >= classMemoCap {
		clear(s.classMemo)
	}
	s.classMemo[fp] = classEntry{features: obs.Features, class: c}
	return c
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
	// runs' snapshots stay byte-identical to the unsharded scheduler's.
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

// SetMetrics attaches an observability registry to the scheduler (and
// its wait queue). Call before the first Submit; pass nil to disable.
// The execution model is deliberately left alone — attach a registry to
// Model.Metrics separately if steady-state telemetry is wanted (the
// model may be shared with uninstrumented components).
func (s *OnlineScheduler) SetMetrics(reg *metrics.Registry) {
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

// SetAudit attaches a decision-audit log to the scheduler. Call before
// the first Submit; pass nil to disable. When a metrics registry is
// also attached, joins and drift alarms are mirrored into it
// (per-class audit.rel_err_pct histograms, the stp.drift_alert gauge,
// the audit.drift_alerts counter, and EvDrift events).
func (s *OnlineScheduler) SetAudit(l *audit.Log) {
	s.aud = l
	s.auditMetrics()
}

// auditMetrics pre-registers the audit mirror instruments once both an
// audit log and a registry are attached (either attachment order), so
// the drift gauge is visible at 0 on healthy runs.
func (s *OnlineScheduler) auditMetrics() {
	if s.aud == nil || s.met == nil {
		return
	}
	s.met.driftAlert = s.met.reg.Gauge("stp.drift_alert")
	s.met.driftAlerts = s.met.reg.Counter("audit.drift_alerts")
}

// SetTracer attaches a span tracer to the scheduler. Call before the
// first Submit; pass nil to disable. The tracer's clock must be the
// scheduler's engine (tracing.New(engine.Clock())) or span timestamps
// will not line up with the event log.
func (s *OnlineScheduler) SetTracer(tr *tracing.Tracer) {
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

// SetFlight attaches this shard's flight-recorder collector (nil =
// off). The completion path feeds it audit joins and drift alerts;
// the sharded control plane drains it at every barrier. Only the
// owning shard's goroutine writes it between barriers.
func (s *OnlineScheduler) SetFlight(c *flight.Collector) { s.fl = c }

// Nodes reports this scheduler's node count.
func (s *OnlineScheduler) Nodes() int { return len(s.nodes) }

// TopTenants names the most-queued applications, busiest first (name
// ascending on ties), at most max. The flight recorder's triggers use
// it to name the tenants behind a hot shard.
func (s *OnlineScheduler) TopTenants(max int) []string {
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

// Tracer returns the attached span tracer (nil when tracing is off).
func (s *OnlineScheduler) Tracer() *tracing.Tracer { return s.tracer }

// Audit returns the attached decision-audit log (nil when off).
func (s *OnlineScheduler) Audit() *audit.Log { return s.aud }

// rollOccupancy closes a node's current occupancy span and opens the
// next one — called whenever the resident set changes (after the
// closing interval's energy has been accrued). The nil branch must
// stay small enough to inline (see Histogram.Observe): with tracing
// off the call compiles down to a compare-and-return (sub-ns,
// BenchmarkDisabledOccupancyRoll, guarded in CI).
func (s *OnlineScheduler) rollOccupancy(n *onlineNode) {
	if s.tracer == nil {
		return
	}
	s.rollOccupancySlow(n)
}

func (s *OnlineScheduler) rollOccupancySlow(n *onlineNode) {
	now := s.Engine.Now()
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
func (s *OnlineScheduler) sampleDepth() {
	if s.met == nil {
		return
	}
	s.sampleDepthSlow()
}

func (s *OnlineScheduler) sampleDepthSlow() {
	s.met.depth.Sample(s.Engine.Now(), float64(s.queue.Len()))
}

// Phases returns the energy split by node-occupancy phase accrued so
// far (idle / solo / co-located).
func (s *OnlineScheduler) Phases() power.PhaseAccumulator { return s.phases }

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
	event     *sim.Event // next completion event

	// watts caches the node's steady-state draw for the current
	// resident set. It is refreshed at every reschedule (the one place
	// the resident set or its configurations change hands) and reset to
	// the idle draw when the node empties, so the accrual path reads it
	// instead of re-solving the execution model per node per event.
	watts float64

	// rates is the reusable progress-rate buffer the completion path
	// reads: a cancelled event never fires and a live event is always
	// cancelled before the next reschedule refills the buffer, so the
	// backing array is never read after being overwritten.
	rates []float64

	// fire is the node's persistent completion callback (built once at
	// construction); evDT and evFinisher carry the pending event's
	// elapsed interval and predicted finisher, refreshed by every
	// reschedule under the same cancel-before-refill discipline as
	// rates. Together they replace a fresh closure allocation per
	// completion event.
	fire       func()
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

// NewOnlineScheduler builds a scheduler over `nodes` single-node lanes.
func NewOnlineScheduler(eng *sim.Engine, model *mapreduce.Model, db *Database, tuner STP, prof *Profiler, nodes int) (*OnlineScheduler, error) {
	if eng == nil || model == nil || db == nil || tuner == nil || prof == nil {
		return nil, fmt.Errorf("core: online scheduler: nil dependency")
	}
	if nodes < 1 {
		return nil, fmt.Errorf("core: online scheduler: need at least one node")
	}
	s := &OnlineScheduler{
		Engine:     eng,
		Model:      model,
		DB:         db,
		Tuner:      tuner,
		Profiler:   prof,
		MaxPerNode: 2,
		queue:      NewWaitQueue(),
	}
	// The idle draw is the same expression Model.Steady evaluates for an
	// empty spec set, so cached node watts stay bit-identical to a fresh
	// per-accrual recompute.
	s.idleWatts = model.IdlePower()
	s.eval = model.NewEvaluator()
	s.freeSet = newNodeSet(nodes)
	s.halfSet = newNodeSet(nodes)
	for i := 0; i < nodes; i++ {
		n := &onlineNode{id: i, watts: s.idleWatts}
		n.fire = func() { s.nodeComplete(n) }
		s.nodes = append(s.nodes, n)
		s.freeSet.set(i, true)
	}
	s.freeCnt = nodes
	return s, nil
}

// SetNaive selects the legacy reference implementation: per-accrual
// steady-state recomputes for every node, linear node scans in
// dispatch, and the linear partner scan in the wait queue. The naive
// and indexed paths are bit-identical (golden-tested); the naive one
// exists as the equivalence baseline and for `-ecost.naive` benchmark
// comparisons. Call before the first Submit.
func (s *OnlineScheduler) SetNaive(v bool) { s.naive = v }

// SetNodeBase sets the cluster-global id of this scheduler's first
// node: a shard owning nodes [base, base+n) keeps dense internal
// indexes but exports global ids everywhere an id leaves the scheduler.
// Call before the first Submit (and before SetTracer, so the initial
// occupancy spans carry global ids).
func (s *OnlineScheduler) SetNodeBase(base int) { s.base = base }

// NodeBase returns the cluster-global id of this scheduler's first node.
func (s *OnlineScheduler) NodeBase() int { return s.base }

// gid maps a node's dense internal index to its cluster-global id.
func (s *OnlineScheduler) gid(n *onlineNode) int { return s.base + n.id }

// SetFastAccrual enables the O(1) aggregate energy-accrual path (see
// the fastAcc field). It only takes effect while no tracer and no
// audit log are attached and the scheduler is not in naive mode —
// per-node and per-job energy attribution need the per-node walk.
// Call before the first Submit.
func (s *OnlineScheduler) SetFastAccrual(v bool) {
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

// steadySpecKey identifies one resident's contention-solver inputs.
// Applications are identified by name — unique in the workload
// registry — so equal keys mean equal RunSpecs.
type steadySpecKey struct {
	app    string
	dataMB float64
	cfg    mapreduce.Config
}

// steadyKey is a full node's solver input: up to two residents in
// resident order (order matters — the returned states are positional).
type steadyKey struct {
	a, b steadySpecKey
	n    int8
}

// steadyVal is one cached solve.
type steadyVal struct {
	sts   [2]mapreduce.SteadyState
	watts float64
}

// steadyKeyOf builds the memo key for a 1- or 2-resident spec list.
func steadyKeyOf(specs []mapreduce.RunSpec) steadyKey {
	k := steadyKey{
		a: steadySpecKey{specs[0].App.Name, specs[0].DataMB, specs[0].Cfg},
		n: int8(len(specs)),
	}
	if len(specs) == 2 {
		k.b = steadySpecKey{specs[1].App.Name, specs[1].DataMB, specs[1].Cfg}
	}
	return k
}

// steadyMemoCap bounds the memo; at the cap it clears wholesale (the
// MemoSTP policy: recurring streams re-warm instantly, adversarial key
// churn cannot grow memory).
const steadyMemoCap = 4096

// SetSteadyMemo toggles memoization of per-node steady-state solves.
// A hit is bit-identical to the solve it replaces (Steady is pure in
// its spec list), so the memo composes with every equivalence golden;
// it pays off when tenants recur — the sharded control plane enables
// it on every shard. Nodes holding more than two residents bypass the
// cache.
func (s *OnlineScheduler) SetSteadyMemo(v bool) {
	if v {
		s.steadyMemo = make(map[steadyKey]steadyVal)
	} else {
		s.steadyMemo = nil
	}
}

// Submit schedules a job arrival at the given simulated time.
func (s *OnlineScheduler) Submit(app workloads.App, sizeGB, at float64) {
	id := s.nextID
	s.nextID++
	s.pending++
	s.Engine.At(at, func() {
		obs, err := s.Profiler.Observe(app, sizeGB)
		if err != nil {
			panic(fmt.Sprintf("core: online profile: %v", err)) // model inputs are validated at Submit
		}
		s.arrive(id, obs, at)
	})
}

// SubmitObserved schedules an arrival whose profile was measured by the
// caller — the sharded router profiles serially at submission time (in
// submission order, so the sampler's draw sequence matches the legacy
// in-event profiling for nondecreasing arrival times) and hands each
// shard a ready Observation plus a router-assigned cluster-global job
// id. Submissions must be in nondecreasing time order (the router
// enforces this). Do not mix with Submit on the same scheduler: Submit
// owns the internal id counter.
//
// Arrivals land in the ring, not the event heap: one AtHead event per
// scheduler delivers the ring head, batch-draining everything sharing
// its timestamp in submission order and re-arming at the next arrival
// time. The AtHead priority reproduces the legacy ordering exactly —
// per-job events scheduled before the run always outranked
// runtime-scheduled completions at equal timestamps via their lower
// seq, and the ring's head event must too.
func (s *OnlineScheduler) SubmitObserved(id int, obs Observation, at float64) {
	s.pending++
	if s.arrFire == nil {
		s.arrFire = s.fireArrivals
	}
	s.arrQ = append(s.arrQ, pendingArrival{id: id, at: at, obs: obs})
	if len(s.arrQ)-s.arrHead == 1 {
		s.Engine.AtHead(at, s.arrFire)
	}
}

// fireArrivals delivers every ring entry at the current clock (arrive's
// per-job work — classify, queue, dispatch — runs in submission order,
// exactly the sequence back-to-back per-job events produced), then
// re-arms the head event at the next pending arrival time.
func (s *OnlineScheduler) fireArrivals() {
	now := s.Engine.Now()
	for s.arrHead < len(s.arrQ) && s.arrQ[s.arrHead].at <= now {
		p := s.arrQ[s.arrHead]
		s.arrQ[s.arrHead] = pendingArrival{}
		s.arrHead++
		s.arrive(p.id, p.obs, p.at)
	}
	if s.arrHead < len(s.arrQ) {
		s.Engine.AtHead(s.arrQ[s.arrHead].at, s.arrFire)
	} else {
		s.arrQ = s.arrQ[:0]
		s.arrHead = 0
	}
}

// arrive is the in-event half of submission: classify, queue, record,
// dispatch. obs.SizeGB doubles as the nominal size (Observe preserves
// the requested size exactly).
func (s *OnlineScheduler) arrive(id int, obs Observation, at float64) {
	app, sizeGB := obs.App, obs.SizeGB
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
		Obs:     obs,
		Class:   s.classify(&obs),
		EstTime: sizeGB,
		Arrived: at,
	}
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

// Completed returns the finished jobs sorted by completion time.
func (s *OnlineScheduler) Completed() []CompletedJob {
	out := append([]CompletedJob(nil), s.completed...)
	sort.Slice(out, func(i, j int) bool { return out[i].Finished < out[j].Finished })
	return out
}

// EnergyJ returns the cluster energy integrated so far (all nodes,
// including idle draw).
func (s *OnlineScheduler) EnergyJ() float64 { return s.energyJ }

// QueueLen reports the current wait-queue length.
func (s *OnlineScheduler) QueueLen() int { return s.queue.Len() }

// Run drives the simulation until all submitted jobs complete and
// returns the makespan and total energy.
func (s *OnlineScheduler) Run() (makespan, energyJ float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: online scheduler: %v", r)
		}
	}()
	s.Engine.Run(0)
	if s.pending > 0 {
		return 0, 0, fmt.Errorf("core: online scheduler: %d jobs never completed", s.pending)
	}
	s.finishRun()
	return s.Engine.Now(), s.energyJ, nil
}

// finishRun closes out a drained run at the engine's current clock:
// the last accrual interval is integrated and open occupancy spans are
// finished. The sharded control plane advances every shard to the
// global makespan first, so idle tails are billed exactly as the
// single-scheduler run bills them.
func (s *OnlineScheduler) finishRun() {
	s.accrueEnergy() // close the last interval
	if s.tracer != nil {
		now := s.Engine.Now()
		for _, sp := range s.nodeSpans {
			sp.FinishAt(now)
		}
	}
}

// Pending reports jobs submitted but not yet completed.
func (s *OnlineScheduler) Pending() int { return s.pending }

// FreeSlots reports how many more residents dispatch could place right
// now: an empty node absorbs up to two queued jobs (head claim, then a
// partner), a half-busy node one. The work-stealing pass uses it to
// bound a starved shard's claim budget. Indexed path only — the
// sharded control plane never runs naive.
func (s *OnlineScheduler) FreeSlots() int {
	if s.MaxPerNode < 2 {
		return s.freeCnt
	}
	return 2*s.freeCnt + s.halfCnt
}

// releaseHead removes the wait queue's head for migration to shard
// `to` at barrier time `at` (the engine must already be advanced to
// at). The victim records a steal_out span carrying the steal's link
// id, closes the job's open spans, and forgets it — the audit record
// stays submit-only, documenting where the job first landed — while
// the thief re-registers it under the same global id. Returns nil when
// the queue is empty.
func (s *OnlineScheduler) releaseHead(at float64, to, link int) *Job {
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
// barrier time `at` (the engine must already be advanced to at). The
// job keeps its global id, observation, class, and original arrival
// time — wait-latency metrics still measure from first submission —
// and opens fresh spans (plus a steal_in span linked to the victim's
// steal_out through `link`) and a fresh audit record in this shard's
// exports. The caller dispatches after the claim batch.
func (s *OnlineScheduler) acceptStolen(j *Job, from int, at float64, link int) {
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
// the naive path's exact per-node order (node id ascending, one
// phases.Add and one share division per node), so the accumulated
// energy, phase split, and every span/audit attribution are
// bit-identical to recomputing Steady per node — a running cluster-sum
// updated at invalidation points would drift in the last ulp.
func (s *OnlineScheduler) accrueEnergy() {
	now := s.Engine.Now()
	dt := now - s.lastUpdate
	if dt <= 0 {
		return
	}
	if s.fastAcc && s.tracer == nil && s.aud == nil && !s.naive {
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
		if s.naive {
			// Legacy reference: re-solve the steady state of every node
			// (idle ones included) on every accrual.
			var err error
			_, w, err = s.Model.Steady(n.specs())
			if err != nil {
				panic(err)
			}
		}
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

func (n *onlineNode) specs() []mapreduce.RunSpec {
	out := make([]mapreduce.RunSpec, 0, len(n.residents))
	for _, r := range n.residents {
		out = append(out, mapreduce.RunSpec{
			App:    r.job.Obs.App,
			DataMB: r.job.Obs.SizeGB * 1024,
			Cfg:    r.cfg,
		})
	}
	return out
}

// specsInto is specs over the scheduler's reusable scratch buffer: the
// event loop is single-threaded and Model.Steady only reads the slice,
// so the reschedule path builds every resident-spec list in place
// instead of allocating one per call.
func (s *OnlineScheduler) specsInto(n *onlineNode) []mapreduce.RunSpec {
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
func (s *OnlineScheduler) refreshPhaseWatts(n *onlineNode) {
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
func (s *OnlineScheduler) occupancyChanged(n *onlineNode) {
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
func (s *OnlineScheduler) dispatch() {
	for s.queue.Len() > 0 {
		// Prefer pairing onto a half-busy node, then an empty node. The
		// indexes hand back the lowest node id, which is exactly the
		// node the legacy in-order scan would stop at.
		var target *onlineNode
		if s.naive {
			for _, n := range s.nodes {
				if len(n.residents) == 1 && s.MaxPerNode >= 2 {
					target = n
					break
				}
			}
			if target == nil {
				for _, n := range s.nodes {
					if len(n.residents) == 0 {
						target = n
						break
					}
				}
			}
		} else {
			if s.MaxPerNode >= 2 {
				if id, ok := s.halfSet.min(); ok {
					target = s.nodes[id]
				}
			}
			if target == nil {
				if id, ok := s.freeSet.min(); ok {
					target = s.nodes[id]
				}
			}
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
			priority := s.DB.PartnerPriority(running)
			if s.naive {
				j = s.queue.selectPartnerLinear(priority)
			} else {
				j = s.queue.SelectPartner(running, priority)
			}
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
					now := s.Engine.Now()
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
					At: s.Engine.Now(), Kind: metrics.EvReserve, Job: j.ID, Node: s.gid(target),
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
func (s *OnlineScheduler) place(n *onlineNode, j *Job, branch audit.Branch, leapOver int) {
	s.accrueEnergy()
	cfg, ti := s.tuneFor(n, j)
	now := s.Engine.Now()
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
func (s *OnlineScheduler) tuneFor(n *onlineNode, j *Job) (mapreduce.Config, tuneInfo) {
	if len(n.residents) == 1 {
		resident := n.residents[0]
		pairCfg, exp, err := predictExpected(s.Tuner, resident.job.Obs, j.Obs)
		if err == nil && pairCfg[0].Mappers+pairCfg[1].Mappers <= s.Model.Spec.Cores {
			resident.cfg.Freq = pairCfg[0].Freq
			resident.cfg.Mappers = pairCfg[0].Mappers
			if s.met != nil {
				s.met.tunePair.Inc()
				s.met.reg.Emit(metrics.Event{
					At: s.Engine.Now(), Kind: metrics.EvTune, Job: j.ID, Node: s.gid(n),
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
		cfg = NTConfig(s.Model.Spec.Cores / s.MaxPerNode)
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
			At: s.Engine.Now(), Kind: metrics.EvTune, Job: j.ID, Node: s.gid(n),
			Detail: fmt.Sprintf("solo cfg=%v", cfg),
		})
	}
	s.traceTune(n, j, cfg, "solo")
	return cfg, tuneInfo{path: audit.TuneSolo, exp: audit.Expectation(soloExp)}
}

// traceTune records the (instantaneous in sim-time) STP tuning decision
// as a zero-duration span under the job.
func (s *OnlineScheduler) traceTune(n *onlineNode, j *Job, cfg mapreduce.Config, detail string) {
	if s.tracer == nil {
		return
	}
	now := s.Engine.Now()
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
func (s *OnlineScheduler) traceComplete(n *onlineNode, finisher *onlineJob) {
	if s.tracer == nil {
		return
	}
	js := s.traced[finisher.job.ID]
	if js == nil {
		return
	}
	now := s.Engine.Now()
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
// current resident set's steady-state rates.
func (s *OnlineScheduler) reschedule(n *onlineNode) {
	if n.event != nil {
		s.Engine.Cancel(n.event)
		n.event = nil
	}
	if len(n.residents) == 0 {
		n.watts = s.idleWatts
		s.refreshPhaseWatts(n)
		return
	}
	specs := s.specsInto(n)
	if s.naive {
		specs = n.specs()
	}
	var stsBuf [2]mapreduce.SteadyState
	var sts []mapreduce.SteadyState
	var watts float64
	if s.steadyMemo != nil && len(specs) <= 2 {
		k := steadyKeyOf(specs)
		if v, ok := s.steadyMemo[k]; ok {
			stsBuf, watts = v.sts, v.watts
		} else {
			out, w, err := s.eval.Steady(specs)
			if err != nil {
				panic(err)
			}
			copy(stsBuf[:], out)
			watts = w
			if len(s.steadyMemo) >= steadyMemoCap {
				clear(s.steadyMemo)
			}
			s.steadyMemo[k] = steadyVal{sts: stsBuf, watts: w}
		}
		sts = stsBuf[:len(specs)]
	} else {
		// The states alias the evaluator's scratch, which nothing below
		// reuses before they are read.
		out, w, err := s.eval.Steady(specs)
		if err != nil {
			panic(err)
		}
		sts, watts = out, w
	}
	// Capture the node's steady-state draw for the incremental accrual
	// path: this is the single point where a node's resident set or
	// configurations take effect, so the cache is fresh at every later
	// accrual (which always runs before the next mutation).
	n.watts = watts
	s.refreshPhaseWatts(n)
	if s.tracer != nil {
		// Refresh each resident's map/total split under the current
		// contention — the value in force at completion places the
		// map → shuffle/reduce boundary on the job's span.
		for i, r := range n.residents {
			if js := s.traced[r.job.ID]; js != nil {
				if tot := sts[i].MapTime + sts[i].ReduceTime; tot > 0 {
					js.mapFrac = sts[i].MapTime / tot
				}
			}
		}
	}
	// Next finisher under current contention.
	next := -1
	nextDT := math.Inf(1)
	for i, r := range n.residents {
		dt := r.rem * sts[i].JobTime
		if dt < nextDT {
			next, nextDT = i, dt
		}
	}
	if next < 0 {
		return
	}
	// Record progress rates to advance remaining fractions at the event.
	// The buffer lives on the node: the pending event is cancelled
	// before any refill, so the closure never reads overwritten rates.
	if cap(n.rates) < len(n.residents) {
		n.rates = make([]float64, len(n.residents))
	}
	rates := n.rates[:len(n.residents)]
	for i := range n.residents {
		rates[i] = 1 / sts[i].JobTime
	}
	n.evDT = nextDT
	n.evFinisher = n.residents[next]
	n.event = s.Engine.After(nextDT, n.fire)
}

// nodeComplete is the node's completion event: advance every resident's
// remaining fraction by the elapsed interval's progress rates, retire
// the finisher, and refill the node. It reads the reschedule-maintained
// n.evDT / n.evFinisher / n.rates instead of closure captures.
func (s *OnlineScheduler) nodeComplete(n *onlineNode) {
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
	s.completed = append(s.completed, CompletedJob{
		ID:        finisher.job.ID,
		App:       finisher.job.Obs.App.Name,
		Class:     finisher.job.Class,
		SizeGB:    finisher.job.Obs.SizeGB,
		Submitted: finisher.job.Arrived,
		Started:   finisher.started,
		Finished:  s.Engine.Now(),
		Node:      s.gid(n),
		Cfg:       finisher.cfg,
	})
	if s.met != nil {
		now := s.Engine.Now()
		s.met.completed.Inc()
		s.met.turnaround.Observe(now - finisher.job.Arrived)
		s.met.reg.Emit(metrics.Event{
			At: now, Kind: metrics.EvComplete, Job: finisher.job.ID, Node: s.gid(n),
			Detail: fmt.Sprintf("%s class=%s", finisher.job.Obs.App.Name, finisher.job.Class),
		})
	}
	if s.aud != nil {
		now := s.Engine.Now()
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
	n.event = nil
	s.reschedule(n)
	s.dispatch()
}
