package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"ecost/internal/audit"
	"ecost/internal/flight"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/power"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// observer feeds one shard's sinks — metrics registry, span tracer,
// decision-audit log and flight recorder — from one nil-checked hook
// per lifecycle transition in the scheduler, and works out the values
// only sinks need (DESIGN.md §27). It is one struct, not a consumer per
// sink, because the sinks feed each other: audit joins mirror into
// metrics and the flight recorder, and tracing and audit share one
// energy-share division.
type observer struct {
	sh *shard

	// The sinks, each nil when off. traced maps in-flight job IDs to
	// their open spans; nodeSpans holds each node's current occupancy
	// span. fl takes the shard's forecast joins and drift alerts, tagged
	// with its index, until the control plane closes the epoch.
	met       *schedMetrics
	tracer    *tracing.Tracer
	traced    map[int]*jobSpans
	nodeSpans []*tracing.Span
	since     []float64 // each node's last bill time (see bill)
	aud       *audit.Log
	fl        *flight.Recorder

	// branch and leapOver are the decision-tree branch that claimed the
	// job being placed and, for a leap, the head it passed over; pred is
	// the pair forecast tune left for the pairing record (zero on the
	// solo path). place reads all three.
	branch   audit.Branch
	leapOver int
	pred     audit.Expectation
}

// jobSpans tracks one in-flight job's open spans plus the model's
// latest map/total time split (refreshed at every reschedule, so it
// reflects the contention the job finished under).
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
	wait       [numClasses]*metrics.Histogram

	energyIdle   *metrics.Gauge
	energySolo   *metrics.Gauge
	energyPaired *metrics.Gauge

	// Audit mirrors (registered by auditMetrics once both a registry
	// and an audit log are attached).
	driftAlert  *metrics.Gauge   // stp.drift_alert: 0 healthy, latched 1 on alarm
	driftAlerts *metrics.Counter // audit.drift_alerts: alarms fired
	relErr      map[string]*metrics.Histogram

	// Steal counters, registered on first use so steal-free runs'
	// snapshots carry no steal families.
	stealsIn  *metrics.Counter // sched.steals_in: jobs claimed from neighbors
	stealsOut *metrics.Counter // sched.steals_out: queued jobs claimed away

	// Tuner telemetry, recorded around every pair prediction (see
	// predictPair). scan is the shard tuner's scanSize.
	predictions *metrics.Counter   // stp.predictions: successful calls
	failures    *metrics.Counter   // stp.failures: calls that returned an error
	evals       *metrics.Histogram // stp.predict.evals: scan per prediction
	wall        *metrics.Histogram // stp.predict.wall_ns: volatile call latency
	edpErr      *metrics.Histogram // stp.edp_err_pct: forecast vs model-realized EDP
	scan        float64
}

// scanSize is the deterministic work one prediction by t performs: the
// argmin sweep over the joint configuration space for model
// techniques, the database scan for the lookup table. A memo is
// transparent — the scan it may have skipped is still the prediction's
// deterministic cost — so snapshots stay byte-identical with and
// without it, and its effectiveness travels in its volatile hit/miss
// counters instead. It is worked out once per shard, at attach time,
// because a shard's tuner never changes.
func scanSize(t STP) int {
	if m, ok := t.(*MemoSTP); ok {
		t = m.Inner
	}
	switch v := t.(type) {
	case *MLMSTP:
		return len(mapreduce.PairConfigsCached(v.db.Oracle().Model.Spec.Cores))
	case *LkTSTP:
		return len(v.DB.Entries)
	}
	return 1
}

// waitFor returns the per-class wait-latency histogram.
func (m *schedMetrics) waitFor(c workloads.Class) *metrics.Histogram {
	if m.wait[c] == nil {
		m.wait[c] = m.reg.Histogram("sched.wait_s."+c.String(), metrics.ExpBuckets(16, 2, 14))
	}
	return m.wait[c]
}

// relErrFor returns the per-predicted-class STP relative-error
// histogram (buckets track audit.ErrBuckets: 5% doubling to 1280%).
func (m *schedMetrics) relErrFor(class string) *metrics.Histogram {
	if m.relErr[class] == nil {
		m.relErr[class] = m.reg.Histogram("audit.rel_err_pct."+class, metrics.ExpBuckets(5, 2, 9))
	}
	return m.relErr[class]
}

// attach applies set to the shard's observer, creating it on first
// use, and drops the observer once no sink is left, so a shard handed
// only nil sinks keeps a nil observer and one-branch hooks.
func (s *shard) attach(set func(o *observer)) {
	o := s.obs
	if o == nil {
		o = &observer{sh: s, since: make([]float64, len(s.nodes))}
	}
	set(o)
	if o.met == nil && o.tracer == nil && o.aud == nil && o.fl == nil {
		o = nil
	}
	s.obs = o
}

// setMetrics attaches the shard's handle on the control plane's
// registry to the shard, its wait queue and its tune memo (the memo's
// volatile hit/miss counters); nil detaches. The execution model is
// shared across shards and stays uninstrumented.
func (s *shard) setMetrics(reg *metrics.Registry) {
	s.queue.Metrics = reg
	if m, ok := s.Tuner.(*MemoSTP); ok {
		m.hits, m.misses = reg.VolatileCounter("stp.memo.hits"), reg.VolatileCounter("stp.memo.misses")
	}
	s.attach(func(o *observer) {
		o.met = nil
		if reg != nil {
			o.met = &schedMetrics{
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
				energyIdle:   reg.Gauge("power.energy_j.idle"),
				energySolo:   reg.Gauge("power.energy_j.solo"),
				energyPaired: reg.Gauge("power.energy_j.paired"),
				relErr:       map[string]*metrics.Histogram{},
				predictions:  reg.Counter("stp.predictions"),
				failures:     reg.Counter("stp.failures"),
				evals:        reg.Histogram("stp.predict.evals", metrics.ExpBuckets(1, 4, 10)),
				wall:         reg.VolatileHistogram("stp.predict.wall_ns", metrics.ExpBuckets(1e3, 4, 12)),
				edpErr:       reg.Histogram("stp.edp_err_pct", metrics.LinearBuckets(5, 5, 20)),
				scan:         float64(scanSize(s.Tuner)),
			}
		}
		o.auditMetrics()
	})
}

// setAudit attaches a decision-audit log to the shard; nil detaches.
// With a registry attached too, joins and drift alarms are mirrored
// into it (see complete).
func (s *shard) setAudit(l *audit.Log) {
	s.attach(func(o *observer) {
		o.aud = l
		o.auditMetrics()
	})
}

// auditMetrics pre-registers the audit mirror instruments once both an
// audit log and a registry are attached (either attachment order), so
// the drift gauge is visible at 0 on healthy runs.
func (o *observer) auditMetrics() {
	if o.aud == nil || o.met == nil {
		return
	}
	o.met.driftAlert = o.met.reg.Gauge("stp.drift_alert")
	o.met.driftAlerts = o.met.reg.Counter("audit.drift_alerts")
}

// setTracer attaches a span tracer to the shard; nil detaches. Every
// shard of a control plane records into the same tracer, at the
// control plane's times, stamping its index on each span it records.
func (s *shard) setTracer(tr *tracing.Tracer) {
	s.attach(func(o *observer) {
		o.tracer, o.traced, o.nodeSpans = tr, nil, nil
		if tr == nil {
			return
		}
		o.traced = make(map[int]*jobSpans)
		o.nodeSpans = make([]*tracing.Span, len(s.nodes))
		for _, n := range s.nodes {
			o.nodeSpans[n.id] = o.open(tracing.KindNode, power.PhaseName(0), nil,
				tracing.Attrs{Job: -1, Node: s.gid(n), Shard: s.idx})
		}
	})
}

// setFlight attaches the control plane's flight recorder to the shard;
// nil detaches.
func (s *shard) setFlight(fl *flight.Recorder) {
	s.attach(func(o *observer) { o.fl = fl })
}

// topTenants names the most-queued applications, busiest first (name
// ascending on ties), at most max. The flight recorder's triggers use
// it to name the tenants behind a hot shard.
func (s *shard) topTenants(max int) []string {
	counts := make(map[string]int)
	for _, j := range s.queue.Jobs() {
		counts[j.Obs.App.Name()]++
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

// attrs is the span attribute set naming job j on node (cluster-global
// id, -1 for none), recorded by this shard.
func (o *observer) attrs(j *Job, node int) tracing.Attrs {
	return tracing.Attrs{Job: j.ID, Node: node, App: j.Obs.App.Name(), Class: j.Class.String(), Shard: o.sh.idx}
}

// open starts a span at the control plane's current time; the span
// stays open until FinishAt. Tracing must be on.
func (o *observer) open(kind tracing.Kind, name string, parent *tracing.Span, a tracing.Attrs) *tracing.Span {
	return o.tracer.Record(kind, name, parent, o.sh.ev.now, math.NaN(), a)
}

// sampleDepth records the queue depth now. Metrics must be attached.
func (o *observer) sampleDepth() {
	o.met.depth.Sample(o.sh.ev.now, float64(o.sh.queue.Len()))
}

// rollOccupancy closes a node's occupancy span and opens the next, once
// its resident set changed and the closing interval was billed.
// Tracing must be on.
func (o *observer) rollOccupancy(n *onlineNode) {
	o.nodeSpans[n.id].FinishAt(o.sh.ev.now)
	var names []string
	for _, r := range n.residents {
		names = append(names, r.job.Obs.App.Name())
	}
	o.nodeSpans[n.id] = o.open(tracing.KindNode, power.PhaseName(len(n.residents)), nil,
		tracing.Attrs{Job: -1, Node: o.sh.gid(n), Detail: strings.Join(names, "+"), Shard: o.sh.idx})
}

// admit opens a newly queued job's records in this shard's exports: its
// audit row and its job and wait spans. app.Class is ground truth the
// prediction path never sees; recording it next to the Classify
// verdict is what makes the confusion matrix possible.
func (o *observer) admit(j *Job) {
	app := j.Obs.App.App()
	if o.aud != nil {
		o.aud.Submit(j.ID, app.Name, j.Obs.SizeGB, app.Class.String(), j.Class.String(), j.Arrived)
	}
	if o.tracer != nil {
		a := o.attrs(j, -1)
		a.SizeGB = j.Obs.SizeGB
		js := &jobSpans{}
		js.job = o.open(tracing.KindJob, "job "+app.Name, nil, a)
		js.wait = o.open(tracing.KindWait, "wait", js.job, a)
		o.traced[j.ID] = js
	}
}

// arrive records j's arrival at its home shard, once it is queued.
func (o *observer) arrive(j *Job) {
	o.admit(j)
	if m := o.met; m != nil {
		m.submitted.Inc()
		m.reg.Emit(metrics.Event{
			At: j.Arrived, Kind: metrics.EvSubmit, Job: j.ID, Node: -1,
			Detail: fmt.Sprintf("%s@%gG class=%s", j.Obs.App.Name(), j.Obs.SizeGB, j.Class),
		})
		o.sampleDepth()
	}
}

// stealOut records queued job j leaving for shard `to` at barrier time
// at: a steal_out span with the steal's link id closes its spans. Its
// audit record stays submit-only, showing where it first landed.
func (o *observer) stealOut(j *Job, at float64, to, link int) {
	if m := o.met; m != nil {
		if m.stealsOut == nil {
			m.stealsOut = m.reg.Counter("sched.steals_out")
		}
		m.stealsOut.Inc()
		o.sampleDepth()
	}
	if js := o.traced[j.ID]; js != nil {
		a := o.attrs(j, -1)
		a.SizeGB, a.Detail, a.Link = j.Obs.SizeGB, fmt.Sprintf("to=shard%d", to), link
		o.tracer.Record(tracing.KindStealOut, "steal_out", js.job, at, at, a)
		js.wait.FinishAt(at)
		js.job.FinishAt(at)
		delete(o.traced, j.ID)
	}
}

// stealIn records job j claimed from shard `from` at barrier time at:
// fresh records here, and a steal_in span linked to the victim's
// steal_out. Wait latency still counts from first submission.
func (o *observer) stealIn(j *Job, from int, at float64, link int) {
	o.admit(j)
	if m := o.met; m != nil {
		if m.stealsIn == nil {
			m.stealsIn = m.reg.Counter("sched.steals_in")
		}
		m.stealsIn.Inc()
		m.reg.Emit(metrics.Event{
			At: at, Kind: metrics.EvSteal, Job: j.ID, Node: -1,
			Detail: fmt.Sprintf("from=shard%d arrived=%g", from, j.Arrived),
		})
		o.sampleDepth()
	}
	if o.tracer != nil {
		a := o.attrs(j, -1)
		a.SizeGB, a.Detail, a.Link = j.Obs.SizeGB, fmt.Sprintf("from=shard%d", from), link
		o.tracer.Record(tracing.KindStealIn, "steal_in", o.traced[j.ID].job, at, at, a)
	}
}

// claim records the decision-tree branch picking queued job j for node
// n. It runs while j is still queued, so a partner that is not the
// queue's head is a leap over it.
func (o *observer) claim(n *onlineNode, j *Job) {
	o.branch, o.leapOver = audit.BranchReserve, -1
	if len(n.residents) == 1 {
		o.branch = audit.BranchPairHead
		if head := o.sh.queue.Head(); j.ID != head.ID {
			o.branch, o.leapOver = audit.BranchPairLeap, head.ID
		}
	}
	m := o.met
	if m == nil {
		return
	}
	now, node := o.sh.ev.now, o.sh.gid(n)
	if o.branch == audit.BranchReserve {
		m.reserves.Inc()
		m.reg.Emit(metrics.Event{
			At: now, Kind: metrics.EvReserve, Job: j.ID, Node: node,
			Detail: "head claims fresh slot",
		})
		return
	}
	running := n.residents[0].job.Class
	m.pairs.Inc()
	m.reg.Counter("sched.pair." + running.String() + "+" + j.Class.String()).Inc()
	m.reg.Emit(metrics.Event{
		At: now, Kind: metrics.EvPair, Job: j.ID, Node: node,
		Detail: fmt.Sprintf("partner=%s running=%s", j.Class, running),
	})
	if o.branch == audit.BranchPairLeap {
		m.leaps.Inc()
		m.reg.Emit(metrics.Event{
			At: now, Kind: metrics.EvLeap, Job: j.ID, Node: node,
			Detail: fmt.Sprintf("over=%d", o.leapOver),
		})
	}
}

// predictPair asks the shard's tuner for the joint configuration of
// resident a and newcomer b. With a registry attached it meters the
// call: a prediction or a failure, its wall time, its scan size, and
// the error of the tuner's EDP forecast against the EDP the shard's
// model realizes at the chosen configuration. Realizing it reads the
// observations' ground-truth apps, which is fine for telemetry (like
// CompletedJob.App) but must never feed back into tuning.
func (o *observer) predictPair(ra, rb *profileRec) ([2]mapreduce.Config, PairExpectation, error) {
	m := o.met
	if m == nil {
		return predictExpected(o.sh.Tuner, ra, rb)
	}
	start := time.Now()
	cfg, exp, err := predictExpected(o.sh.Tuner, ra, rb)
	m.wall.Observe(float64(time.Since(start).Nanoseconds()))
	if err != nil {
		m.failures.Inc()
		return cfg, exp, err
	}
	m.predictions.Inc()
	m.evals.Observe(m.scan)
	if a, b := &ra.obs, &rb.obs; exp.EDP > 0 {
		co, err := o.sh.Model.Pair(
			mapreduce.RunSpec{App: a.App.App(), DataMB: a.SizeGB * 1024, Cfg: cfg[0]},
			mapreduce.RunSpec{App: b.App.App(), DataMB: b.SizeGB * 1024, Cfg: cfg[1]},
		)
		if err == nil && co.EDP > 0 {
			m.edpErr.Observe(100 * math.Abs(exp.EDP-co.EDP) / co.EDP)
		}
	}
	return cfg, exp, nil
}

// tune records the configuration tuneFor chose for j on n: pair-tuned
// next to resident (pair[0] is then the resident's pair configuration)
// or solo when resident is nil, with the tuner's forecast exp for that
// path. The tuning is instantaneous in sim-time, so its span has zero
// duration.
func (o *observer) tune(n *onlineNode, j *Job, resident *onlineJob, pair [2]mapreduce.Config, exp PairExpectation) {
	cfg, now, node := pair[1], o.sh.ev.now, o.sh.gid(n)
	path := audit.TuneSolo
	// The pair forecast only holds when the pair tuning was actually
	// applied; a solo fallback leaves it zero (no join, no drift sample).
	o.pred = audit.Expectation{}
	if resident != nil {
		path, o.pred = audit.TunePair, audit.Expectation(exp)
	}
	if m := o.met; m != nil {
		var detail string
		if resident != nil {
			m.tunePair.Inc()
			detail = fmt.Sprintf("pair cfg=%v resident=%d cfg=%v", cfg, resident.job.ID, pair[0])
		} else {
			m.tuneSolo.Inc()
			detail = fmt.Sprintf("solo cfg=%v", cfg)
		}
		m.reg.Emit(metrics.Event{At: now, Kind: metrics.EvTune, Job: j.ID, Node: node, Detail: detail})
	}
	if o.tracer != nil {
		a := o.attrs(j, node)
		a.Config, a.Detail = cfg.String(), "solo"
		if resident != nil {
			a.Detail = fmt.Sprintf("pair resident=%d cfg=%v", resident.job.ID, pair[0])
		}
		o.tracer.Record(tracing.KindTune, "tune", o.traced[j.ID].job, now, now, a)
	}
	if o.aud != nil {
		o.aud.Tune(j.ID, o.sh.Tuner.Name(), cfg.String(), path, audit.Expectation(exp))
		if resident != nil {
			o.aud.Retune(resident.job.ID, resident.cfg.String())
		}
	}
}

// place records oj starting on n, next to the node's other resident if
// it has one: the job's wait, its placement and pairing records, its
// run span (the resident's run span learns its partner and possibly
// re-tuned configuration), and the node's next occupancy span.
func (o *observer) place(n *onlineNode, oj *onlineJob) {
	j, now, node := oj.job, o.sh.ev.now, o.sh.gid(n)
	var partner *onlineJob
	if len(n.residents) == 2 {
		partner = n.residents[0]
	}
	if m := o.met; m != nil {
		o.sampleDepth()
		m.waitFor(j.Class).Observe(now - j.Arrived)
	}
	if o.aud != nil {
		o.aud.Place(j.ID, node, now, o.branch, o.leapOver)
		if partner != nil {
			o.aud.Paired(partner.job.ID, j.ID, node, now, o.branch, o.pred)
		}
	}
	if o.tracer != nil {
		js := o.traced[j.ID]
		js.wait.FinishAt(now)
		a := o.attrs(j, node)
		a.SizeGB, a.Config = j.Obs.SizeGB, oj.cfg.String()
		if partner != nil {
			a.Partner = partner.job.Obs.App.Name()
			if pjs := o.traced[partner.job.ID]; pjs != nil {
				pjs.run.SetPartner(j.Obs.App.Name())
				pjs.run.SetConfig(partner.cfg.String())
			}
		}
		js.run = o.open(tracing.KindRun, "run "+j.Obs.App.Name(), js.job, a)
		o.rollOccupancy(n)
	}
}

// steady refreshes the map/total split of n's traced residents from
// their steady states sts under the contention now in force: the value
// standing at completion places the map → shuffle/reduce boundary on
// the job's span.
func (o *observer) steady(n *onlineNode, sts []steadyTimes) {
	if o.tracer == nil {
		return
	}
	for i, r := range n.residents {
		if js := o.traced[r.job.ID]; js != nil {
			if tot := sts[i].mapT + sts[i].reduce; tot > 0 {
				js.mapFrac = sts[i].mapT / tot
			}
		}
	}
}

// complete records fin finishing on n: metrics, the audit joins it
// made comparable (mirrored into metrics and the flight recorder), and
// its spans closed — the retroactive map and shuffle/reduce sub-spans
// split the run at the model's phase boundary, sharing the run's energy
// in the same proportion — before the node's occupancy span rolls over.
func (o *observer) complete(n *onlineNode, fin *onlineJob) {
	j, now, node := fin.job, o.sh.ev.now, o.sh.gid(n)
	if m := o.met; m != nil {
		m.completed.Inc()
		m.turnaround.Observe(now - j.Arrived)
		m.reg.Emit(metrics.Event{
			At: now, Kind: metrics.EvComplete, Job: j.ID, Node: node,
			Detail: fmt.Sprintf("%s class=%s", j.Obs.App.Name(), j.Class),
		})
	}
	if o.aud != nil {
		joins, alerts := o.aud.Complete(j.ID, now)
		if o.fl != nil {
			for _, jn := range joins {
				o.fl.Join(o.sh.idx, jn.RelErrPct)
			}
			for _, a := range alerts {
				o.fl.Drift(o.sh.idx, j.ID, j.Obs.App.Name()+":"+j.Class.String(), a.Stat)
			}
		}
		if m := o.met; m != nil {
			for _, jn := range joins {
				m.relErrFor(jn.Class).Observe(jn.RelErrPct)
			}
			for _, a := range alerts {
				m.driftAlerts.Inc()
				m.driftAlert.Set(1)
				m.reg.Emit(metrics.Event{
					At: now, Kind: metrics.EvDrift, Job: j.ID, Node: node,
					Detail: fmt.Sprintf("cusum stat=%.1f mean=%.1f%% sample=%d", a.Stat, a.Mean, a.Sample),
				})
			}
		}
	}
	if js := o.traced[j.ID]; js != nil {
		js.run.FinishAt(now)
		run := js.run.Snapshot()
		a := o.attrs(j, node)
		mapEnd := run.Start + js.mapFrac*(now-run.Start)
		o.tracer.Record(tracing.KindMap, "map", js.run, run.Start, mapEnd, a).
			SetEnergy(js.mapFrac * run.EnergyJ)
		o.tracer.Record(tracing.KindReduce, "shuffle/reduce", js.run, mapEnd, now, a).
			SetEnergy((1 - js.mapFrac) * run.EnergyJ)
		js.job.FinishAt(now)
		delete(o.traced, j.ID)
		o.rollOccupancy(n)
	}
}

// bill closes n's occupancy interval at the clock: n.watts × (now −
// since) to the node's occupancy span, and equal shares of it to the
// residents that drew it, one division for both a run span and an audit
// record (so the audit's join is bit-identical to JobReport.EnergyJ).
// It runs before n's resident set changes and before reschedule moves
// n.watts, even when accrueEnergy billed no time (DESIGN.md §39).
func (o *observer) bill(n *onlineNode) {
	if o.tracer == nil && o.aud == nil {
		return
	}
	now := o.sh.ev.now
	e := n.watts * (now - o.since[n.id])
	o.since[n.id] = now
	if o.tracer != nil {
		o.nodeSpans[n.id].AddEnergy(e)
	}
	for _, r := range n.residents {
		share := e / float64(len(n.residents))
		if js := o.traced[r.job.ID]; js != nil {
			js.run.AddEnergy(share)
		}
		o.aud.AddEnergy(r.job.ID, share)
	}
}

// accrue sets the energy gauges to the shard's phase totals.
func (o *observer) accrue() {
	if m := o.met; m != nil {
		m.energyIdle.Set(o.sh.phases.IdleJ)
		m.energySolo.Set(o.sh.phases.SoloJ)
		m.energyPaired.Set(o.sh.phases.CoJ)
	}
}

// finish bills every node's last interval and closes the open
// occupancy spans at the end of the run.
func (o *observer) finish() {
	for _, n := range o.sh.nodes {
		o.bill(n)
		if o.tracer != nil {
			o.nodeSpans[n.id].FinishAt(o.sh.ev.now)
		}
	}
}
