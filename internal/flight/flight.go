// Package flight is the control plane's black box: a nil-safe,
// fixed-size ring-buffer flight recorder fed by one wide event per
// shard per barrier epoch. Per-decision logs (tracing spans, audit
// JSONL) do not survive 130k jobs/s; the recorder keeps a bounded
// always-on window of per-shard state — queue depth, free slots,
// active jobs, steal flow by neighbor, accrued energy, tune-cache hit
// rate, forecast-error summary — and aggregates it into shard-health
// observables (steal-flow matrix, Jain's fairness index, queue-growth
// slope, power skew). Anomaly triggers snapshot the ring into a
// deterministic JSONL dump naming the implicated tenants, shards, and
// epochs.
//
// Like every observability layer in this repo (metrics, tracing,
// audit), a nil *Recorder and a nil *Collector are valid and disabled:
// every method short-circuits on a single inlined branch, so the
// instrumented hot paths cost nothing when flight recording is off
// (benchguard-gated by BenchmarkDisabledEpochRecord and
// BenchmarkDisabledFlightAppend).
//
// Determinism contract: the recorder is driven only from the sharded
// control plane's barrier loop (RecordEpoch, Steal) and from per-shard
// collectors that are written exclusively by their shard's events
// between barriers, on the goroutine that drains them. Every export —
// epoch records, health report, flight dumps — is therefore a pure
// function of the submitted stream, byte-identical at any GOMAXPROCS.
// The mutex on Recorder exists only for live HTTP reads during a run;
// it never reorders writes.
package flight

import "sync"

// Config parameterizes the recorder. The zero value of every field is
// replaced by the documented default in New, so callers set only what
// they tune.
type Config struct {
	// Shards is the shard count (required, >= 1).
	Shards int
	// ShardNodes holds each shard's node count, used to normalize the
	// power-skew observable to per-node watts (an uneven node split is
	// not a power anomaly). Nil weighs every shard equally.
	ShardNodes []int
	// RingCap bounds the record ring (one record per shard per epoch).
	// Default 4096, clamped to at least Shards so a full epoch fits.
	RingCap int
	// QueueSlopeBound is the queue-growth trigger threshold in queued
	// jobs per simulated second, measured by least squares over the
	// slope window. Default 0.5.
	QueueSlopeBound float64
	// QueueSlopeWindow is how many barrier samples the slope regression
	// spans. Default 64.
	QueueSlopeWindow int
	// FairnessMin is the imbalance trigger threshold on the
	// instantaneous Jain index over per-shard load. Default 0.5.
	FairnessMin float64
	// QueueFloor gates the queue-growth and imbalance triggers: below
	// this total load (queued + active jobs) a skewed cluster is merely
	// idle, not anomalous. Default 4*Shards.
	QueueFloor int
	// MaxDumps caps how many ring snapshots a run keeps. Default 8.
	MaxDumps int
	// CooldownEpochs suppresses new dumps for this many epochs after
	// one fires, so a sustained anomaly yields one snapshot, not
	// thousands. Default 256.
	CooldownEpochs int
}

func (c Config) withDefaults() Config {
	if c.RingCap <= 0 {
		c.RingCap = 4096
	}
	if c.RingCap < c.Shards {
		c.RingCap = c.Shards
	}
	if c.QueueSlopeBound <= 0 {
		c.QueueSlopeBound = 0.5
	}
	if c.QueueSlopeWindow <= 1 {
		c.QueueSlopeWindow = 64
	}
	if c.FairnessMin <= 0 {
		c.FairnessMin = 0.5
	}
	if c.QueueFloor <= 0 {
		c.QueueFloor = 4 * c.Shards
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = 8
	}
	if c.CooldownEpochs <= 0 {
		c.CooldownEpochs = 256
	}
	return c
}

// ShardStat is one shard's state at a barrier, sampled by the control
// plane after the epoch's events and steal pass have run. Energy and
// tune-cache counts are cumulative; the recorder differences them into
// per-epoch records where needed.
type ShardStat struct {
	Queue   int
	Free    int
	Active  int
	EnergyJ float64
	// TuneHits/TuneMisses mirror the shard tune cache's deterministic
	// hit/miss counts (MemoSTP.HitMiss), cumulative.
	TuneHits   int64
	TuneMisses int64
}

// Flow is one edge of a shard's per-epoch steal flow.
type Flow struct {
	Peer int   `json:"peer"`
	Jobs int64 `json:"jobs"`
}

// DriftMark records one CUSUM drift alert inside an epoch: the
// completing job, its tenant ("app:class" — the recurring identity the
// stale profile belongs to), and the CUSUM statistic at the alarm.
type DriftMark struct {
	Job    int     `json:"job"`
	Tenant string  `json:"tenant"`
	Stat   float64 `json:"stat"`
}

// EpochRecord is the wide event: one shard's full state for one
// barrier epoch. StartS/EndS bound the epoch's sim-time window;
// EnergyJ and TuneHits/TuneMisses are cumulative readings at EndS
// (differencing them across records gives per-epoch deltas without
// losing the running totals a dump reader wants).
type EpochRecord struct {
	Epoch      int         `json:"epoch"`
	Shard      int         `json:"shard"`
	StartS     float64     `json:"start_s"`
	EndS       float64     `json:"end_s"`
	Queue      int         `json:"queue"`
	Free       int         `json:"free"`
	Active     int         `json:"active"`
	EnergyJ    float64     `json:"energy_j"`
	TuneHits   int64       `json:"tune_hits"`
	TuneMisses int64       `json:"tune_misses"`
	Joins      int         `json:"joins,omitempty"`
	ErrMeanPct float64     `json:"err_mean_pct,omitempty"`
	StealsIn   []Flow      `json:"steals_in,omitempty"`
	StealsOut  []Flow      `json:"steals_out,omitempty"`
	Drift      []DriftMark `json:"drift,omitempty"`
}

// Collector is one shard's epoch-scoped accumulator. The shard's
// scheduler appends forecast joins and drift alerts as its events run;
// the recorder drains it at the next barrier. A nil *Collector is
// valid and disabled. No locking: the owning shard's events are the
// only writer between barriers, and they run on the goroutine that
// drains the collector at the barrier.
type Collector struct {
	joins  int64
	errSum float64
	drifts []DriftMark
}

// Join records one audited forecast join (relative EDP error, percent).
func (c *Collector) Join(relErrPct float64) {
	if c == nil {
		return
	}
	c.join(relErrPct)
}

func (c *Collector) join(relErrPct float64) {
	c.joins++
	c.errSum += relErrPct
}

// Drift records one CUSUM drift alert against tenant ("app:class").
func (c *Collector) Drift(job int, tenant string, stat float64) {
	if c == nil {
		return
	}
	c.drift(job, tenant, stat)
}

func (c *Collector) drift(job int, tenant string, stat float64) {
	c.drifts = append(c.drifts, DriftMark{Job: job, Tenant: tenant, Stat: stat})
}

type flowEdge struct{ from, to int }

// Recorder is the flight recorder. Build with New, hand each shard its
// Collector, then drive Steal/RecordEpoch from the barrier loop. A nil
// *Recorder is valid and disabled.
type Recorder struct {
	mu  sync.Mutex
	cfg Config

	cols []*Collector

	ring    []EpochRecord
	next    int // ring write position
	count   int // filled entries
	epochs  int // epochs recorded (== next epoch index)
	dropped int // records overwritten by ring wrap

	pend map[flowEdge]int64 // steals since the last barrier record
	flow [][]int64          // cumulative steal-flow matrix [from][to]

	// cumulative per-shard aggregates
	loadJobS []float64 // ∫(queue+active) dt — job-seconds of offered load
	joins    []int64
	errSum   []float64
	drifts   []int64
	last     []ShardStat
	lastT    float64

	// queue-growth regression window: (EndS, total queue) rings
	qt, qv   []float64
	qn, qpos int

	fairLast float64
	slope    float64

	triggers      []Trigger
	triggersTotal int
	dumps         []Dump
	cooldownUntil int

	tenants func(shard, max int) []string
}

// New builds a recorder for cfg.Shards shards. Returns nil (the
// disabled recorder) when cfg.Shards < 1.
func New(cfg Config) *Recorder {
	if cfg.Shards < 1 {
		return nil
	}
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:      cfg,
		cols:     make([]*Collector, cfg.Shards),
		ring:     make([]EpochRecord, 0, cfg.RingCap),
		pend:     make(map[flowEdge]int64),
		flow:     make([][]int64, cfg.Shards),
		loadJobS: make([]float64, cfg.Shards),
		joins:    make([]int64, cfg.Shards),
		errSum:   make([]float64, cfg.Shards),
		drifts:   make([]int64, cfg.Shards),
		last:     make([]ShardStat, cfg.Shards),
		qt:       make([]float64, cfg.QueueSlopeWindow),
		qv:       make([]float64, cfg.QueueSlopeWindow),
		fairLast: 1,
	}
	for i := range r.cols {
		r.cols[i] = &Collector{}
	}
	for i := range r.flow {
		r.flow[i] = make([]int64, cfg.Shards)
	}
	return r
}

// Collector returns shard i's collector (nil on a nil recorder — the
// disabled collector).
func (r *Recorder) Collector(i int) *Collector {
	if r == nil {
		return nil
	}
	return r.cols[i]
}

// SetTenantSource installs the callback a trigger uses to name the
// implicated tenants of a hot shard (e.g. the most-queued application
// names). It is invoked only when a trigger fires, from the barrier
// goroutine, so it may read shard state directly.
func (r *Recorder) SetTenantSource(fn func(shard, max int) []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tenants = fn
	r.mu.Unlock()
}

// Steal records one stolen job migrating from shard `from` to shard
// `to`, called from the barrier steal pass.
func (r *Recorder) Steal(from, to int) {
	if r == nil {
		return
	}
	r.steal(from, to)
}

func (r *Recorder) steal(from, to int) {
	r.mu.Lock()
	r.pend[flowEdge{from, to}]++
	r.flow[from][to]++
	r.mu.Unlock()
}

// RecordEpoch closes one barrier epoch spanning sim time [t0, t1]:
// it drains every shard's collector and the pending steal flows into
// one wide record per shard, appends them to the ring, refreshes the
// aggregate observables, and evaluates the anomaly triggers. stats
// must hold one entry per shard, in shard order.
func (r *Recorder) RecordEpoch(t0, t1 float64, stats []ShardStat) {
	if r == nil {
		return
	}
	r.recordEpoch(t0, t1, stats)
}

func (r *Recorder) recordEpoch(t0, t1 float64, stats []ShardStat) {
	r.mu.Lock()
	defer r.mu.Unlock()
	epoch := r.epochs
	r.epochs++
	s := r.cfg.Shards

	// Fold the pending steal edges into per-shard sorted flow lists.
	var in, out [][]Flow
	if len(r.pend) > 0 {
		in = make([][]Flow, s)
		out = make([][]Flow, s)
		// Iterate shard pairs in index order rather than map order so
		// the flow lists are deterministic.
		for from := 0; from < s; from++ {
			for to := 0; to < s; to++ {
				if n := r.pend[flowEdge{from, to}]; n > 0 {
					out[from] = append(out[from], Flow{Peer: to, Jobs: n})
					in[to] = append(in[to], Flow{Peer: from, Jobs: n})
				}
			}
		}
		clear(r.pend)
	}

	driftThisEpoch := false
	for i := 0; i < s; i++ {
		st := stats[i]
		rec := EpochRecord{
			Epoch:      epoch,
			Shard:      i,
			StartS:     t0,
			EndS:       t1,
			Queue:      st.Queue,
			Free:       st.Free,
			Active:     st.Active,
			EnergyJ:    st.EnergyJ,
			TuneHits:   st.TuneHits,
			TuneMisses: st.TuneMisses,
		}
		if in != nil {
			rec.StealsIn, rec.StealsOut = in[i], out[i]
		}
		// Drain the shard collector (ordered after the epoch's event
		// processing by the barrier's WaitGroup).
		c := r.cols[i]
		if c.joins > 0 {
			rec.Joins = int(c.joins)
			rec.ErrMeanPct = c.errSum / float64(c.joins)
			r.joins[i] += c.joins
			r.errSum[i] += c.errSum
			c.joins, c.errSum = 0, 0
		}
		if len(c.drifts) > 0 {
			rec.Drift = append([]DriftMark(nil), c.drifts...)
			r.drifts[i] += int64(len(c.drifts))
			c.drifts = c.drifts[:0]
			driftThisEpoch = true
		}
		r.append(rec)

		r.loadJobS[i] += float64(st.Queue+st.Active) * (t1 - t0)
		r.last[i] = st
	}
	r.lastT = t1

	// Slide the queue-growth regression window and refresh the
	// aggregate observables.
	total := 0
	for i := 0; i < s; i++ {
		total += stats[i].Queue
	}
	r.qt[r.qpos], r.qv[r.qpos] = t1, float64(total)
	r.qpos = (r.qpos + 1) % len(r.qt)
	if r.qn < len(r.qt) {
		r.qn++
	}
	r.slope = slope(r.qt[:r.qn], r.qv[:r.qn])
	r.fairLast = jainStats(stats)

	r.evalTriggers(epoch, t1, stats, driftThisEpoch)
}

// append pushes one record into the ring, overwriting the oldest when
// full.
func (r *Recorder) append(rec EpochRecord) {
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
		r.next = len(r.ring) % cap(r.ring)
		r.count = len(r.ring)
		return
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % len(r.ring)
	r.dropped++
}

// snapshotLocked copies the ring in chronological order (oldest first).
func (r *Recorder) snapshotLocked() []EpochRecord {
	out := make([]EpochRecord, 0, r.count)
	if r.count < cap(r.ring) {
		return append(out, r.ring...)
	}
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// Snapshot returns the ring's records in chronological order.
func (r *Recorder) Snapshot() []EpochRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked()
}

// Epochs reports how many epochs have been recorded.
func (r *Recorder) Epochs() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epochs
}

// StealFlow returns a copy of the cumulative steal-flow matrix
// ([from][to] stolen jobs).
func (r *Recorder) StealFlow() [][]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([][]int64, len(r.flow))
	for i, row := range r.flow {
		out[i] = append([]int64(nil), row...)
	}
	return out
}
