// Package flight is the control plane's black box: a nil-safe,
// fixed-size ring-buffer flight recorder fed by one wide event per
// shard per epoch — one epoch per event time of the drive. Per-decision
// logs (tracing spans, audit JSONL) do not survive 130k jobs/s; the
// recorder keeps a bounded always-on window of per-shard state — queue
// depth, free slots, active jobs, steal flow by neighbor, accrued
// energy, tune-cache hit rate, forecast-error summary — and aggregates
// it into shard-health observables (steal-flow matrix, Jain's fairness
// index, queue-growth slope, power skew). Anomaly triggers snapshot the
// ring into a deterministic JSONL dump naming the implicated tenants,
// shards, and epochs.
//
// Like every observability layer in this repo (metrics, tracing,
// audit), a nil *Recorder is valid and disabled: every method
// short-circuits on a single inlined branch, so the instrumented hot
// paths cost nothing when flight recording is off (benchguard-gated by
// BenchmarkDisabledEpochRecord and BenchmarkDisabledFlightAppend).
//
// Determinism contract: one control plane sizes and feeds the
// recorder, all from its drive loop's goroutine — joins and drift
// marks from its shards' events, tagged with the shard, and steals and
// epochs from the loop itself. Every export — epoch records, health
// report, flight dumps — is therefore a pure function of the submitted
// stream, byte-identical at any GOMAXPROCS. The mutex on Recorder
// exists only for live HTTP reads during a run; it never reorders
// writes.
package flight

import (
	"slices"
	"sync"
)

// The recorder's tuning. No program tunes it; the bounds that scale
// with the shard count (the ring holds at least one full epoch, the
// load floor is four jobs per shard) are applied when a control plane
// sizes the recorder.
const (
	// ringCap bounds the record ring (one record per shard per epoch).
	ringCap = 4096
	// queueSlopeBound is the queue-growth trigger threshold in queued
	// jobs per simulated second, measured by least squares over the
	// slope window.
	queueSlopeBound = 0.5
	// queueSlopeWindow is how many epoch samples the slope regression
	// spans.
	queueSlopeWindow = 64
	// fairnessMin is the imbalance trigger threshold on the
	// instantaneous Jain index over per-shard load.
	fairnessMin = 0.5
	// queueFloorPerShard gates the queue-growth and imbalance triggers:
	// below this many jobs (queued + active) per shard a skewed cluster
	// is merely idle, not anomalous.
	queueFloorPerShard = 4
	// maxDumps caps how many ring snapshots a run keeps.
	maxDumps = 8
	// cooldownEpochs suppresses new dumps for this many epochs after
	// one fires, so a sustained anomaly yields one snapshot, not
	// thousands.
	cooldownEpochs = 256
)

// ShardStat is one shard's state at the end of an epoch, sampled by the
// control plane after the epoch's events and any steal pass have run. Energy and
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
// epoch. StartS/EndS bound the epoch's sim-time window;
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

// epochAcc accumulates one shard's forecast joins and drift marks
// between epochs; recordEpoch drains it into the shard's record.
type epochAcc struct {
	joins  int64
	errSum float64
	drifts []DriftMark
}

type flowEdge struct{ from, to int }

// Recorder is the flight recorder. Build with New and hand it to the
// control plane (ShardedScheduler.SetFlight), which sizes it with
// Attach and drives Join/Drift from its shards' events and
// Steal/RecordEpoch from its drive loop. A nil *Recorder is valid and
// disabled.
type Recorder struct {
	mu sync.Mutex

	nodes []int // each shard's node count

	// cur holds each shard's joins and drift marks since the last
	// epoch. Only the drive loop touches it — Join and Drift from the
	// shards' events, recordEpoch draining it — so it takes no lock;
	// readers never see it.
	cur []epochAcc

	ring    []EpochRecord
	next    int // ring write position
	count   int // filled entries
	epochs  int // epochs recorded (== next epoch index)
	dropped int // records overwritten by ring wrap

	pend map[flowEdge]int64 // steals since the last epoch record
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

// New returns a recorder for the control plane to size (see Attach).
func New() *Recorder { return &Recorder{} }

// Attach sizes the recorder for a control plane whose shard i owns
// nodes[i] nodes — the per-node normalizer of the power-skew
// observable, since an uneven node split is not a power anomaly — and
// installs tenants, the callback a trigger uses to name a hot shard's
// most-queued applications (nil names none). A trigger invokes it on
// the drive loop's goroutine, so it may read shard state directly.
// Attach discards anything recorded before; call it before anything
// reads the recorder.
func (r *Recorder) Attach(nodes []int, tenants func(shard, max int) []string) {
	if r == nil {
		return
	}
	s := len(nodes)
	*r = Recorder{
		nodes:    nodes,
		cur:      make([]epochAcc, s),
		ring:     make([]EpochRecord, 0, max(ringCap, s)),
		pend:     make(map[flowEdge]int64),
		flow:     make([][]int64, s),
		loadJobS: make([]float64, s),
		joins:    make([]int64, s),
		errSum:   make([]float64, s),
		drifts:   make([]int64, s),
		last:     make([]ShardStat, s),
		qt:       make([]float64, queueSlopeWindow),
		qv:       make([]float64, queueSlopeWindow),
		fairLast: 1,
		tenants:  tenants,
	}
	for i := range r.flow {
		r.flow[i] = make([]int64, s)
	}
}

// Join records one audited forecast join (relative EDP error, percent)
// at shard.
func (r *Recorder) Join(shard int, relErrPct float64) {
	if r == nil {
		return
	}
	r.join(shard, relErrPct)
}

func (r *Recorder) join(shard int, relErrPct float64) {
	a := &r.cur[shard]
	a.joins++
	a.errSum += relErrPct
}

// Drift records one CUSUM drift alert at shard against tenant
// ("app:class").
func (r *Recorder) Drift(shard, job int, tenant string, stat float64) {
	if r == nil {
		return
	}
	r.drift(shard, job, tenant, stat)
}

func (r *Recorder) drift(shard, job int, tenant string, stat float64) {
	a := &r.cur[shard]
	a.drifts = append(a.drifts, DriftMark{Job: job, Tenant: tenant, Stat: stat})
}

// Steal records one stolen job migrating from shard `from` to shard
// `to`, called from the steal pass.
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

// RecordEpoch closes one epoch spanning sim time [t0, t1]: it drains
// every shard's joins and drift marks and the pending steal flows into
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
	s := len(r.cur)

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

	// drift gathers the epoch's drift marks into its trigger as the
	// records are built: the shards that raised one, their tenants and
	// the worst CUSUM statistic.
	var drift Trigger
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
		a := &r.cur[i]
		if a.joins > 0 {
			rec.Joins = int(a.joins)
			rec.ErrMeanPct = a.errSum / float64(a.joins)
			r.joins[i] += a.joins
			r.errSum[i] += a.errSum
			a.joins, a.errSum = 0, 0
		}
		if len(a.drifts) > 0 {
			rec.Drift = append([]DriftMark(nil), a.drifts...)
			r.drifts[i] += int64(len(a.drifts))
			a.drifts = a.drifts[:0]
			drift.Shards = append(drift.Shards, i)
			for _, m := range rec.Drift {
				if !slices.Contains(drift.Tenants, m.Tenant) {
					drift.Tenants = append(drift.Tenants, m.Tenant)
				}
				if m.Stat > drift.Value {
					drift.Value = m.Stat
				}
			}
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

	r.evalTriggers(epoch, t1, stats, drift)
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
