// Package audit records the online controller's decisions and joins
// them with realized outcomes, so the *quality* of ECoST's choices —
// classification, partner selection, STP tuning — is observable, not
// just their resource cost. Every record is derived from simulated
// state only, so the log is deterministic: same seed, same bytes, at
// any GOMAXPROCS.
//
// Like internal/metrics and internal/tracing, the package is nil-safe:
// a nil *Log makes every recording call a single-branch no-op (sub-ns,
// zero allocations, benchmarked), so callers never guard call sites.
package audit

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
)

// Branch labels the decision-tree branch that placed a job (the paper's
// Figure 4 queue discipline: head reservation + leap-forward pairing).
type Branch uint8

// The placement branch vocabulary.
const (
	BranchNone     Branch = iota // not yet placed
	BranchReserve                // the reserved head claimed a fresh node slot
	BranchPairHead               // the head was paired next to a resident
	BranchPairLeap               // a non-head job leapt forward to pair
)

// String implements fmt.Stringer.
func (b Branch) String() string {
	switch b {
	case BranchNone:
		return "none"
	case BranchReserve:
		return "reserve"
	case BranchPairHead:
		return "pair_head"
	case BranchPairLeap:
		return "pair_leap"
	}
	return "unknown"
}

// MarshalText renders the branch as its name in JSON expositions.
func (b Branch) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

// TunePath labels which STP path produced a job's configuration.
type TunePath uint8

// The tuning-path vocabulary.
const (
	TuneNone TunePath = iota // not yet tuned
	TunePair                 // pair-tuned against the resident
	TuneSolo                 // solo-tuned (empty node, or the pair prediction failed/overflowed)
)

// String implements fmt.Stringer.
func (p TunePath) String() string {
	switch p {
	case TuneNone:
		return "none"
	case TunePair:
		return "pair"
	case TuneSolo:
		return "solo"
	}
	return "unknown"
}

// MarshalText renders the path as its name in JSON expositions.
func (p TunePath) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// Expectation is the tuner's own forecast of the outcome at its chosen
// configuration: EDP in J·s, makespan in seconds, average watts. A zero
// EDP means the technique exposed no forecast (nothing joins, nothing
// drifts).
type Expectation struct {
	EDP    float64 `json:"edp"`
	TimeS  float64 `json:"time_s"`
	PowerW float64 `json:"power_w"`
}

// Decision is one job's full controller story: what was observed, what
// was predicted, what was decided, and — once the job finishes — what
// actually happened.
type Decision struct {
	Job       int     `json:"job"`
	App       string  `json:"app"`
	SizeGB    float64 `json:"size_gb"`
	TrueClass string  `json:"true_class"` // ground truth from workloads
	PredClass string  `json:"pred_class"` // the online Classify result
	SubmitS   float64 `json:"submit_s"`

	Branch   Branch  `json:"branch"`
	LeapOver int     `json:"leap_over"` // head job ID leapt past (-1 = none)
	Node     int     `json:"node"`
	StartS   float64 `json:"start_s"`

	Method string      `json:"method,omitempty"` // STP technique name
	Path   TunePath    `json:"path"`
	Config string      `json:"config,omitempty"`
	Retune string      `json:"retune,omitempty"` // live re-tuned config (resident side of a pairing)
	Pred   Expectation `json:"pred"`

	Partner   int  `json:"partner"` // most recent co-resident job ID (-1 = none)
	Colocated bool `json:"colocated"`

	Done      bool    `json:"done"`
	FinishS   float64 `json:"finish_s"`
	RunS      float64 `json:"run_s"`
	EnergyJ   float64 `json:"energy_j"`    // equal-share node energy over residency
	EDP       float64 `json:"edp"`         // realized job EDP = EnergyJ × RunS
	RelErrPct float64 `json:"rel_err_pct"` // solo prediction error (-1 = no join)
}

// Pairing is one co-location decision: a resident and the partner the
// decision tree placed next to it, with the pair-level forecast and —
// once both finish — the realized pair EDP over their union residency.
type Pairing struct {
	Node     int         `json:"node"`
	Resident int         `json:"resident"`
	Incoming int         `json:"incoming"`
	AtS      float64     `json:"at_s"`
	Branch   Branch      `json:"branch"`
	Pred     Expectation `json:"pred"` // zero EDP when the tuner fell back to solo

	RealEDP   float64 `json:"real_edp"`    // (Eres+Einc) × (last finish − first start); 0 until both done
	RelErrPct float64 `json:"rel_err_pct"` // -1 = not joined
}

// Join is one predicted-vs-realized EDP comparison produced at job
// completion — the drift detector's input stream. Class is the
// *predicted* class of the tuned job (pair joins use the incoming
// side), matching the per-class error histograms.
type Join struct {
	Job       int     `json:"job"`
	Class     string  `json:"class"`
	Pair      bool    `json:"pair"` // pair-level join vs solo job-level join
	PredEDP   float64 `json:"pred_edp"`
	RealEDP   float64 `json:"real_edp"`
	RelErrPct float64 `json:"rel_err_pct"`
}

// Log is the decision-audit log of a whole control plane. A nil *Log
// is valid and disabled: every method short-circuits on one branch. The
// zero cost matters — the scheduler calls AddEnergy on every
// energy-accrual interval.
//
// The log keeps one set of records per shard, so a record is keyed by
// (shard, job): a stolen job keeps its submit-only record at its home
// shard and gets a fresh one at the thief. Each shard also runs its own
// drift detector over its own joins. The log NewLog returns is shard
// 0's handle; Shard(i) returns shard i's. Every method records into and
// reads from the handle's shard alone (DESIGN.md §30).
type Log struct {
	*book
	*records
}

// book is the state every handle of one log shares.
type book struct {
	mu     sync.Mutex
	cfg    DriftConfig
	shards map[int]*records
}

// records is one shard's part of the log. open indexes the pairings
// not yet joined by member job, each job's in decision order, so a
// completion visits only its own job's pairings.
type records struct {
	jobs     map[int]*Decision
	pairings []*Pairing
	open     map[int][]*Pairing
	joins    []Join
	detector cusum
	alerts   []Alert
}

// NewLog builds an enabled audit log with the given drift-detector
// configuration (zero-value fields fall back to DefaultDriftConfig).
func NewLog(cfg DriftConfig) *Log {
	def := DefaultDriftConfig()
	if cfg.Delta <= 0 {
		cfg.Delta = def.Delta
	}
	if cfg.Lambda <= 0 {
		cfg.Lambda = def.Lambda
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = def.MinSamples
	}
	return (&book{cfg: cfg, shards: map[int]*records{}}).shard(0)
}

// Shard returns shard i's handle on the log. A nil log has nil shards.
func (l *Log) Shard(i int) *Log {
	if l == nil {
		return nil
	}
	return l.book.shard(i)
}

func (b *book) shard(i int) *Log {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.shards[i]
	if r == nil {
		r = &records{jobs: make(map[int]*Decision), open: make(map[int][]*Pairing), detector: cusum{cfg: b.cfg}}
		b.shards[i] = r
	}
	return &Log{b, r}
}

// Enabled reports whether the log records anything.
func (l *Log) Enabled() bool { return l != nil }

// Submit records a job's arrival: identity, observed size, the
// ground-truth class, and the online classifier's verdict.
func (l *Log) Submit(job int, app string, sizeGB float64, trueClass, predClass string, at float64) {
	if l == nil {
		return
	}
	l.submit(job, app, sizeGB, trueClass, predClass, at)
}

func (l *Log) submit(job int, app string, sizeGB float64, trueClass, predClass string, at float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs[job] = &Decision{
		Job: job, App: app, SizeGB: sizeGB,
		TrueClass: trueClass, PredClass: predClass, SubmitS: at,
		LeapOver: -1, Node: -1, Partner: -1, RelErrPct: -1,
	}
}

// Place records the placement decision: which decision-tree branch
// fired and, for leap-forward, which head was leapt past.
func (l *Log) Place(job, node int, at float64, branch Branch, leapOver int) {
	if l == nil {
		return
	}
	l.place(job, node, at, branch, leapOver)
}

func (l *Log) place(job, node int, at float64, branch Branch, leapOver int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.jobs[job]
	if d == nil {
		return
	}
	d.Node = node
	d.StartS = at
	d.Branch = branch
	d.LeapOver = leapOver
}

// Tune records the STP decision for a job: technique, path, chosen
// configuration, and the technique's own outcome forecast (zero
// Expectation when the technique exposes none).
func (l *Log) Tune(job int, method, config string, path TunePath, exp Expectation) {
	if l == nil {
		return
	}
	l.tune(job, method, config, path, exp)
}

func (l *Log) tune(job int, method, config string, path TunePath, exp Expectation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.jobs[job]
	if d == nil {
		return
	}
	d.Method = method
	d.Config = config
	d.Path = path
	d.Pred = exp
}

// Retune records that a resident's live configuration was adjusted when
// a partner arrived (frequency and mapper slots; see scheduler.place).
func (l *Log) Retune(job int, config string) {
	if l == nil {
		return
	}
	l.retune(job, config)
}

func (l *Log) retune(job int, config string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d := l.jobs[job]; d != nil {
		d.Retune = config
	}
}

// Paired records one co-location decision with the pair-level forecast.
func (l *Log) Paired(resident, incoming, node int, at float64, branch Branch, pred Expectation) {
	if l == nil {
		return
	}
	l.paired(resident, incoming, node, at, branch, pred)
}

func (l *Log) paired(resident, incoming, node int, at float64, branch Branch, pred Expectation) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := &Pairing{
		Node: node, Resident: resident, Incoming: incoming,
		AtS: at, Branch: branch, Pred: pred, RelErrPct: -1,
	}
	l.pairings = append(l.pairings, p)
	l.open[resident] = append(l.open[resident], p)
	l.open[incoming] = append(l.open[incoming], p)
	if d := l.jobs[resident]; d != nil {
		d.Partner = incoming
		d.Colocated = true
	}
	if d := l.jobs[incoming]; d != nil {
		d.Partner = resident
		d.Colocated = true
	}
}

// AddEnergy attributes an equal-share slice of node energy to an
// in-flight job — the same share the tracer bills to run spans, so the
// realized join is bit-identical to tracing's JobReport.EnergyJ.
func (l *Log) AddEnergy(job int, joules float64) {
	if l == nil {
		return
	}
	l.addEnergy(job, joules)
}

func (l *Log) addEnergy(job int, joules float64) {
	l.mu.Lock()
	if d := l.jobs[job]; d != nil {
		d.EnergyJ += joules
	}
	l.mu.Unlock()
}

// Complete closes a job's record, computes its realized EDP, and joins
// every prediction that became comparable: the job's own solo forecast
// (never-co-located jobs) and any pairing whose second member just
// finished. Each join feeds the drift detector in completion order —
// deterministic, because the simulation's completion order is. The
// returned joins and alerts let the caller mirror them into metrics.
func (l *Log) Complete(job int, at float64) (joins []Join, alerts []Alert) {
	if l == nil {
		return nil, nil
	}
	return l.complete(job, at)
}

func (l *Log) complete(job int, at float64) (joins []Join, alerts []Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.jobs[job]
	if d == nil || d.Done {
		return nil, nil
	}
	d.Done = true
	d.FinishS = at
	d.RunS = at - d.StartS
	d.EDP = d.EnergyJ * d.RunS

	// Solo join: the job never shared a node, so its solo forecast is
	// directly comparable to its realized EDP.
	if !d.Colocated && d.Pred.EDP > 0 && d.EDP > 0 {
		joins = append(joins, l.recordJoin(Join{
			Job: d.Job, Class: d.PredClass,
			PredEDP: d.Pred.EDP, RealEDP: d.EDP,
			RelErrPct: relErrPct(d.Pred.EDP, d.EDP),
		}))
		d.RelErrPct = joins[len(joins)-1].RelErrPct
	}

	// Pair joins: any pairing whose other member already finished is now
	// fully realized over the union residency window. The job's open
	// pairings come in decision order, the order a walk of every pairing
	// would meet them; a pairing still waiting for its other member
	// stays open under that member.
	for _, p := range l.open[job] {
		a, b := l.jobs[p.Resident], l.jobs[p.Incoming]
		if a == nil || b == nil || !a.Done || !b.Done {
			continue
		}
		span := math.Max(a.FinishS, b.FinishS) - math.Min(a.StartS, b.StartS)
		p.RealEDP = (a.EnergyJ + b.EnergyJ) * span
		if p.Pred.EDP > 0 && p.RealEDP > 0 {
			p.RelErrPct = relErrPct(p.Pred.EDP, p.RealEDP)
			joins = append(joins, l.recordJoin(Join{
				Job: b.Job, Class: b.PredClass, Pair: true,
				PredEDP: p.Pred.EDP, RealEDP: p.RealEDP, RelErrPct: p.RelErrPct,
			}))
		}
	}

	delete(l.open, job)

	// Feed the detector in join order.
	for _, j := range joins {
		if a, fired := l.detector.observe(j.RelErrPct); fired {
			a.AtS = at
			a.Job = job
			l.alerts = append(l.alerts, a)
			alerts = append(alerts, a)
		}
	}
	return joins, alerts
}

func (l *Log) recordJoin(j Join) Join {
	l.joins = append(l.joins, j)
	return j
}

// relErrPct is the relative prediction error in percent of realized.
func relErrPct(pred, real float64) float64 {
	return 100 * math.Abs(pred-real) / real
}

// Decisions returns a copy of all records in job-ID order.
func (l *Log) Decisions() []Decision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Decision, 0, len(l.jobs))
	for _, d := range l.jobs {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// Pairings returns a copy of all co-location records in decision order.
func (l *Log) Pairings() []Pairing {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Pairing, 0, len(l.pairings))
	for _, p := range l.pairings {
		out = append(out, *p)
	}
	return out
}

// Joins returns a copy of all predicted-vs-realized comparisons in
// completion order (the drift detector's input stream).
func (l *Log) Joins() []Join {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Join(nil), l.joins...)
}

// Alerts returns a copy of all drift alerts fired so far.
func (l *Log) Alerts() []Alert {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Alert(nil), l.alerts...)
}

// WriteJSONL streams the audit log as JSON Lines: one Decision object
// per line in job-ID order. All values derive from simulated state, so
// the bytes are identical across same-seed runs at any GOMAXPROCS.
func (l *Log) WriteJSONL(w io.Writer) error {
	for _, d := range l.Decisions() {
		b, err := json.Marshal(d)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
