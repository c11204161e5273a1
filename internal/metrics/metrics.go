// Package metrics is the observability substrate of the ECoST
// controller: a small, allocation-light, stdlib-only registry of atomic
// counters, gauges, fixed-bucket histograms (with p50/p95/p99 summaries)
// and sim-time series samplers, plus a typed scheduler event log
// (events.go).
//
// Two properties shape the design:
//
//  1. The simulator is deterministic, so every metric derived from
//     simulated quantities is deterministic too — Snapshot() sorts all
//     names and the text/JSON expositions are byte-identical across
//     same-seed runs. Wall-clock measurements (e.g. STP prediction
//     latency) are real and therefore jittery; instruments that carry
//     them are marked volatile and excluded from the deterministic
//     exposition unless explicitly requested.
//
//  2. Instrumented hot paths must cost nothing when observability is
//     off. Every method is nil-safe: a nil *Registry hands out nil
//     instruments, and operations on nil instruments are single-branch
//     no-ops (see BenchmarkDisabledCounter — sub-nanosecond).
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v       atomic.Int64
	volatil bool // operational instrument: excluded from deterministic snapshots
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Volatile reports whether the counter is excluded from deterministic
// snapshots (implementation-effort telemetry like cache hit rates,
// which must not leak into golden expositions).
func (c *Counter) Volatile() bool { return c != nil && c.volatil }

// atomicFloat is a float64 updated with compare-and-swap on its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) min(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (f *atomicFloat) max(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Gauge is an instantaneous value (queue depth, accumulated joules).
type Gauge struct {
	v       atomicFloat
	volatil bool // wall-clock instrument: excluded from deterministic snapshots
}

// Set stores the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v.store(v)
	}
}

// Add accumulates a delta.
func (g *Gauge) Add(v float64) {
	if g != nil {
		g.v.add(v)
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// Volatile reports whether the gauge carries wall-clock readings.
func (g *Gauge) Volatile() bool { return g != nil && g.volatil }

// Histogram is a fixed-bucket histogram: observations land in the first
// bucket whose upper bound is ≥ the value, with an implicit +Inf
// overflow bucket. Quantiles are estimated by linear interpolation
// within the bucket, clamped to the observed min/max.
type Histogram struct {
	bounds   []float64 // sorted upper bounds
	counts   []atomic.Int64
	count    atomic.Int64
	sum      atomicFloat
	min, max atomicFloat
	volatil  bool // wall-clock instrument: excluded from deterministic snapshots
}

func newHistogram(bounds []float64, volatil bool) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{bounds: bs, counts: make([]atomic.Int64, len(bs)+1), volatil: volatil}
	h.min.store(math.Inf(1))
	h.max.store(math.Inf(-1))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// The nil branch must stay small enough to inline: disabled
	// observability compiles down to a compare-and-return at call sites.
	if h == nil {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.min(v)
	h.max.max(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts.
// It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	mn, mx := h.min.load(), h.max.load()
	rank := q * float64(n)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := mn
			if i > 0 {
				lo = math.Max(mn, h.bounds[i-1])
			}
			hi := mx
			if i < len(h.bounds) {
				hi = math.Min(mx, h.bounds[i])
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*((rank-cum)/c)
		}
		cum += c
	}
	return mx
}

// Volatile reports whether the histogram carries wall-clock readings.
func (h *Histogram) Volatile() bool { return h != nil && h.volatil }

// Point is one series sample.
type Point struct {
	At float64 `json:"at"`
	V  float64 `json:"v"`
}

// Series records a value over simulated time. When the point budget is
// exhausted it decimates deterministically: every other retained point
// is dropped and the sampling stride doubles, so long runs keep a
// bounded, evenly thinned trace.
type Series struct {
	mu     sync.Mutex
	pts    []Point
	stride int
	phase  int
	budget int
}

// defaultSeriesBudget bounds a series' retained points.
const defaultSeriesBudget = 4096

func newSeries() *Series { return &Series{stride: 1, budget: defaultSeriesBudget} }

// Sample appends the value v at sim-time t.
func (s *Series) Sample(t, v float64) {
	// Inlineable nil branch; see Histogram.Observe.
	if s == nil {
		return
	}
	s.sample(t, v)
}

func (s *Series) sample(t, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phase++
	if s.phase < s.stride {
		return
	}
	s.phase = 0
	s.pts = append(s.pts, Point{At: t, V: v})
	if len(s.pts) >= s.budget {
		kept := s.pts[:0]
		for i := 0; i < len(s.pts); i += 2 {
			kept = append(kept, s.pts[i])
		}
		s.pts = kept
		s.stride *= 2
	}
}

// Points returns a copy of the retained samples in arrival order.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.pts...)
}

// Registry owns the named instruments of a whole control plane. The
// zero value is not usable; construct with NewRegistry. A nil
// *Registry is the disabled mode: every lookup returns a nil instrument
// whose operations are no-ops.
//
// Every instrument and event carries the index of the shard that
// recorded it. The registry NewRegistry returns records as shard 0;
// Shard(i) returns the handle shard i records through. The same name
// names one instrument per shard, and Snapshot, from any handle, covers
// every shard (DESIGN.md §30).
type Registry struct {
	*instruments
	shard int
}

// instruments is the state every handle of one registry shares.
type instruments struct {
	mu       sync.Mutex
	counters map[instKey]*Counter
	gauges   map[instKey]*Gauge
	hists    map[instKey]*Histogram
	series   map[instKey]*Series
	events   []Event
}

// instKey names one shard's instrument.
type instKey struct {
	shard int
	name  string
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{instruments: &instruments{
		counters: map[instKey]*Counter{},
		gauges:   map[instKey]*Gauge{},
		hists:    map[instKey]*Histogram{},
		series:   map[instKey]*Series{},
	}}
}

// Shard returns the handle shard i records through: its instruments
// and events carry i. A nil registry has nil shards.
func (r *Registry) Shard(i int) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{instruments: r.instruments, shard: i}
}

// lookup returns the handle's shard's instrument called name in m,
// creating it with mk on first use.
func lookup[T any](r *Registry, m map[instKey]*T, name string, mk func() *T) *T {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := instKey{r.shard, name}
	v, ok := m[k]
	if !ok {
		v = mk()
		m[k] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.counter(name, false)
}

// VolatileCounter is Counter for implementation-effort telemetry
// (e.g. memoization hit/miss rates): the instrument is excluded from
// deterministic snapshots, so optimizations that change how often it
// fires — without changing any simulated outcome — leave the golden
// expositions byte-identical.
func (r *Registry) VolatileCounter(name string) *Counter {
	return r.counter(name, true)
}

func (r *Registry) counter(name string, volatil bool) *Counter {
	if r == nil {
		return nil
	}
	return lookup(r, r.counters, name, func() *Counter { return &Counter{volatil: volatil} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.gauge(name, false)
}

// VolatileGauge is Gauge for wall-clock measurements (build and train
// durations): the instrument is excluded from deterministic snapshots.
func (r *Registry) VolatileGauge(name string) *Gauge {
	return r.gauge(name, true)
}

func (r *Registry) gauge(name string, volatil bool) *Gauge {
	if r == nil {
		return nil
	}
	return lookup(r, r.gauges, name, func() *Gauge { return &Gauge{volatil: volatil} })
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// instrument and ignore the bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.histogram(name, bounds, false)
}

// VolatileHistogram is Histogram for wall-clock measurements: the
// instrument is excluded from deterministic snapshots.
func (r *Registry) VolatileHistogram(name string, bounds []float64) *Histogram {
	return r.histogram(name, bounds, true)
}

func (r *Registry) histogram(name string, bounds []float64, volatil bool) *Histogram {
	if r == nil {
		return nil
	}
	return lookup(r, r.hists, name, func() *Histogram { return newHistogram(bounds, volatil) })
}

// Series returns the named series, creating it on first use.
func (r *Registry) Series(name string) *Series {
	if r == nil {
		return nil
	}
	return lookup(r, r.series, name, newSeries)
}

// ExpBuckets returns n exponential bucket bounds start, start·factor, …
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		out = append(out, v)
		v *= factor
	}
	return out
}

// LinearBuckets returns n linear bucket bounds start, start+width, …
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, start+float64(i)*width)
	}
	return out
}
