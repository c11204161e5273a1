package metrics

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(0.5)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", LinearBuckets(10, 10, 10)) // 10,20,…,100
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %v", h.Sum())
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 50, 10},
		{0.95, 95, 10},
		{0.99, 99, 10},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("p%.0f = %v, want %v ± %v", 100*tc.q, got, tc.want, tc.tol)
		}
	}
	// Quantiles clamp to observed extremes.
	if q := h.Quantile(1); q > 100 {
		t.Errorf("p100 = %v exceeds observed max", q)
	}
	if q := h.Quantile(0.001); q < 1 {
		t.Errorf("p0.1 = %v below observed min", q)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(1000)
	if got := h.Quantile(0.5); got != 1000 {
		t.Fatalf("overflow quantile = %v, want the observed max", got)
	}
}

func TestSeriesDecimation(t *testing.T) {
	s := newSeries()
	s.budget = 8
	for i := 0; i < 100; i++ {
		s.Sample(float64(i), float64(i))
	}
	pts := s.Points()
	if len(pts) == 0 || len(pts) >= 8 {
		t.Fatalf("retained %d points, want 0 < n < budget", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].At <= pts[i-1].At {
			t.Fatalf("points out of order after decimation: %v", pts)
		}
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	r.Gauge("x").Set(1)
	r.Gauge("x").Add(1)
	r.Histogram("x", nil).Observe(1)
	r.VolatileHistogram("x", nil).Observe(1)
	r.Series("x").Sample(0, 1)
	r.Emit(Event{Kind: EvSubmit})
	if r.Counter("x").Value() != 0 || r.Gauge("x").Value() != 0 ||
		r.Histogram("x", nil).Count() != 0 || r.Histogram("x", nil).Quantile(0.5) != 0 {
		t.Fatal("nil instruments reported values")
	}
	if r.Events() != nil || r.EventCount() != 0 || r.Series("x").Points() != nil {
		t.Fatal("nil registry reported state")
	}
	if r.Shard(2) != nil {
		t.Fatal("nil registry has a non-nil shard")
	}
	snap := r.Snapshot(true)
	var buf bytes.Buffer
	if err := snap.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestRegistryShards checks that one name names one instrument per
// shard, that the snapshot sorts by name and then shard, and that a
// shard's part of it holds exactly that shard's instruments and events
// in order.
func TestRegistryShards(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(1)
	r.Shard(1).Counter("b").Add(2)
	r.Shard(1).Counter("a").Add(3)
	if r.Shard(0).Counter("b") != r.Counter("b") || r.Shard(1).Counter("b") == r.Counter("b") {
		t.Fatal("shard 0's handle and the registry disagree, or shards share an instrument")
	}
	r.Shard(1).Emit(Event{Kind: EvSubmit, Job: 1})
	r.Emit(Event{Kind: EvSubmit, Job: 0})
	r.Shard(1).Emit(Event{Kind: EvComplete, Job: 1})

	snap := r.Snapshot(false)
	var got []string
	for _, c := range snap.Counters {
		got = append(got, fmt.Sprintf("%s@%d=%d", c.Name, c.Shard, c.Value))
	}
	if want := "a@1=3 b@0=1 b@1=2"; strings.Join(got, " ") != want {
		t.Fatalf("counters = %v, want %s", got, want)
	}
	one := snap.Shard(1)
	if len(one.Counters) != 2 || one.Counters[0].Name != "a" || one.Counters[1].Value != 2 {
		t.Fatalf("shard 1 counters = %+v", one.Counters)
	}
	if len(one.Events) != 2 || one.Events[0].Kind != EvSubmit || one.Events[1].Kind != EvComplete {
		t.Fatalf("shard 1 events = %+v", one.Events)
	}
	if zero := snap.Shard(0); len(zero.Counters) != 1 || len(zero.Events) != 1 || zero.Events[0].Job != 0 {
		t.Fatalf("shard 0 part = %+v", zero)
	}
}

func TestEventLogOrderAndKinds(t *testing.T) {
	r := NewRegistry()
	kinds := []EventKind{EvSubmit, EvLeap, EvReserve, EvPair, EvTune, EvComplete}
	for i, k := range kinds {
		r.Emit(Event{At: float64(i), Kind: k, Job: i, Node: -1})
	}
	evs := r.Events()
	if len(evs) != len(kinds) {
		t.Fatalf("logged %d events, want %d", len(evs), len(kinds))
	}
	seen := map[string]bool{}
	for i, e := range evs {
		if e.Kind != kinds[i] {
			t.Fatalf("event %d kind %v, want %v", i, e.Kind, kinds[i])
		}
		if s := e.Kind.String(); s == "unknown" || seen[s] {
			t.Fatalf("kind %d renders %q", e.Kind, s)
		}
		seen[e.Kind.String()] = true
	}
}

func TestSnapshotDeterministicAndSorted(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.count").Add(3)
		r.Counter("a.count").Inc()
		r.Gauge("m.gauge").Set(1.25)
		h := r.Histogram("wait", ExpBuckets(1, 2, 10))
		for _, v := range []float64{1, 3, 9, 27} {
			h.Observe(v)
		}
		r.VolatileHistogram("wall_ns", ExpBuckets(100, 10, 5)).Observe(1234)
		se := r.Series("depth")
		se.Sample(0, 1)
		se.Sample(10, 2)
		r.Emit(Event{At: 0, Kind: EvSubmit, Job: 0, Node: -1, Detail: "wc@5G"})
		return r
	}
	text := func(r *Registry, vol bool) string {
		var buf bytes.Buffer
		if err := r.Snapshot(vol).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := text(build(), false), text(build(), false)
	if a != b {
		t.Fatalf("snapshot text not deterministic:\n%s\nvs\n%s", a, b)
	}
	if bytes.Contains([]byte(a), []byte("wall_ns")) {
		t.Fatal("volatile histogram leaked into the deterministic exposition")
	}
	if !bytes.Contains([]byte(text(build(), true)), []byte("wall_ns")) {
		t.Fatal("volatile histogram missing from the full exposition")
	}
	// Counters come out name-sorted.
	snap := build().Snapshot(false)
	if snap.Counters[0].Name != "a.count" || snap.Counters[1].Name != "z.count" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	var jsonBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(jsonBuf.Bytes(), []byte(`"kind": "submit"`)) {
		t.Fatalf("JSON exposition lacks readable event kinds:\n%s", jsonBuf.String())
	}
}

// TestConcurrentInstruments hammers one registry from many goroutines;
// run under -race this is the data-race check the CI race job relies on.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h", ExpBuckets(1, 2, 8)).Observe(float64(i % 50))
				r.Series("s").Sample(float64(i), float64(g))
				if i%100 == 0 {
					r.Emit(Event{At: float64(i), Kind: EvTune, Job: g, Node: -1})
					_ = r.Snapshot(true) // snapshots race with writers
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := r.Gauge("g").Value(); got != goroutines*per {
		t.Fatalf("gauge = %v, want %v", got, goroutines*per)
	}
	if got := r.Histogram("h", nil).Count(); got != goroutines*per {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*per)
	}
	if got := r.EventCount(); got != goroutines*(per/100) {
		t.Fatalf("events = %d, want %d", got, goroutines*(per/100))
	}
}

// BenchmarkDisabledCounter proves the disabled-registry path is a
// single nil check (≤1 ns/op): instrumented code resolves handles once
// and hot paths hit nil instruments.
func BenchmarkDisabledCounter(b *testing.B) {
	var c *Counter // what a nil registry hands out
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkDisabledHistogram is the disabled path for Observe.
func BenchmarkDisabledHistogram(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1)
	}
}

// BenchmarkEnabledCounter is the enabled cost for contrast.
func BenchmarkEnabledCounter(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func TestVolatileGaugeExcludedFromSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Gauge("stable").Set(1)
	r.VolatileGauge("wall").Set(123.4)
	snap := r.Snapshot(false)
	for _, g := range snap.Gauges {
		if g.Name == "wall" {
			t.Fatal("volatile gauge leaked into deterministic snapshot")
		}
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "stable" {
		t.Fatalf("deterministic gauges = %+v, want just stable", snap.Gauges)
	}
	full := r.Snapshot(true)
	found := false
	for _, g := range full.Gauges {
		if g.Name == "wall" {
			found = true
			if !g.Volatile {
				t.Fatal("wall gauge snapshot not marked volatile")
			}
			if g.Value != 123.4 {
				t.Fatalf("wall gauge = %v, want 123.4", g.Value)
			}
		}
	}
	if !found {
		t.Fatal("volatile gauge missing from includeVolatile snapshot")
	}
	var buf bytes.Buffer
	if err := full.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("(volatile)")) {
		t.Fatal("text exposition does not tag the volatile gauge")
	}
	if r.VolatileGauge("wall") != r.Gauge("wall") {
		t.Fatal("volatile gauge lookup returned a different instrument")
	}
}
