package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := NewRNG(7).Split(1)
	for i := 0; i < 100; i++ {
		if c1.Float64() != c1again.Float64() {
			t.Fatalf("Split not deterministic at draw %d", i)
		}
	}
	// Different ids should produce different streams.
	c1 = NewRNG(7).Split(1)
	diff := false
	for i := 0; i < 20; i++ {
		if c1.Float64() != c2.Float64() {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("Split(1) and Split(2) produced identical streams")
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(3)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := g.Normal(5, 2)
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %v, want ~5", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Errorf("std = %v, want ~2", std)
	}
}

func TestJitterPositive(t *testing.T) {
	g := NewRNG(9)
	f := func(x float64) bool {
		ax := math.Abs(x) + 0.001
		return g.Jitter(ax, 0.5) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExpMean(t *testing.T) {
	g := NewRNG(11)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exp(3)
	}
	if mean := sum / float64(n); math.Abs(mean-3) > 0.1 {
		t.Errorf("exp mean = %v, want ~3", mean)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.RunThrough(math.Inf(1))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.RunThrough(math.Inf(1))
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-timestamp events not FIFO: %v", order)
	}
}

func TestEngineCascade(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	e.RunThrough(math.Inf(1))
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(1, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
	e.RunThrough(math.Inf(1))
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEnginePastSchedulingClamped(t *testing.T) {
	e := NewEngine()
	var at float64 = -1
	e.At(5, func() {
		e.At(1, func() { at = e.Now() }) // in the past: clamped to now
	})
	e.RunThrough(math.Inf(1))
	if at != 5 {
		t.Fatalf("past-scheduled event fired at %v, want 5", at)
	}
}

func TestEngineStepCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(float64(i), func() {})
	}
	n := 0
	for e.Step() {
		n++
	}
	if n != 7 || e.Fired() != 7 {
		t.Fatalf("stepped %d fired %d, want 7", n, e.Fired())
	}
}

func TestEngineNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt reported an event on an empty engine")
	}
	e.At(3, func() {})
	e.At(1, func() {})
	if at, ok := e.NextAt(); !ok || at != 1 {
		t.Fatalf("NextAt = %v,%v, want 1,true", at, ok)
	}
	e.Step()
	if at, ok := e.NextAt(); !ok || at != 3 {
		t.Fatalf("NextAt after Step = %v,%v, want 3,true", at, ok)
	}
}

func TestEngineRunThrough(t *testing.T) {
	e := NewEngine()
	var fired []float64
	for _, at := range []float64{1, 2, 2, 3, 5} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunThrough(2)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 2 {
		t.Fatalf("RunThrough(2) fired %v, want [1 2 2]", fired)
	}
	// The clock stops at the last fired event, not at the barrier.
	if e.Now() != 2 {
		t.Fatalf("Now = %v after RunThrough(2), want 2", e.Now())
	}
	e.RunThrough(4)
	if e.Now() != 3 {
		t.Fatalf("Now = %v after RunThrough(4), want 3", e.Now())
	}
	e.RunThrough(10)
	if len(fired) != 5 || e.Now() != 5 {
		t.Fatalf("fired %v Now %v, want all 5 events and Now=5", fired, e.Now())
	}
}

func TestEngineRunThroughCascades(t *testing.T) {
	// An event firing at t may schedule another event at <= barrier;
	// RunThrough must drain it in the same pass.
	e := NewEngine()
	var got []float64
	e.At(1, func() {
		got = append(got, e.Now())
		e.At(2, func() { got = append(got, e.Now()) })
	})
	e.RunThrough(2)
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("cascaded event not drained: fired %v", got)
	}
}

func TestEngineAtHeadPriority(t *testing.T) {
	e := NewEngine()
	var got []string
	// Scheduled first, but At events at the same timestamp must yield to
	// a later-scheduled AtHead event.
	e.At(5, func() { got = append(got, "at") })
	e.AtHead(5, func() { got = append(got, "head") })
	e.At(5, func() { got = append(got, "at2") })
	e.RunThrough(math.Inf(1))
	if len(got) != 3 || got[0] != "head" || got[1] != "at" || got[2] != "at2" {
		t.Fatalf("fired %v, want [head at at2]", got)
	}
	// Distinct timestamps still order by time.
	e2 := NewEngine()
	got = nil
	e2.AtHead(7, func() { got = append(got, "head7") })
	e2.At(6, func() { got = append(got, "at6") })
	e2.RunThrough(math.Inf(1))
	if len(got) != 2 || got[0] != "at6" || got[1] != "head7" {
		t.Fatalf("fired %v, want [at6 head7]", got)
	}
}

func TestEngineRecycle(t *testing.T) {
	e := NewEngine()
	var fired []float64
	ev1 := e.At(1, func() { fired = append(fired, 1) })
	e.Step()
	// The fired event must be reused by the next schedule.
	ev2 := e.At(2, func() { fired = append(fired, 2) })
	if ev1 != ev2 {
		t.Fatal("fired event was not recycled by the next At")
	}
	// Cancelled events recycle too.
	if !e.Cancel(ev2) {
		t.Fatal("Cancel failed on a live event")
	}
	ev3 := e.At(3, func() { fired = append(fired, 3) })
	if ev3 != ev2 {
		t.Fatal("cancelled event was not recycled by the next At")
	}
	e.RunThrough(math.Inf(1))
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired %v, want [1 3] (event 2 cancelled)", fired)
	}
	// Ordering semantics are unchanged under recycling: interleaved
	// schedules and cascades fire in (At, seq) order.
	var got []float64
	e.At(10, func() {
		got = append(got, e.Now())
		e.At(11, func() { got = append(got, e.Now()) })
	})
	e.At(11, func() { got = append(got, 11.5) }) // seq before the cascade's 11
	e.RunThrough(math.Inf(1))
	if len(got) != 3 || got[0] != 10 || got[1] != 11.5 || got[2] != 11 {
		t.Fatalf("recycled ordering diverged: %v, want [10 11.5 11]", got)
	}
}
