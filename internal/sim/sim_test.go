package sim

import (
	"math"
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
