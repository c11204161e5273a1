package trace

import (
	"math"
	"testing"
	"testing/quick"

	"ecost/internal/workloads"
)

// classCounts tallies arrivals per class.
func classCounts(tr []Arrival) map[workloads.Class]int {
	out := map[workloads.Class]int{}
	for _, a := range tr {
		out[a.App.Class()]++
	}
	return out
}

func TestGenerateBasics(t *testing.T) {
	tr, err := Generate(Spec{N: 100, MeanInterarrival: 60, Poisson: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 100 {
		t.Fatalf("generated %d arrivals", len(tr))
	}
	prev := -1.0
	for _, a := range tr {
		if a.At < prev {
			t.Fatal("arrivals not time-ordered")
		}
		prev = a.At
		if a.SizeGB != 1 && a.SizeGB != 5 && a.SizeGB != 10 {
			t.Fatalf("size %v outside the studied set", a.SizeGB)
		}
		if a.App.Name() == "" {
			t.Fatal("empty application")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{N: 50, MeanInterarrival: 30, Poisson: true, Seed: 7}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at arrival %d", i)
		}
	}
	c, err := Generate(Spec{N: 50, MeanInterarrival: 30, Poisson: true, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i].App.Name() == c[i].App.Name() && a[i].SizeGB == c[i].SizeGB {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateBatchMode(t *testing.T) {
	tr, err := Generate(Spec{N: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range tr {
		if a.At != 0 {
			t.Fatalf("batch-mode arrival at %v, want 0", a.At)
		}
	}
}

func TestGenerateFixedInterarrival(t *testing.T) {
	tr, err := Generate(Spec{N: 5, MeanInterarrival: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range tr {
		if math.Abs(a.At-float64(i)*100) > 1e-9 {
			t.Fatalf("arrival %d at %v, want %v", i, a.At, float64(i)*100)
		}
	}
}

func TestGenerateClassMix(t *testing.T) {
	tr, err := Generate(Spec{
		N:    400,
		Mix:  map[workloads.Class]float64{workloads.IOBound: 3, workloads.Compute: 1},
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := classCounts(tr)
	if counts[workloads.Hybrid] != 0 || counts[workloads.MemBound] != 0 {
		t.Fatalf("unselected classes drawn: %v", counts)
	}
	ratio := float64(counts[workloads.IOBound]) / float64(counts[workloads.Compute])
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("I:C ratio = %v, want ≈3", ratio)
	}
}

func TestGenerateUnknownOnly(t *testing.T) {
	tr, err := Generate(Spec{N: 60, UnknownOnly: true, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, a := range workloads.Training() {
		known[a.Name] = true
	}
	for _, a := range tr {
		if known[a.App.Name()] {
			t.Fatalf("training app %s in unknown-only trace", a.App.Name())
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Generate(Spec{N: 5, Sizes: []float64{-1}}); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := Generate(Spec{N: 5, Mix: map[workloads.Class]float64{workloads.Compute: -1}}); err == nil {
		t.Error("negative mix weight accepted")
	}
	zero := map[workloads.Class]float64{workloads.Compute: 0}
	if _, err := Generate(Spec{N: 5, Mix: zero}); err == nil {
		t.Error("all-zero mix accepted")
	}
}

func TestPoissonMeanProperty(t *testing.T) {
	tr, err := Generate(Spec{N: 3000, MeanInterarrival: 50, Poisson: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	last := tr[len(tr)-1].At
	mean := last / float64(len(tr)-1)
	if math.Abs(mean-50) > 4 {
		t.Fatalf("empirical inter-arrival mean = %v, want ≈50", mean)
	}
}

func TestGenerateSizesProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%50 + 1
		tr, err := Generate(Spec{N: n, Sizes: []float64{2, 4}, Seed: seed})
		if err != nil {
			return false
		}
		for _, a := range tr {
			if a.SizeGB != 2 && a.SizeGB != 4 {
				return false
			}
		}
		return len(tr) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
