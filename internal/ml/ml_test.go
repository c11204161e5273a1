package ml

import (
	"math"
	"testing"
	"testing/quick"

	"ecost/internal/sim"
)

// synthLinear builds y = 3 + 2x₀ − x₁ + noise.
func synthLinear(n int, noise float64, seed int64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0 := rng.Float64()*10 - 5
		x1 := rng.Float64()*4 - 2
		X[i] = []float64{x0, x1}
		y[i] = 3 + 2*x0 - x1 + rng.Normal(0, noise)
	}
	return X, y
}

// synthStep builds a piecewise-constant target no linear model can fit.
func synthStep(n int, seed int64) ([][]float64, []float64) {
	rng := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0 := rng.Float64() * 10
		x1 := rng.Float64() * 10
		X[i] = []float64{x0, x1}
		switch {
		case x0 < 3 && x1 < 5:
			y[i] = 10
		case x0 < 3:
			y[i] = -4
		case x1 < 7:
			y[i] = 2
		default:
			y[i] = 25
		}
	}
	return X, y
}

func TestAPE(t *testing.T) {
	if got := APE(110, 100); math.Abs(got-10) > 1e-12 {
		t.Fatalf("APE(110,100) = %v", got)
	}
	if got := APE(0, 0); got != 0 {
		t.Fatalf("APE(0,0) = %v", got)
	}
	if got := APE(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("APE(1,0) = %v, want +Inf", got)
	}
	f := func(p, tr float64) bool {
		tr = math.Mod(math.Abs(tr), 1e6) + 1
		p = math.Mod(math.Abs(p), 1e6)
		return APE(p, tr) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMetrics(t *testing.T) {
	pred := []float64{1, 2, 3}
	truth := []float64{2, 2, 2}
	if got := RMSE(pred, truth); math.Abs(got-math.Sqrt(2.0/3)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}

}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 100, 7}, {3, 200, 7}, {5, 300, 7}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	Z := s.TransformAll(X)
	for j := 0; j < 2; j++ {
		var sum, sq float64
		for i := range Z {
			sum += Z[i][j]
		}
		mean := sum / 3
		for i := range Z {
			d := Z[i][j] - mean
			sq += d * d
		}
		if math.Abs(mean) > 1e-9 || math.Abs(math.Sqrt(sq/3)-1) > 1e-9 {
			t.Errorf("column %d not standardized: mean=%v", j, mean)
		}
	}
	// Constant column passes through centred, not NaN.
	if Z[0][2] != 0 || math.IsNaN(Z[1][2]) {
		t.Errorf("constant column mishandled: %v", Z)
	}
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	X, y := synthLinear(500, 0.01, 1)
	m := NewLinearRegression()
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-3) > 0.05 {
		t.Errorf("intercept = %v, want ~3", m.Intercept)
	}
	if math.Abs(m.Weights[0]-2) > 0.05 || math.Abs(m.Weights[1]+1) > 0.05 {
		t.Errorf("weights = %v, want ~[2,-1]", m.Weights)
	}
	if got := m.Predict([]float64{1, 1}); math.Abs(got-4) > 0.2 {
		t.Errorf("Predict(1,1) = %v, want ~4", got)
	}
}

func TestLinearRegressionValidation(t *testing.T) {
	m := NewLinearRegression()
	if err := m.Train(nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
	if err := m.Train([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("mismatched rows accepted")
	}
	if err := m.Train([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged matrix accepted")
	}
	if err := m.Train([][]float64{{1}, {2}}, []float64{1, math.NaN()}); err == nil {
		t.Error("NaN target accepted")
	}
}

func TestREPTreeFitsStepFunction(t *testing.T) {
	X, y := synthStep(800, 2)
	Xt, yt := synthStep(200, 3)

	tree := NewREPTree()
	if err := tree.Train(X, y); err != nil {
		t.Fatal(err)
	}
	var pred []float64
	for _, x := range Xt {
		pred = append(pred, tree.Predict(x))
	}
	if rmse := RMSE(pred, yt); rmse > 1.0 {
		t.Fatalf("REPTree RMSE on step function = %v, want ≈0", rmse)
	}
	if tree.Leaves() < 4 {
		t.Fatalf("tree has %d leaves, want ≥4 for 4 regions", tree.Leaves())
	}

	// Linear regression must be much worse on the same data — the
	// paper's core observation about LR for EDP prediction.
	lr := NewLinearRegression()
	if err := lr.Train(X, y); err != nil {
		t.Fatal(err)
	}
	var lpred []float64
	for _, x := range Xt {
		lpred = append(lpred, lr.Predict(x))
	}
	if lr, tr := RMSE(lpred, yt), RMSE(pred, yt); lr < 5*tr+1 {
		t.Fatalf("LR (%v) should be far worse than REPTree (%v) on non-linear data", lr, tr)
	}
}

func TestREPTreePruningShrinksTree(t *testing.T) {
	// With noisy targets, reduced-error pruning must cut leaves relative
	// to an unpruned tree.
	rng := sim.NewRNG(5)
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.Float64() * 10}
		base := 0.0
		if X[i][0] > 5 {
			base = 10
		}
		y[i] = base + rng.Normal(0, 3)
	}
	unpruned := NewREPTree()
	unpruned.PruneFrac = 0
	unpruned.MinLeaf = 1
	if err := unpruned.Train(X, y); err != nil {
		t.Fatal(err)
	}
	pruned := NewREPTree()
	pruned.MinLeaf = 1
	if err := pruned.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if pruned.Leaves() >= unpruned.Leaves() {
		t.Fatalf("pruned %d leaves vs unpruned %d: pruning had no effect",
			pruned.Leaves(), unpruned.Leaves())
	}
}

func TestREPTreeDeterministic(t *testing.T) {
	X, y := synthStep(300, 7)
	a, b := NewREPTree(), NewREPTree()
	if err := a.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(X, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		x := []float64{float64(i) / 5, float64(50-i) / 5}
		if a.Predict(x) != b.Predict(x) {
			t.Fatal("same-seed trees disagree")
		}
	}
}

func TestMLPFitsNonlinear(t *testing.T) {
	// y = sin(x) on [0, 2π]: linear fails, MLP should fit closely.
	rng := sim.NewRNG(11)
	n := 600
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := rng.Float64() * 2 * math.Pi
		X[i] = []float64{x}
		y[i] = math.Sin(x)
	}
	m := NewMLP()
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	var worst float64
	for k := 0; k < 50; k++ {
		x := 0.1 + float64(k)*(2*math.Pi-0.2)/49
		if d := math.Abs(m.Predict([]float64{x}) - math.Sin(x)); d > worst {
			worst = d
		}
	}
	if worst > 0.15 {
		t.Fatalf("MLP worst-case error on sin = %v, want < 0.15", worst)
	}
}

func TestMLPDeterministic(t *testing.T) {
	X, y := synthLinear(100, 0.1, 13)
	a, b := NewMLP(), NewMLP()
	a.Epochs, b.Epochs = 50, 50
	if err := a.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if a.Predict([]float64{1, 1}) != b.Predict([]float64{1, 1}) {
		t.Fatal("same-seed MLPs disagree")
	}
}

func TestMLPUntrainedPredictsZero(t *testing.T) {
	if got := NewMLP().Predict([]float64{1, 2}); got != 0 {
		t.Fatalf("untrained MLP predicted %v", got)
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Points stretched along (1,1): PC1 must align with it and carry most
	// of the variance.
	rng := sim.NewRNG(19)
	n := 500
	X := make([][]float64, n)
	for i := range X {
		t1 := rng.Normal(0, 5)
		t2 := rng.Normal(0, 0.5)
		X[i] = []float64{t1 + t2, t1 - t2}
	}
	p, err := FitPCA(X)
	if err != nil {
		t.Fatal(err)
	}
	if ev := p.ExplainedVariance(1); ev < 0.9 {
		t.Fatalf("PC1 explains %v, want > 0.9", ev)
	}
	c := p.Components[0]
	if math.Abs(math.Abs(c[0])-math.Abs(c[1])) > 0.05 {
		t.Fatalf("PC1 = %v, want ~(±.707, ±.707)", c)
	}
	// Components are orthonormal.
	var dot, n0, n1 float64
	for i := range c {
		dot += p.Components[0][i] * p.Components[1][i]
		n0 += p.Components[0][i] * p.Components[0][i]
		n1 += p.Components[1][i] * p.Components[1][i]
	}
	if math.Abs(dot) > 1e-6 || math.Abs(n0-1) > 1e-6 || math.Abs(n1-1) > 1e-6 {
		t.Fatalf("components not orthonormal: dot=%v norms=%v,%v", dot, n0, n1)
	}
}

func TestPCAExplainedVarianceMonotone(t *testing.T) {
	X, _ := synthStep(100, 23)
	p, err := FitPCA(X)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for k := 0; k <= len(p.Variances); k++ {
		ev := p.ExplainedVariance(k)
		if ev < prev-1e-12 {
			t.Fatalf("explained variance not monotone at k=%d", k)
		}
		prev = ev
	}
	if math.Abs(p.ExplainedVariance(len(p.Variances))-1) > 1e-9 {
		t.Fatal("all components should explain 100%")
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := FitPCA(nil); err == nil {
		t.Error("empty PCA accepted")
	}
	if _, err := FitPCA([][]float64{{1, 2}}); err == nil {
		t.Error("single-row PCA accepted")
	}
}

func TestHClusterSeparatesGroups(t *testing.T) {
	// Three tight groups far apart: cutting at k=3 must recover them.
	X := [][]float64{
		{0, 0}, {0.1, 0}, {0, 0.1},
		{10, 10}, {10.1, 10}, {10, 10.1},
		{-10, 10}, {-10.1, 10},
	}
	for _, link := range []Linkage{SingleLinkage, CompleteLinkage, AverageLinkage} {
		dg, err := HClusterFit(X, link)
		if err != nil {
			t.Fatal(err)
		}
		labels := dg.Cut(3)
		if labels[0] != labels[1] || labels[1] != labels[2] {
			t.Errorf("link %v: group A split: %v", link, labels)
		}
		if labels[3] != labels[4] || labels[4] != labels[5] {
			t.Errorf("link %v: group B split: %v", link, labels)
		}
		if labels[6] != labels[7] {
			t.Errorf("link %v: group C split: %v", link, labels)
		}
		if labels[0] == labels[3] || labels[3] == labels[6] || labels[0] == labels[6] {
			t.Errorf("link %v: groups merged: %v", link, labels)
		}
	}
}

func TestHClusterCutBounds(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	dg, err := HClusterFit(X, AverageLinkage)
	if err != nil {
		t.Fatal(err)
	}
	if got := dg.Cut(1); !allSame(got) {
		t.Errorf("k=1 should merge all: %v", got)
	}
	if got := dg.Cut(99); !allDistinct(got) {
		t.Errorf("k≥n should keep all separate: %v", got)
	}
	if got := dg.Cut(0); !allSame(got) {
		t.Errorf("k=0 clamps to 1: %v", got)
	}
	if len(dg.Merges) != 3 {
		t.Errorf("n-1 merges expected, got %d", len(dg.Merges))
	}
}

func TestHClusterMergeDistancesNondecreasing(t *testing.T) {
	// For complete/average linkage on well-separated data the merge
	// distances should grow (reducibility holds for these linkages).
	X, _ := synthStep(40, 31)
	dg, err := HClusterFit(X, CompleteLinkage)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dg.Merges); i++ {
		if dg.Merges[i].Distance < dg.Merges[i-1].Distance-1e-9 {
			t.Fatalf("merge %d at %v after %v", i, dg.Merges[i].Distance, dg.Merges[i-1].Distance)
		}
	}
}

func allSame(xs []int) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

func allDistinct(xs []int) bool {
	seen := map[int]bool{}
	for _, x := range xs {
		if seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

func TestBaggingBasics(t *testing.T) {
	X, y := synthStep(200, 41)
	b := NewBagging(0, func() Regressor { return NewREPTree() })
	if b.N != 1 {
		t.Fatalf("N=0 not clamped: %d", b.N)
	}
	b = NewBagging(4, func() Regressor { return NewREPTree() })
	if err := b.Train(X, y); err != nil {
		t.Fatal(err)
	}
	if b.Size() != 4 {
		t.Fatalf("ensemble size %d", b.Size())
	}
	var pred, truth []float64
	for i := range X {
		pred = append(pred, b.Predict(X[i]))
		truth = append(truth, y[i])
	}
	if r := RMSE(pred, truth); r > 3 {
		t.Fatalf("bagged RMSE %v too high", r)
	}
	if got := NewBagging(2, nil); got.Train(X, y) == nil {
		t.Fatal("nil factory accepted")
	}
	if got := (&Bagging{N: 1, New: func() Regressor { return NewREPTree() }}); got.Predict([]float64{1}) != 0 {
		t.Fatal("untrained ensemble should predict 0")
	}
}

func TestBaggingDeterministic(t *testing.T) {
	X, y := synthStep(150, 43)
	mk := func() *Bagging {
		b := NewBagging(3, func() Regressor { return NewREPTree() })
		if err := b.Train(X, y); err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(), mk()
	for i := 0; i < 20; i++ {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same-seed ensembles disagree")
		}
	}
}
