package core

import (
	"fmt"
	"testing"

	"ecost/internal/ml"
	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// legacyKNN is the k-NN the classifier voted through before it voted
// over its own rows: a second scaler fitted on the same training rows,
// standardized [][]float64 copies of them, ml.Euclid distances, the
// same partial selection of the k nearest, and the vote in maps. The
// winner is the maximum under (votes, then nearest distance, then
// lower class), which is the classifier's written-down rule and does
// not depend on map order.
type legacyKNN struct {
	scaler *ml.Scaler
	rows   [][]float64
	labels []workloads.Class
}

func newLegacyKNN(t testing.TB, training []Observation) *legacyKNN {
	t.Helper()
	X := make([][]float64, len(training))
	labels := make([]workloads.Class, len(training))
	for i, o := range training {
		X[i], labels[i] = o.Reduced(), o.App.Class()
	}
	s, err := ml.FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	return &legacyKNN{s, s.TransformAll(X), labels}
}

func (c *legacyKNN) classify(o Observation) workloads.Class {
	xs := c.scaler.Transform(o.Reduced())
	type nd struct {
		d     float64
		label workloads.Class
	}
	k := min(knnK, len(c.rows))
	nearest := make([]nd, 0, k)
	for i, r := range c.rows {
		d := ml.Euclid(xs, r)
		if len(nearest) < k {
			nearest = append(nearest, nd{d, c.labels[i]})
			continue
		}
		far := 0
		for j := 1; j < k; j++ {
			if nearest[j].d > nearest[far].d {
				far = j
			}
		}
		if d < nearest[far].d {
			nearest[far] = nd{d, c.labels[i]}
		}
	}
	votes := map[workloads.Class]int{}
	bestD := map[workloads.Class]float64{}
	for _, n := range nearest {
		votes[n.label]++
		if d, ok := bestD[n.label]; !ok || n.d < d {
			bestD[n.label] = n.d
		}
	}
	best, bestVotes := nearest[0].label, -1
	for label, v := range votes {
		if v > bestVotes || (v == bestVotes && (bestD[label] < bestD[best] ||
			(bestD[label] == bestD[best] && label < best))) {
			best, bestVotes = label, v
		}
	}
	return best
}

// separateClassify is Classify's scan before it shared one pass with
// the nearest-known match: the kNN vote alone.
func separateClassify(c *Classifier, o *Observation) workloads.Class {
	x := c.standardize(o)
	var nearest [knnK]neighbour
	n := 0
	for i := range c.scaled {
		nb := neighbour{c.dist(&x, i), c.training[i].App.Class()}
		if n < knnK {
			nearest[n] = nb
			n++
			continue
		}
		far := 0
		for j := 1; j < knnK; j++ {
			if nearest[j].d > nearest[far].d {
				far = j
			}
		}
		if nb.d < nearest[far].d {
			nearest[far] = nb
		}
	}
	return vote(nearest[:n])
}

// separateNearestIndex is the nearest-known scan before it shared one
// pass with the vote: the first training index at the minimum
// distance, other-size rows counted four times.
func separateNearestIndex(c *Classifier, o *Observation) int {
	x := c.standardize(o)
	best, bestD := -1, 0.0
	for i := range c.scaled {
		d := c.dist(&x, i)
		if c.training[i].SizeGB != o.SizeGB {
			d *= 4
		}
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// TestKNNClassifyMatchesLegacy checks Classify against legacyKNN, and
// the classifier's one scan against the two separate scans it replaced
// (the vote, and the nearest-known match): on every training
// observation, on noisy profiles of every application at the sampler
// noise scales of the noise ablation (0×, 1×, 10×, 30×), and on 10k
// random queries over random training sets with four classes and two
// sizes, where three-way vote ties are common.
func TestKNNClassifyMatchesLegacy(t *testing.T) {
	fixture(t)
	c := fix.db.Classifier()
	ref := newLegacyKNN(t, c.training)
	check := func(what string, c *Classifier, ref *legacyKNN, o Observation) {
		t.Helper()
		if got, want := c.Classify(o), ref.classify(o); got != want {
			t.Fatalf("%s %s@%v: Classify %v, legacy %v", what, o.App.Name(), o.SizeGB, got, want)
		}
		class, near := c.answer(&o)
		if wantC, wantN := separateClassify(c, &o), separateNearestIndex(c, &o); class != wantC || near != wantN {
			t.Fatalf("%s %s@%v: one scan answers (%v, %d), separate scans (%v, %d)", what, o.App.Name(), o.SizeGB, class, near, wantC, wantN)
		}
	}
	for _, o := range c.training {
		check("training", c, ref, o)
	}
	for _, scale := range []float64{0, 1, 10, 30} {
		smp := perfctr.NewSampler(sim.NewRNG(7 + int64(scale*100)))
		smp.BaseNoise *= scale
		smp.MuxNoise *= scale
		prof := &Profiler{Model: fix.model, Sampler: smp}
		for rep := 0; rep < 10; rep++ {
			for _, app := range workloads.Apps() {
				for _, size := range []float64{1, 5, 10} {
					o, err := prof.Observe(app, size)
					if err != nil {
						t.Fatal(err)
					}
					check("noisy", c, ref, o)
				}
			}
		}
	}

	rng := sim.NewRNG(3)
	random := func(class workloads.Class) Observation {
		o := Observation{App: classApp(class), SizeGB: float64(1 + 4*rng.Intn(2))}
		for j, m := range reducedMetrics {
			o.Features[m] = rng.Normal(float64(class)*2, 3) * float64(j+1)
		}
		return o
	}
	for set := 0; set < 10; set++ {
		training := make([]Observation, 36)
		for i := range training {
			training[i] = random(workloads.Class(i % 4))
		}
		c, err := NewClassifier(training)
		if err != nil {
			t.Fatal(err)
		}
		ref := newLegacyKNN(t, training)
		for q := 0; q < 1000; q++ {
			check("random", c, ref, random(workloads.Class(rng.Intn(4))))
		}
	}
}

// classApp is the first table application of the given class: the
// synthetic observations below stand for an application of that class
// only.
func classApp(c workloads.Class) workloads.ID {
	for _, id := range workloads.IDs() {
		if id.Class() == c {
			return id
		}
	}
	panic(fmt.Sprintf("no application of class %v", c))
}

// oneFeature is an observation of the given class whose only nonzero
// reduced feature is IPC = x.
func oneFeature(class workloads.Class, x float64) Observation {
	o := Observation{App: classApp(class)}
	o.Features[perfctr.IPC] = x
	return o
}

// TestKNNTieRule pins the written-down tie-break: equal votes go to the
// class whose nearest member is closest, and equal votes at equal
// distance go to the lower class.
func TestKNNTieRule(t *testing.T) {
	// The rows are symmetric about their mean of 0. A query at 0 is
	// exactly equidistant from the two nearest rows (classes 3 and 1),
	// and the third neighbour (class 2) is farther.
	c, err := NewClassifier([]Observation{oneFeature(3, -1), oneFeature(1, 1), oneFeature(2, -3), oneFeature(0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Classify(oneFeature(0, 0)); got != 1 {
		t.Fatalf("equidistant tie: got %v, want the lower class 1", got)
	}
	// One vote each, class 3's row nearest.
	if got := c.Classify(oneFeature(0, -0.5)); got != 3 {
		t.Fatalf("distance tie-break: got %v, want 3", got)
	}
	// Two votes beat one nearer vote.
	c, err = NewClassifier([]Observation{oneFeature(2, 0), oneFeature(1, 1), oneFeature(1, 1.2), oneFeature(0, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Classify(oneFeature(0, 0.1)); got != 1 {
		t.Fatalf("majority: got %v, want 1", got)
	}
}

// TestKNNKClamped checks a training set smaller than the neighbourhood:
// every row votes, and the answer is legacyKNN's.
func TestKNNKClamped(t *testing.T) {
	training := []Observation{oneFeature(2, 0), oneFeature(1, 1)}
	c, err := NewClassifier(training)
	if err != nil {
		t.Fatal(err)
	}
	ref := newLegacyKNN(t, training)
	for _, x := range []float64{-1, 0.1, 0.5, 0.9, 2} {
		o := oneFeature(0, x)
		if got, want := c.Classify(o), ref.classify(o); got != want || (got != 1 && got != 2) {
			t.Fatalf("query %v: Classify %v, legacy %v", x, got, want)
		}
	}
	if got := c.Classify(oneFeature(0, 0.5)); got != 1 {
		t.Fatalf("one vote each at equal distance: got %v, want the lower class 1", got)
	}
}

// twoFeature is an observation of the given class whose only nonzero
// reduced features are IPC = x and LLC MPKI = y.
func twoFeature(class workloads.Class, x, y float64) Observation {
	o := oneFeature(class, x)
	o.Features[perfctr.LLCMPKI] = y
	return o
}

// TestKNNClassifier checks the vote on well-separated clusters: 30
// noisy members around each of three centres, and every centre is
// classified as its own cluster's class.
func TestKNNClassifier(t *testing.T) {
	rng := sim.NewRNG(17)
	centers := [][2]float64{{0, 0}, {10, 0}, {5, 10}}
	var training []Observation
	for c, ctr := range centers {
		for i := 0; i < 30; i++ {
			training = append(training, twoFeature(workloads.Class(c), ctr[0]+rng.Normal(0, 1), ctr[1]+rng.Normal(0, 1)))
		}
	}
	c, err := NewClassifier(training)
	if err != nil {
		t.Fatal(err)
	}
	for class, ctr := range centers {
		if got := c.Classify(twoFeature(0, ctr[0], ctr[1])); got != workloads.Class(class) {
			t.Errorf("Classify(center %d) = %v", class, got)
		}
	}
}

// TestKNNClassifyZeroAlloc checks that a query against a training set
// of the classifier's shape (36 rows, four classes, every reduced
// feature set) allocates nothing.
func TestKNNClassifyZeroAlloc(t *testing.T) {
	rng := sim.NewRNG(5)
	training := make([]Observation, 36)
	for i := range training {
		training[i].App = classApp(workloads.Class(i % 4))
		for j, m := range reducedMetrics {
			training[i].Features[m] = rng.Normal(float64(i%4)*2, 3) * float64(j+1)
		}
	}
	c, err := NewClassifier(training)
	if err != nil {
		t.Fatal(err)
	}
	var q Observation
	for j, m := range reducedMetrics {
		q.Features[m] = float64(j + 1)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Classify(q) }); allocs != 0 {
		t.Fatalf("Classify allocates %.1f objects per call, want 0", allocs)
	}
}
