package ml

import (
	"testing"

	"ecost/internal/sim"
)

// legacyKNNClassify is KNNClassifier.Classify as it stood before the
// vote moved off maps: the same partial selection, then per-label vote
// counts and nearest distances in maps, with the winner picked in map
// iteration order. It is the oracle the allocation-free vote must match
// wherever its answer is deterministic (no two labels tied on both vote
// count and nearest distance).
func legacyKNNClassify(c *KNNClassifier, x []float64) int {
	if len(c.rows) == 0 {
		return 0
	}
	xs := c.scaler.Transform(x)
	type nd struct {
		d     float64
		label int
	}
	k := c.K
	if k > len(c.rows) {
		k = len(c.rows)
	}
	nearest := make([]nd, 0, k)
	for i, r := range c.rows {
		d := Euclid(xs, r)
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
	votes := map[int]int{}
	bestD := map[int]float64{}
	for _, n := range nearest {
		votes[n.label]++
		if d, ok := bestD[n.label]; !ok || n.d < d {
			bestD[n.label] = n.d
		}
	}
	best, bestVotes := nearest[0].label, -1
	for label, v := range votes {
		if v > bestVotes || (v == bestVotes && bestD[label] < bestD[best]) {
			best, bestVotes = label, v
		}
	}
	return best
}

// knnFixture trains a k-NN over n random 7-feature rows carrying four
// labels — the shape of the classifier's training set.
func knnFixture(t testing.TB, k, n int, seed int64) (*KNNClassifier, *sim.RNG) {
	t.Helper()
	rng := sim.NewRNG(seed)
	X := make([][]float64, n)
	labels := make([]int, n)
	for i := range X {
		X[i] = make([]float64, 7)
		for j := range X[i] {
			X[i][j] = rng.Normal(float64(i%4)*2, 3) * float64(j+1)
		}
		labels[i] = i % 4
	}
	c := NewKNN(k)
	if err := c.Train(X, labels); err != nil {
		t.Fatal(err)
	}
	return c, rng
}

// TestKNNClassifyMatchesLegacy checks the map-free vote against the
// map vote on 10k seeded random queries, at the classifier's k = 3 and
// at larger neighbourhoods where multi-way vote ties are common.
func TestKNNClassifyMatchesLegacy(t *testing.T) {
	for _, k := range []int{1, 3, 4, 7, 12} {
		c, rng := knnFixture(t, k, 36, int64(k))
		x := make([]float64, 7)
		for q := 0; q < 10000; q++ {
			for j := range x {
				x[j] = rng.Normal(3, 4) * float64(j+1)
			}
			if got, want := c.Classify(x), legacyKNNClassify(c, x); got != want {
				t.Fatalf("k=%d query %d %v: Classify %d, legacy %d", k, q, x, got, want)
			}
		}
	}
}

// TestKNNTieRule pins the written-down tie-break: equal votes go to the
// label whose nearest member is closest, and equal votes at equal
// distance go to the smaller label — the case the map vote left to
// iteration order.
func TestKNNTieRule(t *testing.T) {
	c := NewKNN(2)
	if err := c.Train([][]float64{{-1}, {1}, {-3}, {3}}, []int{3, 1, 2, 0}); err != nil {
		t.Fatal(err)
	}
	// The rows are symmetric about their mean of 0, so a query at 0 is
	// exactly equidistant from the two nearest rows (labels 3 and 1).
	for i := 0; i < 100; i++ {
		if got := c.Classify([]float64{0}); got != 1 {
			t.Fatalf("equidistant tie: got %d, want the smaller label 1", got)
		}
	}
	// One vote each, label 3's row nearer.
	if got := c.Classify([]float64{-0.5}); got != 3 {
		t.Fatalf("distance tie-break: got %d, want 3", got)
	}
}

// TestKNNClassifyZeroAlloc pins the point of the rewrite: a query at
// the classifier's shape allocates nothing.
func TestKNNClassifyZeroAlloc(t *testing.T) {
	c, _ := knnFixture(t, 3, 36, 5)
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	if allocs := testing.AllocsPerRun(100, func() { c.Classify(x) }); allocs != 0 {
		t.Fatalf("Classify allocates %.1f objects per call, want 0", allocs)
	}
}
