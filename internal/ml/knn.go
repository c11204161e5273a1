package ml

import "fmt"

// KNNClassifier is a k-nearest-neighbour classifier over standardized
// features — the cluster-assignment step of the paper's incoming
// application analyzer (it "chooses the application in the database that
// best resembles the testing application").
type KNNClassifier struct {
	K int

	scaler *Scaler
	rows   [][]float64
	labels []int
}

// NewKNN returns a classifier with the given neighbourhood size.
func NewKNN(k int) *KNNClassifier {
	if k < 1 {
		k = 1
	}
	return &KNNClassifier{K: k}
}

// Train stores the labelled exemplars.
func (c *KNNClassifier) Train(X [][]float64, labels []int) error {
	y := make([]float64, len(labels))
	if _, _, err := checkXY(X, y); err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	s, err := FitScaler(X)
	if err != nil {
		return fmt.Errorf("knn: %w", err)
	}
	c.scaler = s
	c.rows = s.TransformAll(X)
	c.labels = append([]int(nil), labels...)
	return nil
}

// knnStack sizes Classify's stack buffers: queries up to this many
// features and neighbourhoods up to this k allocate nothing; larger
// ones fall back to the heap.
const knnStack = 16

// neighbour is one of the k nearest exemplars: its distance and label.
type neighbour struct {
	d     float64
	label int
}

// Classify returns the majority label among the k nearest exemplars.
// Ties on the vote count go to the label whose nearest member is
// closest; a tie on that distance too goes to the smaller label. The
// answer is therefore a pure function of the query and the training
// set.
func (c *KNNClassifier) Classify(x []float64) int {
	if len(c.rows) == 0 {
		return 0
	}
	var xbuf [knnStack]float64
	buf := xbuf[:]
	if len(x) > len(buf) {
		buf = make([]float64, len(x))
	}
	xs := c.scaler.TransformInto(buf, x)
	k := c.K
	if k > len(c.rows) {
		k = len(c.rows)
	}
	// Partial selection of the k nearest.
	var nbuf [knnStack]neighbour
	nearest := nbuf[:0]
	if k > len(nbuf) {
		nearest = make([]neighbour, 0, k)
	}
	for i, r := range c.rows {
		d := Euclid(xs, r)
		if len(nearest) < k {
			nearest = append(nearest, neighbour{d, c.labels[i]})
			continue
		}
		// Replace the farthest if closer.
		far := 0
		for j := 1; j < k; j++ {
			if nearest[j].d > nearest[far].d {
				far = j
			}
		}
		if d < nearest[far].d {
			nearest[far] = neighbour{d, c.labels[i]}
		}
	}
	return vote(nearest)
}

// vote tallies each label once, at its first neighbour, and applies
// Classify's majority and tie rules.
func vote(nearest []neighbour) int {
	best, bestVotes, bestD := 0, 0, 0.0
	for i, n := range nearest {
		tallied := false
		for _, m := range nearest[:i] {
			if m.label == n.label {
				tallied = true
				break
			}
		}
		if tallied {
			continue
		}
		votes, d := 0, n.d
		for _, m := range nearest[i:] {
			if m.label == n.label {
				votes++
				if m.d < d {
					d = m.d
				}
			}
		}
		if bestVotes == 0 || votes > bestVotes ||
			(votes == bestVotes && (d < bestD || (d == bestD && n.label < best))) {
			best, bestVotes, bestD = n.label, votes, d
		}
	}
	return best
}
