package ml

import (
	"fmt"
	"sort"

	"ecost/internal/sim"
)

// REPTree is a fast regression tree in the style of Weka's REPTree: it
// grows by variance reduction with binary numeric splits and then applies
// reduced-error pruning against a held-out fraction of the training data.
// The paper finds this model the best accuracy/complexity trade-off for
// self-tuning prediction.
type REPTree struct {
	// MinLeaf is the minimum number of training instances per leaf.
	MinLeaf int
	// MaxDepth bounds the tree (0 = unlimited).
	MaxDepth int
	// PruneFrac is the fraction of the training data held out for
	// reduced-error pruning (0 disables pruning).
	PruneFrac float64
	// Seed drives the train/prune shuffle.
	Seed int64

	root   *node
	leaves int
}

type node struct {
	feature  int
	thresh   float64
	left     *node
	right    *node
	value    float64 // leaf prediction / subtree mean
	count    int
	pruneSSE float64 // accumulated prune-set error as a subtree
	pruneN   int
}

// NewREPTree returns a tree with Weka-like defaults.
func NewREPTree() *REPTree {
	return &REPTree{MinLeaf: 2, MaxDepth: 0, PruneFrac: 0.25, Seed: 1}
}

// Leaves reports the number of leaves after training (0 before).
func (t *REPTree) Leaves() int { return t.leaves }

// Train grows and prunes the tree.
func (t *REPTree) Train(X [][]float64, y []float64) error {
	rows, _, err := checkXY(X, y)
	if err != nil {
		return fmt.Errorf("reptree: %w", err)
	}
	minLeaf := t.MinLeaf
	if minLeaf < 1 {
		minLeaf = 1
	}

	idx := sim.NewRNG(t.Seed).Perm(rows)
	nPrune := 0
	if t.PruneFrac > 0 && rows >= 8 {
		nPrune = int(t.PruneFrac * float64(rows))
		if nPrune >= rows {
			nPrune = rows / 4
		}
	}
	pruneIdx, growIdx := idx[:nPrune], idx[nPrune:]

	t.root = t.grow(X, y, growIdx, minLeaf, 1)
	if t.root == nil {
		// Degenerate: grow set empty after the split; fall back to all data.
		t.root = t.grow(X, y, idx, minLeaf, 1)
	}
	if nPrune > 0 {
		for _, i := range pruneIdx {
			t.accumulatePrune(t.root, X[i], y[i])
		}
		t.prune(t.root)
	}
	t.leaves = countLeaves(t.root)
	return nil
}

func (t *REPTree) grow(X [][]float64, y []float64, idx []int, minLeaf, depth int) *node {
	if len(idx) == 0 {
		return nil
	}
	mean, sse := meanSSE(y, idx)
	n := &node{feature: -1, value: mean, count: len(idx)}
	if len(idx) < 2*minLeaf || sse < 1e-12 || (t.MaxDepth > 0 && depth > t.MaxDepth) {
		return n
	}

	bestGain := 0.0
	bestF, bestThresh := -1, 0.0
	cols := len(X[idx[0]])
	order := make([]int, len(idx))
	for f := 0; f < cols; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		// Prefix sums over the sorted order for O(n) split scan.
		var sumL, sqL float64
		sumR, sqR := 0.0, 0.0
		for _, i := range order {
			sumR += y[i]
			sqR += y[i] * y[i]
		}
		nTot := float64(len(order))
		for k := 0; k < len(order)-1; k++ {
			i := order[k]
			sumL += y[i]
			sqL += y[i] * y[i]
			sumR -= y[i]
			sqR -= y[i] * y[i]
			if k+1 < minLeaf || len(order)-k-1 < minLeaf {
				continue
			}
			if X[order[k]][f] == X[order[k+1]][f] {
				continue // cannot split between equal values
			}
			nl, nr := float64(k+1), nTot-float64(k+1)
			sseL := sqL - sumL*sumL/nl
			sseR := sqR - sumR*sumR/nr
			if gain := sse - sseL - sseR; gain > bestGain+1e-12 {
				bestGain = gain
				bestF = f
				bestThresh = (X[order[k]][f] + X[order[k+1]][f]) / 2
			}
		}
	}
	if bestF < 0 {
		return n
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][bestF] <= bestThresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return n
	}
	n.feature = bestF
	n.thresh = bestThresh
	n.left = t.grow(X, y, li, minLeaf, depth+1)
	n.right = t.grow(X, y, ri, minLeaf, depth+1)
	return n
}

// accumulatePrune routes one prune-set instance down the tree, charging
// every node on the path with its error as-if-collapsed and as-subtree.
func (t *REPTree) accumulatePrune(n *node, x []float64, y float64) {
	for n != nil {
		d := y - n.value
		n.pruneSSE += d * d
		n.pruneN++
		if n.feature < 0 {
			return
		}
		if x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
}

// prune collapses any internal node whose leaf error on the prune set is
// no worse than its subtree's — classic reduced-error pruning, bottom-up.
// It returns the subtree's prune-set SSE after pruning.
func (t *REPTree) prune(n *node) float64 {
	if n == nil || n.feature < 0 {
		if n == nil {
			return 0
		}
		return n.pruneSSE
	}
	subtree := t.prune(n.left) + t.prune(n.right)
	if n.pruneN > 0 && n.pruneSSE <= subtree+1e-12 {
		// Collapse: this node becomes a leaf predicting its mean.
		n.feature = -1
		n.left, n.right = nil, nil
		return n.pruneSSE
	}
	return subtree
}

// Predict routes x to a leaf.
func (t *REPTree) Predict(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for n.feature >= 0 {
		if n.feature < len(x) && x[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

func countLeaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.feature < 0 {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

func meanSSE(y []float64, idx []int) (mean, sse float64) {
	var sum, sq float64
	for _, i := range idx {
		sum += y[i]
		sq += y[i] * y[i]
	}
	n := float64(len(idx))
	mean = sum / n
	sse = sq - sum*sum/n
	if sse < 0 {
		sse = 0
	}
	return mean, sse
}

var _ Regressor = (*REPTree)(nil)
var _ Regressor = (*LinearRegression)(nil)
