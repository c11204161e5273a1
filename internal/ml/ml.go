// Package ml is the from-scratch machine-learning substrate of the
// reproduction, standing in for the Weka toolkit the paper uses. It
// provides the three EDP predictors the paper studies — linear regression
// (LR), a reduced-error-pruning regression tree (REPTree) and a
// multilayer perceptron (MLP) — plus the lookup-table model (LkT), and
// the analysis tools of §3.2: PCA (via a Jacobi eigensolver),
// agglomerative hierarchical clustering, and a k-nearest-neighbour
// classifier.
//
// Everything is deterministic for a fixed seed and uses only the
// standard library.
package ml

import (
	"fmt"
	"math"
)

// Regressor predicts a scalar target from a feature vector. All models in
// this package implement it.
type Regressor interface {
	// Train fits the model to the rows of X and targets y.
	Train(X [][]float64, y []float64) error
	// Predict returns the model's estimate for one feature vector.
	Predict(x []float64) float64
}

// checkXY validates a training set's shape.
func checkXY(X [][]float64, y []float64) (rows, cols int, err error) {
	if len(X) == 0 {
		return 0, 0, fmt.Errorf("ml: empty training set")
	}
	if len(X) != len(y) {
		return 0, 0, fmt.Errorf("ml: %d rows but %d targets", len(X), len(y))
	}
	cols = len(X[0])
	if cols == 0 {
		return 0, 0, fmt.Errorf("ml: zero-width feature vectors")
	}
	for i, r := range X {
		if len(r) != cols {
			return 0, 0, fmt.Errorf("ml: row %d has %d features, want %d", i, len(r), cols)
		}
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, fmt.Errorf("ml: target %d is not finite", i)
		}
	}
	return len(X), cols, nil
}

// APE returns the absolute percentage error of a prediction against the
// truth, in percent. A zero truth with nonzero prediction yields +Inf.
func APE(pred, truth float64) float64 {
	if truth == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * math.Abs(pred-truth) / math.Abs(truth)
}

// MAPE returns the mean APE over a prediction set.
func MAPE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range pred {
		s += APE(pred[i], truth[i])
	}
	return s / float64(len(pred))
}

// MAE returns the mean absolute error.
func MAE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - truth[i])
	}
	return s / float64(len(pred))
}

// RMSE returns the root-mean-square error.
func RMSE(pred, truth []float64) float64 {
	if len(pred) != len(truth) || len(pred) == 0 {
		return math.NaN()
	}
	var s float64
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(pred)))
}

// Scaler standardizes features to zero mean and unit variance — the
// normalization the paper applies before PCA ("normalized the data to the
// unit normal distribution").
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler learns per-column mean and standard deviation from X.
func FitScaler(X [][]float64) (*Scaler, error) {
	rows, cols, err := checkXY(X, make([]float64, len(X)))
	if err != nil {
		return nil, err
	}
	s := &Scaler{Mean: make([]float64, cols), Std: make([]float64, cols)}
	for j := 0; j < cols; j++ {
		var sum float64
		for i := 0; i < rows; i++ {
			sum += X[i][j]
		}
		mu := sum / float64(rows)
		var sq float64
		for i := 0; i < rows; i++ {
			d := X[i][j] - mu
			sq += d * d
		}
		sd := math.Sqrt(sq / float64(rows))
		if sd < 1e-12 {
			sd = 1 // constant column: pass through centred
		}
		s.Mean[j] = mu
		s.Std[j] = sd
	}
	return s, nil
}

// Transform returns the standardized copy of x.
func (s *Scaler) Transform(x []float64) []float64 {
	return s.TransformInto(make([]float64, len(x)), x)
}

// TransformInto is Transform into a caller-owned buffer: it writes the
// standardized x into dst, which needs len(x) elements, and returns
// dst[:len(x)].
func (s *Scaler) TransformInto(dst, x []float64) []float64 {
	out := dst[:len(x)]
	for j := range x {
		if j < len(s.Mean) {
			out[j] = (x[j] - s.Mean[j]) / s.Std[j]
		} else {
			out[j] = x[j]
		}
	}
	return out
}

// TransformAll standardizes every row of X into a new matrix.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, r := range X {
		out[i] = s.Transform(r)
	}
	return out
}

// Euclid returns the Euclidean distance between two equal-length vectors.
func Euclid(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
