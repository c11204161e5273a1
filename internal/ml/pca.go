package ml

import (
	"fmt"
	"math"
	"sort"
)

// PCA holds a fitted principal-component analysis: the eigenvectors of
// the (standardized) covariance matrix sorted by explained variance.
// The paper projects its 14 feature metrics onto the first two PCs
// (≈85% of variance) and plots the component loadings to find redundant
// metrics (Figure 1).
type PCA struct {
	// Components[k] is the k-th principal axis (unit vector, length =
	// number of features).
	Components [][]float64
	// Variances[k] is the eigenvalue (variance along component k).
	Variances []float64
}

// FitPCA computes the PCA of X (rows = observations). Features are
// standardized first, matching the paper's normalization.
func FitPCA(X [][]float64) (*PCA, error) {
	rows, cols, err := checkXY(X, make([]float64, len(X)))
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	if rows < 2 {
		return nil, fmt.Errorf("pca: need at least 2 observations, got %d", rows)
	}
	scaler, err := FitScaler(X)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	Z := scaler.TransformAll(X)

	// Covariance matrix of the standardized data (== correlation matrix).
	cov := make([][]float64, cols)
	for i := range cov {
		cov[i] = make([]float64, cols)
	}
	for _, z := range Z {
		for i := 0; i < cols; i++ {
			for j := i; j < cols; j++ {
				cov[i][j] += z[i] * z[j]
			}
		}
	}
	for i := 0; i < cols; i++ {
		for j := i; j < cols; j++ {
			cov[i][j] /= float64(rows - 1)
			cov[j][i] = cov[i][j]
		}
	}

	vals, vecs := jacobiEigen(cov)
	// Sort by eigenvalue descending.
	order := make([]int, cols)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })

	p := &PCA{}
	for _, k := range order {
		comp := make([]float64, cols)
		for i := 0; i < cols; i++ {
			comp[i] = vecs[i][k]
		}
		// Deterministic sign: make the largest-magnitude loading positive.
		maxI := 0
		for i := range comp {
			if math.Abs(comp[i]) > math.Abs(comp[maxI]) {
				maxI = i
			}
		}
		if comp[maxI] < 0 {
			for i := range comp {
				comp[i] = -comp[i]
			}
		}
		p.Components = append(p.Components, comp)
		v := vals[k]
		if v < 0 {
			v = 0 // numerical noise
		}
		p.Variances = append(p.Variances, v)
	}
	return p, nil
}

// ExplainedVariance returns the fraction of total variance captured by
// the first k components.
func (p *PCA) ExplainedVariance(k int) float64 {
	var total, head float64
	for i, v := range p.Variances {
		total += v
		if i < k {
			head += v
		}
	}
	if total == 0 {
		return 0
	}
	return head / total
}

// Loadings returns each original feature's coordinates in the first k
// components — the scatter the paper plots in Figure 1 (features close
// together behave similarly). Row i corresponds to feature i.
func (p *PCA) Loadings(k int) [][]float64 {
	if k > len(p.Components) {
		k = len(p.Components)
	}
	nf := len(p.Components[0])
	out := make([][]float64, nf)
	for i := 0; i < nf; i++ {
		out[i] = make([]float64, k)
		for c := 0; c < k; c++ {
			out[i][c] = p.Components[c][i] * math.Sqrt(p.Variances[c])
		}
	}
	return out
}

// jacobiEigen computes the eigenvalues and eigenvectors of a symmetric
// matrix with the cyclic Jacobi rotation method. vecs[i][k] is component
// i of eigenvector k.
func jacobiEigen(a [][]float64) (vals []float64, vecs [][]float64) {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-18 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < n; i++ {
					mip, miq := m[i][p], m[i][q]
					m[i][p] = c*mip - s*miq
					m[i][q] = s*mip + c*miq
				}
				for i := 0; i < n; i++ {
					mpi, mqi := m[p][i], m[q][i]
					m[p][i] = c*mpi - s*mqi
					m[q][i] = s*mpi + c*mqi
				}
				for i := 0; i < n; i++ {
					vip, viq := v[i][p], v[i][q]
					v[i][p] = c*vip - s*viq
					v[i][q] = s*vip + c*viq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = m[i][i]
	}
	return vals, v
}
