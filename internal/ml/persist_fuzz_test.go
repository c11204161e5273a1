package ml

import (
	"bytes"
	"testing"
)

// fuzzTrainingSet is a tiny but well-posed regression problem used to
// produce honest serialized models for the seed corpus.
func fuzzTrainingSet() ([][]float64, []float64) {
	X := [][]float64{
		{0, 0}, {1, 0}, {0, 1}, {1, 1},
		{2, 0}, {0, 2}, {2, 1}, {1, 2},
	}
	y := make([]float64, len(X))
	for i, x := range X {
		y[i] = 1 + 2*x[0] - x[1]
	}
	return X, y
}

func seedModelJSON(f *testing.F, m Regressor) []byte {
	f.Helper()
	X, y := fuzzTrainingSet()
	if err := m.Train(X, y); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadModel feeds arbitrary bytes to the model loader: it must
// either error out or return a regressor that survives a save/load
// round trip — never panic.
func FuzzLoadModel(f *testing.F) {
	f.Add(seedModelJSON(f, NewLinearRegression()))
	f.Add(seedModelJSON(f, NewREPTree()))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"linreg","data":{}}`))
	f.Add([]byte(`{"kind":"nosuch","data":{}}`))
	f.Add([]byte(`{"kind":"reptree","data":{"nodes":[{"left":1,"right":1}]}}`))
	f.Add([]byte(`garbage`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("LoadModel returned nil model without error")
		}
		var buf bytes.Buffer
		if err := SaveModel(&buf, m); err != nil {
			t.Fatalf("re-save of loaded model failed: %v", err)
		}
		if _, err := LoadModel(&buf); err != nil {
			t.Fatalf("round trip of loaded model failed: %v", err)
		}
	})
}
