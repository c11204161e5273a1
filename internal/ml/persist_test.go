package ml

import (
	"bytes"
	"strings"
	"testing"
)

func roundTrip(t *testing.T, m Regressor) Regressor {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func assertSamePredictions(t *testing.T, a, b Regressor, X [][]float64) {
	t.Helper()
	for i, x := range X {
		if pa, pb := a.Predict(x), b.Predict(x); pa != pb {
			t.Fatalf("prediction %d differs after round-trip: %v vs %v", i, pa, pb)
		}
	}
}

func TestPersistLinearRegression(t *testing.T) {
	X, y := synthLinear(200, 0.1, 1)
	m := NewLinearRegression()
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, m, roundTrip(t, m), X[:20])
}

func TestPersistREPTree(t *testing.T) {
	X, y := synthStep(400, 2)
	m := NewREPTree()
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, m)
	assertSamePredictions(t, m, loaded, X[:50])
	if lt := loaded.(*REPTree); lt.Leaves() != m.Leaves() {
		t.Fatalf("leaf count changed: %d vs %d", lt.Leaves(), m.Leaves())
	}
}

func TestPersistMLP(t *testing.T) {
	X, y := synthLinear(150, 0.1, 3)
	m := NewMLP()
	m.Epochs = 30
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, m, roundTrip(t, m), X[:20])
}

func TestPersistBagging(t *testing.T) {
	X, y := synthStep(300, 7)
	m := NewBagging(3, func() Regressor {
		tr := NewREPTree()
		tr.MinLeaf = 4
		return tr
	})
	if err := m.Train(X, y); err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, m)
	assertSamePredictions(t, m, loaded, X[:30])
	if lb := loaded.(*Bagging); lb.Size() != 3 {
		t.Fatalf("ensemble size changed: %d", lb.Size())
	}
}

func TestPersistUntrainedTree(t *testing.T) {
	m := NewREPTree()
	loaded := roundTrip(t, m)
	if got := loaded.Predict([]float64{1}); got != 0 {
		t.Fatalf("untrained tree predicted %v after round-trip", got)
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	if _, err := LoadModel(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadModel(strings.NewReader(`{"kind":"nope","data":{}}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	// A corrupt tree with a cycle-forming link must be rejected.
	if _, err := LoadModel(strings.NewReader(
		`{"kind":"reptree","data":{"nodes":[{"f":0,"t":1,"v":0,"l":0,"r":0}]}}`)); err == nil {
		t.Error("self-referencing tree accepted")
	}
}
