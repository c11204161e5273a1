package core

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ecost/internal/mapreduce"
	"ecost/internal/ml"
)

// TestMLMSTPConcurrentFirstUse has several goroutines make the first
// PredictBest calls on one untrained technique at once: the models must
// train exactly once (one factory call per model), and every answer
// must equal that of a second technique trained up front through
// Models().
func TestMLMSTPConcurrentFirstUse(t *testing.T) {
	fixture(t)
	var built atomic.Int64
	lazy, err := NewMLMSTP("LR", fix.db, func() ml.Regressor {
		built.Add(1)
		return ml.NewLinearRegression()
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewMLMSTP("LR", fix.db, func() ml.Regressor { return ml.NewLinearRegression() })
	if err != nil {
		t.Fatal(err)
	}
	if ref.Models() == 0 {
		t.Fatal("reference technique trained no models")
	}
	if built.Load() != 0 {
		t.Fatalf("constructor trained %d models, want none before first use", built.Load())
	}

	pairs := [][2]Observation{
		{obsOf(t, "wc", 1), obsOf(t, "st", 5)},
		{obsOf(t, "gp", 5), obsOf(t, "wc", 5)},
		{obsOf(t, "st", 1), obsOf(t, "st", 1)},
	}
	const goroutines = 8
	got := make([][2]mapreduce.Config, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p := pairs[i%len(pairs)]
			got[i], errs[i] = lazy.PredictBest(p[0], p[1])
		}(i)
	}
	close(start)
	wg.Wait()

	if n := lazy.Models(); int64(n) != built.Load() || n != ref.Models() {
		t.Fatalf("factory ran %d times for %d models (reference %d): training did not run exactly once",
			built.Load(), n, ref.Models())
	}
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		p := pairs[i%len(pairs)]
		want, err := ref.PredictBest(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("goroutine %d: lazily trained technique predicts %v, reference %v", i, got[i], want)
		}
	}
}

var errRefused = errors.New("train refused")

// refusingRegressor fails every Train call.
type refusingRegressor struct{}

func (refusingRegressor) Train([][]float64, []float64) error { return errRefused }
func (refusingRegressor) Predict([]float64) float64          { return 0 }

// TestMLMSTPTrainError checks a training failure surfaces, every time,
// from each entry point that needs the models, and leaves no models.
func TestMLMSTPTrainError(t *testing.T) {
	fixture(t)
	s, err := NewMLMSTP("broken", fix.db, func() ml.Regressor { return refusingRegressor{} })
	if err != nil {
		t.Fatalf("constructor reported %v; training must wait for first use", err)
	}
	var cp ClassPair
	var row TrainRow
	for k, rows := range fix.db.Rows {
		if len(rows) > 0 {
			cp, row = k, rows[0]
			break
		}
	}
	oa, ob := obsOf(t, "wc", 1), obsOf(t, "st", 5)
	for round := 0; round < 2; round++ {
		if _, err := s.PredictBest(oa, ob); !errors.Is(err, errRefused) {
			t.Fatalf("round %d: PredictBest error = %v, want %v", round, err, errRefused)
		}
		if _, err := s.PredictRow(cp, row); !errors.Is(err, errRefused) {
			t.Fatalf("round %d: PredictRow error = %v, want %v", round, err, errRefused)
		}
		var buf bytes.Buffer
		if err := s.SaveModels(&buf); !errors.Is(err, errRefused) {
			t.Fatalf("round %d: SaveModels error = %v, want %v", round, err, errRefused)
		}
		if n := s.Models(); n != 0 {
			t.Fatalf("round %d: Models() = %d after a failed training, want 0", round, n)
		}
	}
}

// TestMLMSTPEmptyDatabase checks the constructors still reject a
// database with no training rows up front, without building a model.
func TestMLMSTPEmptyDatabase(t *testing.T) {
	called := false
	factory := func() ml.Regressor {
		called = true
		return ml.NewLinearRegression()
	}
	if _, err := NewMLMSTP("LR", &Database{}, factory); err == nil {
		t.Fatal("NewMLMSTP accepted a database with no rows")
	}
	if _, err := NewMLMSTPFeatures("REPTree", &Database{}, factory, 1); err == nil {
		t.Fatal("NewMLMSTPFeatures accepted a database with no rows")
	}
	if called {
		t.Fatal("constructor built a model for an empty database")
	}
}
