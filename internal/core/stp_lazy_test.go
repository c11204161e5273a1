package core

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/mapreduce"
	"ecost/internal/ml"
	"ecost/internal/sim"
	"ecost/internal/workloads"
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
	all, err := fix.db.Rows()
	if err != nil {
		t.Fatal(err)
	}
	var cp ClassPair
	var row TrainRow
	for k, rows := range all {
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

// freshDatabase builds a small database (one data size, 15 pairs)
// whose training rows nothing has read yet.
func freshDatabase(t *testing.T) *Database {
	t.Helper()
	model := mapreduce.NewModel(cluster.AtomC2758())
	db, err := BuildDatabase(NewProfiler(model, sim.NewRNG(42)), NewOracle(model), workloads.Training(),
		BuildOptions{Sizes: []float64{1}, ConfigStride: 13})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRowsSweptOnFirstUse checks that building a database, wrapping it
// in the three MLM constructors and running the online control plane
// over its lookup table sweep no training rows; the first Rows call
// sweeps them.
func TestRowsSweptOnFirstUse(t *testing.T) {
	db := freshDatabase(t)
	factory := func() ml.Regressor { return ml.NewLinearRegression() }
	if _, err := NewMLMSTP("LR", db, factory); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMLMSTPSampled("MLP", db, factory, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMLMSTPFeatures("REPTree", db, factory, 1); err != nil {
		t.Fatal(err)
	}
	c, err := NewShardedScheduler(db.Oracle().Model, db, NewProfiler(db.Oracle().Model, sim.NewRNG(99)),
		func() STP { return NewMemoSTP(&LkTSTP{DB: db}, nil) }, 4, ShardedConfig{Shards: 2, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	seededStream(40, 3, 30)(c)
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.Completed()) != 40 {
		t.Fatalf("online run completed %d of 40 jobs", len(c.Completed()))
	}
	if db.rows != nil || db.rowsErr != nil {
		t.Fatal("the build, the constructors or the online run swept the training rows")
	}
	rows, err := db.Rows()
	if err != nil || len(rows) == 0 {
		t.Fatalf("first Rows call: %d class pairs, %v", len(rows), err)
	}
}

// TestRowsConcurrentFirstUse has goroutines make the first reads of one
// database's rows at once — directly and through the first use of two
// MLM techniques — and checks the rows were swept once: every caller
// holds the one map, equal to a second build's rows, and each
// technique's models equal those trained on that second build.
func TestRowsConcurrentFirstUse(t *testing.T) {
	db, ref := freshDatabase(t), freshDatabase(t)
	newLR := func(db *Database) *MLMSTP {
		s, err := NewMLMSTP("LR", db, func() ml.Regressor { return ml.NewLinearRegression() })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	newTree := func(db *Database) *MLMSTP {
		s, err := NewMLMSTP("REPTree", db, func() ml.Regressor { return ml.NewREPTree() })
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	lr, tree := newLR(db), newTree(db)
	fixture(t) // for its profiler
	oa, ob := obsOf(t, "wc", 1), obsOf(t, "st", 5)

	const goroutines = 9
	maps := make([]map[ClassPair][]TrainRow, goroutines)
	errs := make([]error, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			switch i % 3 {
			case 0:
				maps[i], errs[i] = db.Rows()
			case 1:
				_, errs[i] = lr.PredictBest(oa, ob)
			default:
				_, errs[i] = tree.PredictBest(oa, ob)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	swept, _ := db.Rows()
	for i := 0; i < goroutines; i += 3 {
		if reflect.ValueOf(maps[i]).UnsafePointer() != reflect.ValueOf(swept).UnsafePointer() {
			t.Fatalf("goroutine %d read a different row map: the rows were swept more than once", i)
		}
	}
	refRows, err := ref.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(swept, refRows) {
		t.Fatal("concurrently swept rows differ from a second build's")
	}
	for _, p := range []struct{ got, want *MLMSTP }{{lr, newLR(ref)}, {tree, newTree(ref)}} {
		if !bytes.Equal(fitBytes(t, p.got), fitBytes(t, p.want)) {
			t.Fatalf("%s trained on concurrently swept rows differs from one trained on a second build", p.got.Name())
		}
	}
}

// fitBytes serializes a technique's models with the training time
// masked.
func fitBytes(t *testing.T, s *MLMSTP) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveModels(&buf); err != nil {
		t.Fatal(err)
	}
	return trainTimeRE.ReplaceAll(buf.Bytes(), []byte(`"train_time_ns":0`))
}
