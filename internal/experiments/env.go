// Package experiments reproduces every table and figure of the paper's
// evaluation: each driver regenerates one artifact (the same rows or
// series the paper reports) against the simulated testbed. cmd/ecost-bench
// prints them; bench_test.go regenerates them under `go test -bench`.
//
// The drivers return both a renderable Table and, where useful,
// structured data that the tests assert fidelity targets against
// (see DESIGN.md §6).
package experiments

import (
	"fmt"
	"time"

	"ecost/internal/cluster"
	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/ml"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// Env bundles the shared experimental setup: the calibrated execution
// model of the 8-core Atom node, the memoizing oracle, the profiler, the
// training database and the four STP techniques. The lookup table is
// ready once the database is; the three model techniques train on first
// use (see core.MLMSTP), so a run that only consults the lookup table
// never pays for them.
type Env struct {
	Model    *mapreduce.Model
	Oracle   *core.Oracle
	Profiler *core.Profiler
	DB       *core.Database

	LkT     core.STP
	LR      *core.MLMSTP
	REPTree *core.MLMSTP
	MLP     *core.MLMSTP

	// Seed drives every stochastic element (measurement noise).
	Seed int64

	// opt remembers the (normalized) build options so EnsureRows can
	// regenerate training matrices dropped by the artifact cache.
	opt Options
}

// Options tunes the cost of building an Env.
type Options struct {
	// Seed for measurement noise (default 42).
	Seed int64
	// ConfigStride for database construction (default 5; tests use a
	// coarser stride to stay fast).
	ConfigStride int
	// MLPEpochs and MLPRowStride bound the most expensive model's
	// training (defaults 150 and 6).
	MLPEpochs    int
	MLPRowStride int
	// Workers sizes the database build's worker pool (0 = GOMAXPROCS;
	// any count produces an identical database).
	Workers int
	// Metrics, when set, receives build observability: volatile
	// wall-clock gauges for the database build and per-technique
	// training times (set when a technique trains, 0 until then). It
	// does not participate in the cache key.
	Metrics *metrics.Registry
}

// withDefaults normalizes the zero values to the documented defaults.
func (opt Options) withDefaults() Options {
	if opt.Seed == 0 {
		opt.Seed = 42
	}
	if opt.ConfigStride == 0 {
		opt.ConfigStride = 5
	}
	if opt.MLPEpochs == 0 {
		opt.MLPEpochs = 150
	}
	if opt.MLPRowStride == 0 {
		opt.MLPRowStride = 6
	}
	return opt
}

// DefaultOptions returns the full-fidelity configuration used by
// cmd/ecost-bench and the benchmarks: the database covers the complete
// joint configuration space (coverage is what lets the tree model's
// argmin find true optima — see DESIGN.md §6).
func DefaultOptions() Options {
	return Options{Seed: 42, ConfigStride: 1, MLPEpochs: 300, MLPRowStride: 6}
}

// FastOptions returns a cheaper configuration for unit tests and the
// example programs: a coarser database and lighter MLP, trading STP
// accuracy (roughly 2× the config-choice error) for an order of
// magnitude less build time.
func FastOptions() Options {
	return Options{Seed: 42, ConfigStride: 7, MLPEpochs: 80, MLPRowStride: 4}
}

// NewEnv builds the shared setup: model, oracle, profiler, database,
// classifiers and the four STP techniques. It does not train the LR,
// REPTree and MLP models; each family trains on its first use, and only
// then sets its env.train.<name>.wall_seconds gauge.
func NewEnv(opt Options) (*Env, error) {
	opt = opt.withDefaults()
	model := mapreduce.NewModel(cluster.AtomC2758())
	oracle := core.NewOracle(model)
	profiler := core.NewProfiler(model, sim.NewRNG(opt.Seed))
	buildStart := time.Now()
	db, err := core.BuildDatabase(profiler, oracle, workloads.Training(), core.BuildOptions{
		Sizes:        workloads.DataSizesGB(),
		ConfigStride: opt.ConfigStride,
		Workers:      opt.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	opt.Metrics.VolatileGauge("env.db_build.wall_seconds").Set(time.Since(buildStart).Seconds())
	env := &Env{
		Model:    model,
		Oracle:   oracle,
		Profiler: profiler,
		DB:       db,
		LkT:      &core.LkTSTP{DB: db},
		Seed:     opt.Seed,
		opt:      opt,
	}
	env.LR, err = core.NewMLMSTP("LR", db, func() ml.Regressor { return ml.NewLinearRegression() })
	if err != nil {
		return nil, err
	}
	// REPTree gets the slot applications' features as extra inputs so it
	// can separate application combinations within a class pair — but
	// only when the database covers the configuration space densely;
	// on a sparse sample the extra dimensions fragment the data and the
	// argmin exploits under-supported leaves.
	if opt.ConfigStride <= 2 {
		env.REPTree, err = core.NewMLMSTPFeatures("REPTree", db, func() ml.Regressor {
			t := ml.NewREPTree()
			t.MinLeaf = 2
			return t
		}, 1)
	} else {
		// On a sparse sample a finely-resolved single tree is exploitable
		// by the argmin; bag coarser trees instead.
		env.REPTree, err = core.NewMLMSTP("REPTree", db, func() ml.Regressor {
			return ml.NewBagging(5, func() ml.Regressor {
				t := ml.NewREPTree()
				t.MinLeaf = 6
				return t
			})
		})
	}
	if err != nil {
		return nil, err
	}
	env.MLP, err = core.NewMLMSTPSampled("MLP", db, func() ml.Regressor {
		m := ml.NewMLP()
		m.Epochs = opt.MLPEpochs
		m.LearningRate = 0.005
		return m
	}, opt.MLPRowStride)
	if err != nil {
		return nil, err
	}
	for _, s := range []*core.MLMSTP{env.LR, env.REPTree, env.MLP} {
		s.SetTrainGauge(opt.Metrics.VolatileGauge("env.train." + s.Name() + ".wall_seconds"))
	}
	return env, nil
}

// EnsureRows makes sure the database's training matrices are populated.
// A cache-loaded Env carries entries and trained models but no rows
// (they are too large to persist at full stride); experiments that read
// DB.Rows directly — the Table-1 training-accuracy sweep — call this
// first. The rebuild is a pure sweep, so the rows match the original
// build's bit for bit.
func (e *Env) EnsureRows() error {
	if e.DB.HasRows() {
		return nil
	}
	start := time.Now()
	err := e.DB.RebuildRows(core.BuildOptions{
		Sizes:        workloads.DataSizesGB(),
		ConfigStride: e.opt.ConfigStride,
		Workers:      e.opt.Workers,
	})
	e.opt.Metrics.VolatileGauge("env.rows_rebuild.wall_seconds").Set(time.Since(start).Seconds())
	return err
}

// STPs returns the four techniques in the paper's order.
func (e *Env) STPs() []core.STP {
	return []core.STP{e.LkT, e.LR, e.REPTree, e.MLP}
}

// Observe profiles an application the way the online system would
// (with measurement noise).
func (e *Env) Observe(app workloads.App, sizeGB float64) (core.Observation, error) {
	return e.Profiler.Observe(app, sizeGB)
}
