// Package core implements the paper's contribution: the ECoST controller
// that (1) characterizes unknown incoming MapReduce applications from
// hardware-counter and resource-monitor features, (2) decides which
// applications to co-locate on a node using a class-priority decision
// tree, and (3) self-tunes the frequency / HDFS block size / mapper
// knobs of the co-located pair with a self-tuning prediction (STP)
// technique — either a lookup table (LkT-STP) or a machine-learning model
// (MLM-STP with LR, REPTree or MLP).
//
// The package also implements the offline baselines the paper compares
// against: the ILAO and COLAO brute-force oracles, and the mapping
// policies of the scalability study (SM, MNM1, MNM2, SNM, CBM, PTM,
// ECoST, UB).
package core

import (
	"fmt"
	"math"

	"ecost/internal/mapreduce"
	"ecost/internal/ml"
	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// ProfilingConfig is the fixed reference configuration every incoming
// application is briefly run at to collect its feature vector (the
// paper's "learning period"). A mid-range point keeps the measured
// features comparable across applications.
func ProfilingConfig() mapreduce.Config {
	return mapreduce.Config{Freq: 2.0, Block: 256, Mappers: 4}
}

// ProfilingRuns is how many times the profiling run is repeated to
// average out PMU multiplexing noise (§2.5 of the paper).
const ProfilingRuns = 3

// Observation is what ECoST knows about an application: its measured
// feature vector and data size. The true identity (App) is carried for
// ground-truth accounting by experiments but is never consulted by the
// classifier or the STP models.
//
// id is the observation's identity word (DESIGN.md §26). The router
// stamps it when it interns a record, and it rides inside the value
// through every STP wrapper, so MemoSTP keys a pair by two words
// instead of hashing and comparing two observations. Interning makes
// ids canonical: within one intern table, observations share an id
// exactly when they are equal under ==. Ids come from one process-wide
// counter, so two tables never hand out the same one. An observation
// the router never interned, or one holding a NaN, has id 0. Because
// the id is part of the value, == tells an interned observation from
// an un-interned copy of it.
type Observation struct {
	App      workloads.App // ground truth; hidden from the predictor path
	SizeGB   float64
	Features perfctr.Vector

	id uint64
}

// Reduced returns the 7 PCA-selected features the predictors consume.
func (o Observation) Reduced() []float64 {
	x := new([reducedLen]float64)
	o.reducedInto(x)
	return x[:]
}

// reducedLen is the width of the reduced feature vector.
const reducedLen = 7

// reducedMetrics is perfctr.ReducedMetrics resolved once, so selecting
// the reduced features needs no per-call slice.
var reducedMetrics = perfctr.ReducedMetrics()

// reducedInto is Reduced into a caller-owned array.
func (o *Observation) reducedInto(dst *[reducedLen]float64) {
	for i, m := range reducedMetrics {
		dst[i] = o.Features[m]
	}
}

// Profiler produces Observations by running an application at the
// reference configuration on the execution model and measuring it with
// the synthetic perf/dstat stack.
type Profiler struct {
	Model   *mapreduce.Model
	Sampler *perfctr.Sampler

	// eval is Observe's reusable solver over evalModel. Observe builds
	// it on first use, so struct-literal Profilers work, and rebuilds it
	// if Model was swapped since.
	eval      *mapreduce.Evaluator
	evalModel *mapreduce.Model
}

// NewProfiler returns a profiler over the given execution model; rng
// seeds the measurement noise.
func NewProfiler(m *mapreduce.Model, rng *sim.RNG) *Profiler {
	return &Profiler{Model: m, Sampler: perfctr.NewSampler(rng)}
}

// Observe profiles one application at the reference configuration. It
// draws from the sampler's RNG and reuses one solver's scratch, so a
// Profiler serves one goroutine at a time.
func (p *Profiler) Observe(app workloads.App, sizeGB float64) (Observation, error) {
	if p.eval == nil || p.evalModel != p.Model {
		p.eval, p.evalModel = p.Model.NewEvaluator(), p.Model
	}
	out, err := p.eval.SoloApp(mapreduce.RunSpec{
		App: app, DataMB: sizeGB * 1024, Cfg: ProfilingConfig(),
	})
	if err != nil {
		return Observation{}, fmt.Errorf("core: profile %s: %w", app.Name, err)
	}
	v := p.Sampler.MeasureAveraged(app.Profile, out.Telemetry(), ProfilingRuns)
	return Observation{App: app, SizeGB: sizeGB, Features: v}, nil
}

// ObserveExact is Observe without measurement noise (used by the oracle
// experiments and to build noise-free training matrices).
func (p *Profiler) ObserveExact(app workloads.App, sizeGB float64) (Observation, error) {
	out, _, err := p.Model.Solo(mapreduce.RunSpec{
		App: app, DataMB: sizeGB * 1024, Cfg: ProfilingConfig(),
	})
	if err != nil {
		return Observation{}, fmt.Errorf("core: profile %s: %w", app.Name, err)
	}
	return Observation{App: app, SizeGB: sizeGB, Features: perfctr.Exact(app.Profile, out.Telemetry())}, nil
}

// Classifier assigns an incoming application to one of the four behaviour
// classes by k-nearest-neighbour matching against the training
// applications' feature vectors — "the classifier chooses the application
// in the database that best resembles the testing application" (§6.4).
type Classifier struct {
	knn      *ml.KNNClassifier
	scaler   *ml.Scaler
	training []Observation
	scaled   [][reducedLen]float64 // training's reduced features, standardized
}

// NewClassifier trains a classifier on observations of the known
// (training-set) applications.
func NewClassifier(training []Observation) (*Classifier, error) {
	if len(training) == 0 {
		return nil, fmt.Errorf("core: classifier needs training observations")
	}
	X := make([][]float64, len(training))
	labels := make([]int, len(training))
	for i, o := range training {
		X[i] = o.Reduced()
		labels[i] = int(o.App.Class)
	}
	knn := ml.NewKNN(3)
	if err := knn.Train(X, labels); err != nil {
		return nil, fmt.Errorf("core: classifier: %w", err)
	}
	scaler, err := ml.FitScaler(X)
	if err != nil {
		return nil, fmt.Errorf("core: classifier: %w", err)
	}
	scaled := make([][reducedLen]float64, len(X))
	for i, x := range X {
		scaler.TransformInto(scaled[i][:], x)
	}
	return &Classifier{
		knn:      knn,
		scaler:   scaler,
		training: training,
		scaled:   scaled,
	}, nil
}

// Classify returns the behaviour class for an observation: the k-NN
// vote of ml.KNNClassifier.Classify (majority, then nearest member,
// then lowest class). It allocates nothing.
func (c *Classifier) Classify(o Observation) workloads.Class {
	var x [reducedLen]float64
	o.reducedInto(&x)
	return workloads.Class(c.knn.Classify(x[:]))
}

// NearestKnown returns the training observation whose features best
// resemble o — the LkT-STP matching step. Distances are computed on
// standardized features (so megabyte-scale metrics do not drown the
// ratios) and same-data-size entries are strongly preferred, mirroring
// the paper's per-size database organization.
func (c *Classifier) NearestKnown(o Observation) Observation {
	return c.training[c.nearestIndex(&o)]
}

// nearestIndex is NearestKnown's scan, returning the training index:
// the first one at the minimum distance. The distance is ml.Euclid's:
// the squared differences summed in feature order, then the root. It
// allocates nothing.
func (c *Classifier) nearestIndex(o *Observation) int {
	var raw, x [reducedLen]float64
	o.reducedInto(&raw)
	c.scaler.TransformInto(x[:], raw[:])
	best, bestD := -1, 0.0
	for i := range c.scaled {
		r := &c.scaled[i]
		var sq float64
		for j := range x {
			dj := x[j] - r[j]
			sq += dj * dj
		}
		d := math.Sqrt(sq)
		// Same-size entries are strongly preferred.
		if c.training[i].SizeGB != o.SizeGB {
			d *= 4
		}
		if best < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// RuleClassify is the threshold-based classifier sketched in §6.1 of the
// paper ("the CPU user utilization of wordcount is higher than the
// average user utilization of the studied applications, and with low CPU
// iowait utilization and I/O bandwidth rates this application is
// categorized as compute intensive"): each feature is compared against
// the mean over reference observations. It needs no training beyond the
// reference means, which makes it usable on live engine runs whose
// absolute feature scales differ from the simulated testbed's.
func RuleClassify(v perfctr.Vector, reference []perfctr.Vector) workloads.Class {
	var mean perfctr.Vector
	if len(reference) > 0 {
		for _, r := range reference {
			for i := range mean {
				mean[i] += r[i]
			}
		}
		for i := range mean {
			mean[i] /= float64(len(reference))
		}
	} else {
		mean = v
	}
	rel := func(m perfctr.Metric) float64 {
		if mean[m] == 0 {
			return 1
		}
		return v[m] / mean[m]
	}
	switch {
	case rel(perfctr.LLCMPKI) > 2 && rel(perfctr.IPC) < 1:
		return workloads.MemBound
	case rel(perfctr.CPUIOWait) > 1.3 && rel(perfctr.CPUUser) < 1:
		return workloads.IOBound
	case rel(perfctr.CPUUser) > 1.05 && rel(perfctr.CPUIOWait) < 1:
		return workloads.Compute
	default:
		return workloads.Hybrid
	}
}
