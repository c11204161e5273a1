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
	"sync/atomic"

	"ecost/internal/mapreduce"
	"ecost/internal/ml"
	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// profilingConfig is the fixed reference configuration every incoming
// application is briefly run at to collect its feature vector (the
// paper's "learning period"). A mid-range point keeps the measured
// features comparable across applications.
func profilingConfig() mapreduce.Config {
	return mapreduce.Config{Freq: 2.0, Block: 256, Mappers: 4}
}

// ProfilingRuns is how many times the profiling run is repeated to
// average out PMU multiplexing noise (§2.5 of the paper).
const ProfilingRuns = 3

// Observation is what ECoST knows about an application: its measured
// feature vector and data size. The true identity (App, an id into the
// application table) is carried for ground-truth accounting by
// experiments but is never consulted by the classifier or the STP
// models. An observation holds no pointer (DESIGN.md §35).
//
// id is the observation's identity word (DESIGN.md §26): it names
// the router record that holds the observation, not its contents. The
// router stamps a fresh id on every record it carves, and the id rides
// inside the value through every STP wrapper, so MemoSTP keys a pair
// by two words instead of hashing and comparing two observations. Ids
// come from one process-wide counter, so no two records, and no two
// control planes, share one. An observation no router stamped, or one
// holding a NaN, has id 0. Because the id is part of the value, ==
// tells a stamped observation from an un-stamped copy of it, and two
// records holding equal profiles apart.
type Observation struct {
	App      workloads.ID // ground truth; hidden from the predictor path
	SizeGB   float64
	Features perfctr.Vector

	id uint64
}

// obsIDs is the one process-wide source of observation ids: router
// records and the observations MemoSTP keys for itself. Ids start at 1
// and are never reused.
var obsIDs atomic.Uint64

// stamp gives o a fresh id. An observation holding a NaN keeps id 0:
// it equals nothing under ==, not even itself, so nothing may key it.
func (o *Observation) stamp() {
	if *o == *o {
		o.id = obsIDs.Add(1)
	}
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
//
// A ShardedScheduler splits each profile it takes between two
// goroutines (DESIGN.md §45): Submit solves on the caller's, and during
// Run one helper goroutine draws the measurement noise from Sampler, in
// submission order. Use neither the Profiler nor its Sampler elsewhere
// while a scheduler built on it runs.
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

// Observe profiles one application, a copy of a table entry, at the
// reference configuration. It draws from the sampler's RNG and reuses
// one solver's scratch, so a Profiler serves one goroutine at a time.
func (p *Profiler) Observe(app workloads.App, sizeGB float64) (Observation, error) {
	return byID(p.observe, app, sizeGB)
}

// ObserveExact is Observe without measurement noise (used by the oracle
// experiments and to build noise-free training matrices).
func (p *Profiler) ObserveExact(app workloads.App, sizeGB float64) (Observation, error) {
	return byID(p.observeExact, app, sizeGB)
}

// byID profiles app through the form of observe that takes its id.
func byID(observe func(*Observation, workloads.ID, float64) error, app workloads.App, sizeGB float64) (o Observation, err error) {
	id, err := app.ID()
	if err == nil {
		err = observe(&o, id, sizeGB)
	}
	if err != nil {
		return Observation{}, fmt.Errorf("core: profile %s: %w", app.Name, err)
	}
	return o, nil
}

// observe is Observe of the application id names, written into dst on
// success only.
func (p *Profiler) observe(dst *Observation, id workloads.ID, sizeGB float64) error {
	if err := p.solve(dst, id, sizeGB); err != nil {
		return err
	}
	p.noise(dst)
	return nil
}

// solve is observe's first half, the only one that can fail: the
// profiling run's solve and its noise-free features, written into dst
// on success only. The router runs it at submission, into its record
// store.
func (p *Profiler) solve(dst *Observation, id workloads.ID, sizeGB float64) error {
	if p.eval == nil || p.evalModel != p.Model {
		p.eval, p.evalModel = p.Model.NewEvaluator(), p.Model
	}
	app := id.App()
	out, err := p.eval.SoloApp(mapreduce.RunSpec{
		App: app, DataMB: sizeGB * 1024, Cfg: profilingConfig(),
	})
	if err != nil {
		return err
	}
	dst.App, dst.SizeGB = id, sizeGB
	tel := out.Telemetry()
	perfctr.ExactInto(&dst.Features, &app.Profile, &tel)
	return nil
}

// noise is observe's second half: the sampler's measurement noise on
// dst's exact features. It draws from the sampler alone; the router's
// finisher runs it for each record in submission order (DESIGN.md §45).
func (p *Profiler) noise(dst *Observation) {
	p.Sampler.NoiseInto(&dst.Features, ProfilingRuns)
}

// observeExact is ObserveExact of the application id names, into dst.
func (p *Profiler) observeExact(dst *Observation, id workloads.ID, sizeGB float64) error {
	app := id.App()
	out, _, err := p.Model.Solo(mapreduce.RunSpec{
		App: app, DataMB: sizeGB * 1024, Cfg: profilingConfig(),
	})
	if err != nil {
		return err
	}
	dst.App, dst.SizeGB = id, sizeGB
	dst.Features = perfctr.Exact(app.Profile, out.Telemetry())
	return nil
}

// Classifier assigns an incoming application to one of the four behaviour
// classes by k-nearest-neighbour matching against the training
// applications' feature vectors — "the classifier chooses the application
// in the database that best resembles the testing application" (§6.4).
type Classifier struct {
	scaler   *ml.Scaler
	training []Observation
	scaled   [][reducedLen]float64 // training's reduced features, standardized

	// id names the classifier in the answers a router record caches
	// (profileRec.by), so no other classifier's lookup reads them.
	id uint64
}

// classifierIDs numbers classifiers from 1, process-wide.
var classifierIDs atomic.Uint64

// NewClassifier trains a classifier on observations of the known
// (training-set) applications.
func NewClassifier(training []Observation) (*Classifier, error) {
	if len(training) == 0 {
		return nil, fmt.Errorf("core: classifier needs training observations")
	}
	X := make([][]float64, len(training))
	for i, o := range training {
		X[i] = o.Reduced()
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
		scaler:   scaler,
		training: training,
		scaled:   scaled,
		id:       classifierIDs.Add(1),
	}, nil
}

// knnK is the classifier's neighbourhood size.
const knnK = 3

// neighbour is one of the k nearest training observations: its
// distance and class.
type neighbour struct {
	d     float64
	class workloads.Class
}

// Classify returns the behaviour class for an observation: the majority
// class among the knnK training observations nearest in standardized
// reduced features. Ties on the vote go to the class whose nearest
// member is closest, and a tie on that distance too to the lower class,
// so the answer is a pure function of the observation and the training
// set. It allocates nothing.
func (c *Classifier) Classify(o Observation) workloads.Class {
	class, _ := c.answer(&o)
	return class
}

// NearestKnown returns the training observation whose features best
// resemble o — the LkT-STP matching step. Distances are computed on
// standardized features (so megabyte-scale metrics do not drown the
// ratios) and same-data-size entries are strongly preferred, mirroring
// the paper's per-size database organization.
func (c *Classifier) NearestKnown(o Observation) Observation {
	_, near := c.answer(&o)
	return c.training[near]
}

// answer is the classifier's one scan over its rows: Classify's vote,
// and NearestKnown's training index, the first one at the minimum
// distance with other-size rows' distances counted four times. It
// allocates nothing.
func (c *Classifier) answer(o *Observation) (workloads.Class, int) {
	x := c.standardize(o)
	var nearest [knnK]neighbour
	n := 0
	near, nearD := -1, 0.0
	for i := range c.scaled {
		nb := neighbour{c.dist(&x, i), c.training[i].App.Class()}
		// Same-size entries are strongly preferred.
		d := nb.d
		if c.training[i].SizeGB != o.SizeGB {
			d *= 4
		}
		if near < 0 || d < nearD {
			near, nearD = i, d
		}
		if n < knnK {
			nearest[n] = nb
			n++
			continue
		}
		// Replace the farthest if closer.
		far := 0
		for j := 1; j < knnK; j++ {
			if nearest[j].d > nearest[far].d {
				far = j
			}
		}
		if nb.d < nearest[far].d {
			nearest[far] = nb
		}
	}
	return vote(nearest[:n]), near
}

// vote applies Classify's majority and tie rules: the winner is the
// class that is greatest under (votes, then the nearer nearest member,
// then the lower class), a strict order, so the neighbours' order does
// not matter.
func vote(nearest []neighbour) workloads.Class {
	var best workloads.Class
	bestVotes, bestD := 0, 0.0
	for _, n := range nearest {
		votes, d := 0, n.d
		for _, m := range nearest {
			if m.class == n.class {
				votes++
				if m.d < d {
					d = m.d
				}
			}
		}
		if votes > bestVotes || (votes == bestVotes && (d < bestD || (d == bestD && n.class < best))) {
			best, bestVotes, bestD = n.class, votes, d
		}
	}
	return best
}

// standardize returns o's reduced features, standardized as the
// training rows are.
func (c *Classifier) standardize(o *Observation) (x [reducedLen]float64) {
	var raw [reducedLen]float64
	o.reducedInto(&raw)
	c.scaler.TransformInto(x[:], raw[:])
	return x
}

// dist is ml.Euclid's distance from the standardized x to training row
// i: the squared differences summed in feature order, then the root.
func (c *Classifier) dist(x *[reducedLen]float64, i int) float64 {
	r := &c.scaled[i]
	var sq float64
	for j := range x {
		dj := x[j] - r[j]
		sq += dj * dj
	}
	return math.Sqrt(sq)
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
