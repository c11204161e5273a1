package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/ml"
)

// STP is a self-tuning prediction technique: given the observations of
// two co-located (possibly unknown) applications, it predicts the joint
// configuration that minimizes the pair's EDP — without running the
// brute-force search COLAO needs.
type STP interface {
	// Name identifies the technique in tables (LkT, LR, REPTree, MLP).
	Name() string
	// PredictBest returns the predicted-optimal joint configuration.
	PredictBest(a, b Observation) ([2]mapreduce.Config, error)
}

// LkTSTP is the lookup-table technique (Figure 6): classify the two
// incoming applications against the database and return the stored
// optimal configuration of the best-resembling known pair.
type LkTSTP struct {
	DB *Database
}

// Name implements STP.
func (s *LkTSTP) Name() string { return "LkT" }

// PredictBest implements STP.
func (s *LkTSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	cfg, _, err := s.DB.lookupConfig(&profileRec{obs: a}, &profileRec{obs: b})
	return cfg, err
}

// PairExpectation is a technique's full outcome forecast at its chosen
// configuration: pair EDP in J·s, makespan seconds, average watts. Its
// field layout matches audit.Expectation so the scheduler converts by
// plain struct conversion.
type PairExpectation struct {
	EDP    float64
	TimeS  float64
	PowerW float64
}

// ExpectingSTP is implemented by techniques that expose a full outcome
// forecast alongside the predicted configuration — the decision-audit
// log joins it against the realized outcome at completion.
type ExpectingSTP interface {
	PredictBestExpected(a, b Observation) ([2]mapreduce.Config, PairExpectation, error)
}

// PredictBestExpected implements ExpectingSTP: the lookup table stores
// the best-resembling known pair's full measured outcome alongside its
// optimal configuration, so LkT's forecast comes for free.
func (s *LkTSTP) PredictBestExpected(a, b Observation) ([2]mapreduce.Config, PairExpectation, error) {
	return s.predict(&profileRec{obs: a}, &profileRec{obs: b})
}

// predict is PredictBestExpected on two records in place; a router
// record's cached nearest-known index spares the lookup its scan.
func (s *LkTSTP) predict(a, b *profileRec) ([2]mapreduce.Config, PairExpectation, error) {
	cfg, out, err := s.DB.lookupConfig(a, b)
	if err != nil {
		return cfg, PairExpectation{}, err
	}
	return cfg, PairExpectation{
		EDP:    out.EDP,
		TimeS:  out.Makespan,
		PowerW: out.AvgPower,
	}, nil
}

// predictExpected dispatches to the richest prediction interface the
// technique implements, degrading gracefully: full forecast or
// configuration-only (zero expectation). It takes the pair's records
// by reference, so the observations are copied at most once, into the
// technique's call, and not at all into a MemoSTP's or an LkTSTP's,
// which read what the records cache: b.single, that b's record belongs
// to one submission, so the pair cannot recur (a MemoSTP's), and each
// record's nearest-known index (an LkTSTP's).
func predictExpected(t STP, a, b *profileRec) ([2]mapreduce.Config, PairExpectation, error) {
	switch p := t.(type) {
	case *MemoSTP:
		return p.predict(a, b)
	case *LkTSTP:
		return p.predict(a, b)
	case ExpectingSTP:
		return p.PredictBestExpected(a.obs, b.obs)
	}
	cfg, err := t.PredictBest(a.obs, b.obs)
	return cfg, PairExpectation{}, err
}

// modelKey identifies one trained regressor: a class pair at one
// data-size combination. Splitting by size combination keeps each
// model's response surface unimodal over the knobs — pooling sizes lets
// the argmin land in leaves whose statistics mix size regimes.
type modelKey struct {
	cp           ClassPair
	sizeA, sizeB float64
}

// MLMSTP is the machine-learning-model technique (Figure 7): one
// regressor per class pair is trained on the database's (features,
// configuration) → EDP rows; prediction classifies the incoming pair,
// selects the class-pair model, evaluates it over every permutation of
// the tunable parameters, and returns the argmin.
//
// The models train on first use: the first call of PredictBest,
// PredictRow, Models, TrainTime or SaveModels runs the training (and,
// if nothing has yet, the database's row sweep), once, and every later
// call — from any goroutine — sees its result. A program that only
// ever consults the lookup table never pays for either.
// Every regressor seeds itself and the rows group deterministically, so
// when training runs does not change a bit of what the models predict.
type MLMSTP struct {
	name        string
	db          *Database
	factory     ModelFactory
	rowStride   int
	useFeatures bool
	trainGauge  *metrics.Gauge

	once      sync.Once
	models    map[modelKey]ml.Regressor
	trainTime time.Duration
	trainErr  error
}

// ModelFactory builds a fresh regressor (one is trained per class pair).
type ModelFactory func() ml.Regressor

// NewMLMSTP returns a technique that trains per-class-pair models from
// the database rows on first use.
func NewMLMSTP(name string, db *Database, factory ModelFactory) (*MLMSTP, error) {
	return newMLMSTP(name, db, factory, 1, false)
}

// NewMLMSTPSampled is NewMLMSTP with every rowStride-th training row —
// used to keep expensive models (the MLP) tractable on dense databases.
func NewMLMSTPSampled(name string, db *Database, factory ModelFactory, rowStride int) (*MLMSTP, error) {
	return newMLMSTP(name, db, factory, rowStride, false)
}

// NewMLMSTPFeatures trains models whose inputs include the two slot
// applications' reduced feature vectors alongside the knobs, letting
// tree models distinguish application combinations within a class pair
// and route unknown applications to the most similar training surface.
func NewMLMSTPFeatures(name string, db *Database, factory ModelFactory, rowStride int) (*MLMSTP, error) {
	return newMLMSTP(name, db, factory, rowStride, true)
}

// newMLMSTP checks that the database can have rows to train on — a
// non-empty pair grid — without sweeping them; the sweep and the
// training wait for first use. Every pair sweeps at least one row and
// every class pair's first row survives any stride, so such a database
// always yields at least one model.
func newMLMSTP(name string, db *Database, factory ModelFactory, rowStride int, useFeatures bool) (*MLMSTP, error) {
	if rowStride < 1 {
		rowStride = 1
	}
	if len(db.obs) == 0 {
		return nil, fmt.Errorf("core: %s: database has no training rows", name)
	}
	return &MLMSTP{name: name, db: db, factory: factory, rowStride: rowStride, useFeatures: useFeatures}, nil
}

// SetTrainGauge makes the training record its wall-clock seconds in g
// when it runs. Call it before the technique's first use.
func (s *MLMSTP) SetTrainGauge(g *metrics.Gauge) { s.trainGauge = g }

// trained runs the training on first call and returns its error, the
// same one to every caller.
func (s *MLMSTP) trained() error {
	s.once.Do(s.train)
	return s.trainErr
}

// train fits one regressor per (class pair, size combination) from the
// database rows, sweeping them first if nothing has yet. Models stay nil
// unless every regressor trains. The training time is the fit alone:
// the row sweep is the database's, timed on its own gauge.
func (s *MLMSTP) train() {
	dbRows, err := s.db.Rows()
	if err != nil {
		s.trainErr = fmt.Errorf("core: %s: %w", s.name, err)
		return
	}
	start := time.Now()
	groups := make(map[modelKey][]TrainRow)
	for cp, all := range dbRows {
		for i := 0; i < len(all); i += s.rowStride {
			r := all[i]
			groups[modelKey{cp, r.X[0], r.X[1]}] = append(groups[modelKey{cp, r.X[0], r.X[1]}], r)
		}
	}
	models := make(map[modelKey]ml.Regressor, len(groups))
	for key, rows := range groups {
		X := make([][]float64, len(rows))
		y := make([]float64, len(rows))
		for i, r := range rows {
			X[i] = s.inputRow(r.FA, r.FB, r.X)
			// Train on the log of the baseline-relative EDP: absolute EDP
			// spans orders of magnitude across pairs and sizes, but the
			// response to the knobs — what the argmin needs — is a small,
			// class-determined surface. The monotone map leaves the
			// argmin unchanged.
			y[i] = math.Log(r.RelEDP)
		}
		m := s.factory()
		if err := m.Train(X, y); err != nil {
			s.trainErr = fmt.Errorf("core: %s model for %v: %w", s.name, key.cp, err)
			return
		}
		models[key] = m
	}
	s.models = models
	s.trainTime = time.Since(start)
	s.trainGauge.Set(s.trainTime.Seconds())
}

// Models reports the number of trained per-(class-pair, size) models,
// training them first if needed; 0 when the training failed.
func (s *MLMSTP) Models() int {
	if s.trained() != nil {
		return 0
	}
	return len(s.models)
}

// inputRow assembles a model input, prepending slot features when the
// technique is feature-aware.
func (s *MLMSTP) inputRow(fa, fb, cfgRow []float64) []float64 {
	if !s.useFeatures {
		return cfgRow
	}
	x := make([]float64, 0, len(fa)+len(fb)+len(cfgRow))
	x = append(x, fa...)
	x = append(x, fb...)
	x = append(x, cfgRow...)
	return x
}

// Name implements STP.
func (s *MLMSTP) Name() string { return s.name }

// TrainTime reports the wall-clock cost of training all class-pair
// models (the Figure-8 overhead metric), training them first if needed;
// 0 when the training failed.
func (s *MLMSTP) TrainTime() time.Duration {
	_ = s.trained() // a failed training leaves trainTime at 0
	return s.trainTime
}

// model selects the trained regressor for two observations: the exact
// (class pair, size combination) if present, otherwise the same class
// pair at the nearest size combination, otherwise any model sharing a
// class.
func (s *MLMSTP) model(a, b Observation) (ml.Regressor, error) {
	ca := s.db.Classifier().Classify(a)
	cb := s.db.Classifier().Classify(b)
	cp := NewClassPair(ca, cb)
	sa, sb := a.SizeGB, b.SizeGB
	if cb < ca || (ca == cb && sb < sa) {
		sa, sb = sb, sa
	}
	if m, ok := s.models[modelKey{cp, sa, sb}]; ok {
		return m, nil
	}
	// Nearest size combination within the class pair.
	var best ml.Regressor
	bestD := math.Inf(1)
	for key, m := range s.models {
		if key.cp != cp {
			continue
		}
		d := math.Abs(math.Log(key.sizeA/sa)) + math.Abs(math.Log(key.sizeB/sb))
		if d < bestD {
			best, bestD = m, d
		}
	}
	if best != nil {
		return best, nil
	}
	// Any model sharing a class, then any at all.
	for key, m := range s.models {
		if key.cp.A == ca || key.cp.B == ca || key.cp.A == cb || key.cp.B == cb {
			return m, nil
		}
	}
	for _, m := range s.models {
		return m, nil
	}
	return nil, fmt.Errorf("core: %s: no trained models", s.name)
}

// PredictBest implements STP: argmin of the selected class-pair model
// over every permutation of the tunable parameters (Figure 7, step 4).
// The sweep runs over the precomputed design matrix in parallel chunks;
// ties break by configuration index, so the chosen configuration is
// bit-identical to a serial scan at any GOMAXPROCS.
func (s *MLMSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	if err := s.trained(); err != nil {
		return [2]mapreduce.Config{}, err
	}
	m, err := s.model(a, b)
	if err != nil {
		return [2]mapreduce.Config{}, err
	}
	// Match the training slot canonicalization (see BuildDatabase), using
	// the *classified* classes — the true identity stays hidden from the
	// prediction path.
	ca := s.db.Classifier().Classify(a)
	cb := s.db.Classifier().Classify(b)
	swapped := cb < ca || (ca == cb && b.SizeGB < a.SizeGB)
	sa, sb := a, b
	if swapped {
		sa, sb = b, a
	}
	var fa, fb [reducedLen]float64
	sa.reducedInto(&fa)
	sb.reducedInto(&fb)
	pcs := mapreduce.PairConfigsCached(s.db.Oracle().Model.Spec.Cores)
	idx := s.argminRows(m, pcs, sa.SizeGB, sb.SizeGB, fa, fb)
	if idx < 0 {
		return [2]mapreduce.Config{}, fmt.Errorf("core: %s: empty configuration space", s.name)
	}
	best := pcs[idx]
	if swapped {
		best[0], best[1] = best[1], best[0]
	}
	return best, nil
}

// argminRows returns the index of the configuration whose
// configRow(sizeA, sizeB, ·) the regressor scores lowest, ties broken
// by lowest index (the serial scan's first-wins rule), or -1 when there
// is none. Chunks of argminChunk configurations fan out through
// argminChunks; each worker computes every row into one reused
// input-row buffer (configRowInto), so the sweep allocates nothing per
// configuration and caches nothing per size pair. The slot features
// come by value, so the closures copy them and nothing else escapes.
func (s *MLMSTP) argminRows(m ml.Regressor, pcs [][2]mapreduce.Config, sizeA, sizeB float64, fa, fb [reducedLen]float64) int {
	off := 0
	if s.useFeatures {
		off = 2 * reducedLen
	}
	idx, _ := argminChunks(len(pcs), argminChunk,
		func() []float64 {
			x := make([]float64, off+configRowLen)
			if s.useFeatures {
				for i := range fa {
					x[i], x[reducedLen+i] = fa[i], fb[i]
				}
			}
			return x
		},
		func(x []float64, lo, hi int) (int, float64, error) {
			best, bestPred := -1, math.Inf(1)
			for i := lo; i < hi; i++ {
				configRowInto(x[off:], sizeA, sizeB, pcs[i])
				if pred := m.Predict(x); pred < bestPred {
					best, bestPred = i, pred
				}
			}
			return best, bestPred, nil
		})
	return idx
}

// argminChunk is the argmin sweep's chunk size: below it a goroutine
// hand-off costs more than the scan.
const argminChunk = 512

// predictSolo predicts the best standalone configuration for the
// record's application (the PTM mapping policy, which tunes without
// pairing, and a job with no partner): the solo-optimal configuration
// of the database's known application nearest the record, matched
// through its cached nearest-known index where it has one, plus the
// forecast backing it, that application's solo-optimal measured
// outcome. The forecast is for the database's conditions (the
// neighbour's app and size, run alone at the returned configuration),
// so its error against the realized outcome measures how well the
// database still resembles the live workload — the decision-audit
// drift signal.
func predictSolo(r *profileRec, db *Database) (mapreduce.Config, PairExpectation, error) {
	near := &db.classer.training[db.nearest(r)]
	best, err := db.Oracle().BestSolo(near.App, near.SizeGB*1024)
	if err != nil {
		return mapreduce.Config{}, PairExpectation{}, err
	}
	return best.Cfg, PairExpectation{
		EDP:    best.Out.EDP,
		TimeS:  best.Out.Makespan,
		PowerW: best.Out.AvgPower,
	}, nil
}

// PredictRow returns the technique's baseline-relative EDP estimate for
// one database row of the given class pair — used by the Table-1
// training-accuracy experiment.
func (s *MLMSTP) PredictRow(cp ClassPair, r TrainRow) (float64, error) {
	if err := s.trained(); err != nil {
		return 0, err
	}
	m, ok := s.models[modelKey{cp, r.X[0], r.X[1]}]
	if !ok {
		return 0, fmt.Errorf("core: %s: no model for %v at sizes (%g,%g)", s.name, cp, r.X[0], r.X[1])
	}
	return math.Exp(m.Predict(s.inputRow(r.FA, r.FB, r.X))), nil
}
