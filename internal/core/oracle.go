package core

import (
	"fmt"
	"math"
	"sync"

	"ecost/internal/mapreduce"
	"ecost/internal/workloads"
)

// SoloBest is the result of tuning one application in isolation: the
// configuration minimizing its standalone EDP (the per-application step
// of ILAO).
type SoloBest struct {
	Cfg mapreduce.Config
	Out mapreduce.CoOutcome
}

// PairBest is the result of the COLAO brute-force search for one
// co-located pair: the joint configuration minimizing node EDP.
type PairBest struct {
	Cfg [2]mapreduce.Config
	Out mapreduce.CoOutcome
}

// Oracle runs the brute-force searches of the paper (§4.2) against the
// execution model, memoizing results: the full COLAO search for a pair
// covers every joint knob setting with m1+m2 ≤ cores (the study's
// 84,480-run budget collapses to milliseconds on the analytic model).
//
// The oracle is safe for concurrent use. One mutex guards both memo
// maps and is held only to read or store an entry, never across a
// search. Two goroutines that miss on the same key both search and
// store the same pure result; no caller does that in practice, as the
// database build asks for each canonical pair once and every other
// caller runs on one goroutine. Applications are named by table id.
type Oracle struct {
	Model *mapreduce.Model

	mu   sync.Mutex
	solo map[soloKey]SoloBest
	pair map[pairKey]PairBest
}

type soloKey struct {
	app  workloads.ID
	data float64
}

type pairKey struct {
	appA  workloads.ID
	dataA float64
	appB  workloads.ID
	dataB float64
}

// canonPair orders a pair by application name, then data size.
func canonPair(a workloads.ID, dataA float64, b workloads.ID, dataB float64) (pairKey, bool) {
	if na, nb := a.Name(), b.Name(); na < nb || (na == nb && dataA <= dataB) {
		return pairKey{a, dataA, b, dataB}, false
	}
	return pairKey{b, dataB, a, dataA}, true
}

// NewOracle returns a memoizing oracle over the given model.
func NewOracle(m *mapreduce.Model) *Oracle {
	return &Oracle{Model: m, solo: make(map[soloKey]SoloBest), pair: make(map[pairKey]PairBest)}
}

// BestSolo exhaustively tunes one application running alone.
func (o *Oracle) BestSolo(app workloads.ID, dataMB float64) (SoloBest, error) {
	k := soloKey{app, dataMB}
	o.mu.Lock()
	b, ok := o.solo[k]
	o.mu.Unlock()
	if ok {
		return b, nil
	}
	b, err := o.searchSolo(app, dataMB)
	if err != nil {
		return SoloBest{}, err
	}
	o.mu.Lock()
	o.solo[k] = b
	o.mu.Unlock()
	return b, nil
}

// searchSolo scans the standalone tuning space (160 points) with a
// reused evaluator, then realizes the winner's full outcome.
func (o *Oracle) searchSolo(id workloads.ID, dataMB float64) (SoloBest, error) {
	ev := o.Model.NewEvaluator()
	app := id.App()
	cfgs := mapreduce.AllConfigs(o.Model.Spec.Cores)
	bestIdx := -1
	bestEDP := math.Inf(1)
	for i, cfg := range cfgs {
		cm, err := ev.SoloMetrics(mapreduce.RunSpec{App: app, DataMB: dataMB, Cfg: cfg})
		if err != nil {
			return SoloBest{}, fmt.Errorf("core: solo oracle %s: %w", app.Name, err)
		}
		if cm.EDP < bestEDP {
			bestEDP = cm.EDP
			bestIdx = i
		}
	}
	if bestIdx < 0 {
		return SoloBest{}, fmt.Errorf("core: solo oracle %s: empty configuration space", app.Name)
	}
	co, err := ev.Solo(mapreduce.RunSpec{App: app, DataMB: dataMB, Cfg: cfgs[bestIdx]})
	if err != nil {
		return SoloBest{}, fmt.Errorf("core: solo oracle %s: %w", app.Name, err)
	}
	return SoloBest{Cfg: cfgs[bestIdx], Out: co}, nil
}

// ILAO evaluates the individually-located application optimization
// baseline for a pair: each application is tuned alone and the pair runs
// serially, so the workload's energy is the sum and its delay the sum.
func (o *Oracle) ILAO(a workloads.ID, dataA float64, b workloads.ID, dataB float64) (edp float64, cfgs [2]mapreduce.Config, err error) {
	ba, err := o.BestSolo(a, dataA)
	if err != nil {
		return 0, cfgs, err
	}
	bb, err := o.BestSolo(b, dataB)
	if err != nil {
		return 0, cfgs, err
	}
	energy := ba.Out.EnergyJ + bb.Out.EnergyJ
	delay := ba.Out.Makespan + bb.Out.Makespan
	return energy * delay, [2]mapreduce.Config{ba.Cfg, bb.Cfg}, nil
}

// COLAO evaluates the co-located application optimization oracle: a
// brute-force search over the joint configuration space for the pair.
func (o *Oracle) COLAO(a workloads.ID, dataA float64, b workloads.ID, dataB float64) (PairBest, error) {
	return o.colao(nil, a, dataA, b, dataB)
}

// colao is COLAO with a miss's search run serially on ev, or, when ev
// is nil, fanned out in chunks (see searchPair).
func (o *Oracle) colao(ev *mapreduce.Evaluator, a workloads.ID, dataA float64, b workloads.ID, dataB float64) (PairBest, error) {
	k, swapped := canonPair(a, dataA, b, dataB)
	o.mu.Lock()
	best, ok := o.pair[k]
	o.mu.Unlock()
	if !ok {
		var err error
		if best, err = o.searchPair(ev, k.appA, k.dataA, k.appB, k.dataB); err != nil {
			return PairBest{}, err
		}
		o.mu.Lock()
		o.pair[k] = best
		o.mu.Unlock()
	}
	return unswap(best, swapped), nil
}

// searchPairChunk is the granularity of the chunked COLAO scan: enough
// configurations to amortize a chunk's bookkeeping and its solo-tail
// table, few enough to spread over the workers.
const searchPairChunk = 512

// searchPair scans the 11,200-point joint configuration space (the
// execution model is pure, so the scan is embarrassingly parallel).
// Given an evaluator — the database build's, one per build worker — it
// runs as one PairArgmin on it. Without one it splits into chunks that
// argminChunks fans out, each worker with its own evaluator; the
// chunks merge by the serial scan's first-wins rule. Either way the
// result is bit-identical at any worker count.
func (o *Oracle) searchPair(ev *mapreduce.Evaluator, a workloads.ID, dataA float64, b workloads.ID, dataB float64) (PairBest, error) {
	pcs := mapreduce.PairConfigsCached(o.Model.Spec.Cores)
	specA := mapreduce.RunSpec{App: a.App(), DataMB: dataA}
	specB := mapreduce.RunSpec{App: b.App(), DataMB: dataB}
	var idx int
	var err error
	if ev != nil {
		idx, _, err = ev.PairArgmin(specA, specB, pcs)
	} else {
		idx, err = argminChunks(len(pcs), searchPairChunk, o.Model.NewEvaluator,
			func(ev *mapreduce.Evaluator, lo, hi int) (int, float64, error) {
				i, s, err := ev.PairArgmin(specA, specB, pcs[lo:hi])
				if i >= 0 {
					i += lo
				}
				return i, s, err
			})
	}
	if err != nil {
		return PairBest{}, fmt.Errorf("core: COLAO %s+%s: %w", a.Name(), b.Name(), err)
	}
	if idx < 0 {
		return PairBest{}, fmt.Errorf("core: COLAO %s+%s: empty configuration space", a.Name(), b.Name())
	}
	specA.Cfg, specB.Cfg = pcs[idx][0], pcs[idx][1]
	co, err := o.Model.Pair(specA, specB)
	if err != nil {
		return PairBest{}, fmt.Errorf("core: COLAO %s+%s: %w", a.Name(), b.Name(), err)
	}
	return PairBest{Cfg: pcs[idx], Out: co}, nil
}

func unswap(b PairBest, swapped bool) PairBest {
	if !swapped {
		return b
	}
	b.Cfg[0], b.Cfg[1] = b.Cfg[1], b.Cfg[0]
	if len(b.Out.Apps) == 2 {
		apps := make([]mapreduce.Outcome, 2)
		apps[0], apps[1] = b.Out.Apps[1], b.Out.Apps[0]
		b.Out.Apps = apps
	}
	return b
}

// EvalPair runs the pair at a given joint configuration (used to score
// STP-predicted configurations against the oracle).
func (o *Oracle) EvalPair(a workloads.ID, dataA float64, b workloads.ID, dataB float64, cfg [2]mapreduce.Config) (mapreduce.CoOutcome, error) {
	return o.Model.Pair(
		mapreduce.RunSpec{App: a.App(), DataMB: dataA, Cfg: cfg[0]},
		mapreduce.RunSpec{App: b.App(), DataMB: dataB, Cfg: cfg[1]},
	)
}
