package core

import (
	"fmt"
	"math"
	"runtime"
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
// The oracle is safe for concurrent use: memoization is sharded (one
// mutex per shard, chosen by a hash of the key's application ids) and
// each key is computed at most once — concurrent callers of the same
// uncached search wait for the single in-flight computation instead of
// duplicating an 11,200-point scan. Applications are named by table id.
type Oracle struct {
	Model *mapreduce.Model

	shards [oracleShards]oracleShard
}

// oracleShards is a power of two so shard selection is a mask. 16
// shards keeps contention negligible for the worker-pool sizes the
// database build uses.
const oracleShards = 16

type oracleShard struct {
	mu       sync.Mutex
	solo     map[soloKey]SoloBest
	pair     map[pairKey]PairBest
	soloWait map[soloKey]*inflight[SoloBest]
	pairWait map[pairKey]*inflight[PairBest]
}

// inflight is one in-progress search other goroutines can wait on
// (a minimal per-key singleflight).
type inflight[V any] struct {
	done chan struct{}
	v    V
	err  error
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
	o := &Oracle{Model: m}
	for i := range o.shards {
		o.shards[i] = oracleShard{
			solo:     make(map[soloKey]SoloBest),
			pair:     make(map[pairKey]PairBest),
			soloWait: make(map[soloKey]*inflight[SoloBest]),
			pairWait: make(map[pairKey]*inflight[PairBest]),
		}
	}
	return o
}

// BestSolo exhaustively tunes one application running alone.
func (o *Oracle) BestSolo(app workloads.ID, dataMB float64) (SoloBest, error) {
	k := soloKey{app, dataMB}
	sh := &o.shards[fpFinish(uint64(app))&(oracleShards-1)]
	sh.mu.Lock()
	if b, ok := sh.solo[k]; ok {
		sh.mu.Unlock()
		return b, nil
	}
	if c, ok := sh.soloWait[k]; ok {
		sh.mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	c := &inflight[SoloBest]{done: make(chan struct{})}
	sh.soloWait[k] = c
	sh.mu.Unlock()

	c.v, c.err = o.searchSolo(app, dataMB)
	sh.mu.Lock()
	if c.err == nil {
		sh.solo[k] = c.v
	}
	delete(sh.soloWait, k)
	sh.mu.Unlock()
	close(c.done)
	return c.v, c.err
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
	k, swapped := canonPair(a, dataA, b, dataB)
	sh := &o.shards[fpFinish(uint64(k.appA)<<8|uint64(k.appB))&(oracleShards-1)]
	sh.mu.Lock()
	if best, ok := sh.pair[k]; ok {
		sh.mu.Unlock()
		return unswap(best, swapped), nil
	}
	if c, ok := sh.pairWait[k]; ok {
		sh.mu.Unlock()
		<-c.done
		if c.err != nil {
			return PairBest{}, c.err
		}
		return unswap(c.v, swapped), nil
	}
	c := &inflight[PairBest]{done: make(chan struct{})}
	sh.pairWait[k] = c
	sh.mu.Unlock()

	ca, cb := a, b
	da, db := dataA, dataB
	if swapped {
		ca, cb, da, db = b, a, dataB, dataA
	}
	c.v, c.err = o.searchPair(ca, da, cb, db)
	sh.mu.Lock()
	if c.err == nil {
		sh.pair[k] = c.v
	}
	delete(sh.pairWait, k)
	sh.mu.Unlock()
	close(c.done)
	if c.err != nil {
		return PairBest{}, c.err
	}
	return unswap(c.v, swapped), nil
}

// searchPairChunk is the batch granularity of the COLAO scan: small
// enough that per-worker metric buffers stay cache-resident, large
// enough to amortize the loop bookkeeping.
const searchPairChunk = 512

// searchPair scans the 11,200-point joint configuration space with a
// pool of worker goroutines (the execution model is pure, so the scan is
// embarrassingly parallel). Each worker sweeps its chunks through a
// reused Evaluator via PairBatch — zero allocations per configuration —
// and keeps its chunk's argmin; the merge breaks EDP ties by
// configuration index, so the result is bit-identical to the serial
// scan regardless of worker count.
func (o *Oracle) searchPair(a workloads.ID, dataA float64, b workloads.ID, dataB float64) (PairBest, error) {
	pcs := mapreduce.PairConfigsCached(o.Model.Spec.Cores)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pcs) {
		workers = len(pcs)
	}
	if workers < 1 {
		workers = 1
	}
	type localBest struct {
		idx  int
		err  error
		edp  float64
		seen bool
	}
	results := make([]localBest, workers)
	var wg sync.WaitGroup
	chunk := (len(pcs) + workers - 1) / workers
	specA := mapreduce.RunSpec{App: a.App(), DataMB: dataA}
	specB := mapreduce.RunSpec{App: b.App(), DataMB: dataB}
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(pcs) {
			hi = len(pcs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			ev := o.Model.NewEvaluator()
			var buf [searchPairChunk]mapreduce.CoMetrics
			lb := localBest{edp: math.Inf(1)}
			for start := lo; start < hi; start += searchPairChunk {
				end := start + searchPairChunk
				if end > hi {
					end = hi
				}
				out := buf[:end-start]
				if err := ev.PairBatch(specA, specB, pcs[start:end], out); err != nil {
					lb.err = err
					break
				}
				for j, cm := range out {
					if cm.EDP < lb.edp {
						lb = localBest{idx: start + j, edp: cm.EDP, seen: true}
					}
				}
			}
			results[w] = lb
		}(w, lo, hi)
	}
	wg.Wait()
	merged := localBest{edp: math.Inf(1)}
	for _, lb := range results {
		if lb.err != nil {
			return PairBest{}, fmt.Errorf("core: COLAO %s+%s: %w", a.Name(), b.Name(), lb.err)
		}
		if !lb.seen {
			continue
		}
		if lb.edp < merged.edp || (lb.edp == merged.edp && merged.seen && lb.idx < merged.idx) {
			merged = lb
		}
	}
	if !merged.seen {
		return PairBest{}, fmt.Errorf("core: COLAO %s+%s: empty configuration space", a.Name(), b.Name())
	}
	specA.Cfg, specB.Cfg = pcs[merged.idx][0], pcs[merged.idx][1]
	co, err := o.Model.Pair(specA, specB)
	if err != nil {
		return PairBest{}, fmt.Errorf("core: COLAO %s+%s: %w", a.Name(), b.Name(), err)
	}
	return PairBest{Cfg: pcs[merged.idx], Out: co}, nil
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
