package core

import (
	"sync"

	"ecost/internal/mapreduce"
)

// The database's training-row sweep iterates configRow over the full
// joint configuration space for every (sizeA, sizeB) combination of the
// training grid. The row depends only on (cores, sizeA, sizeB) — the
// knobs come from the shared PairConfigsCached enumeration — so the
// whole design matrix is precomputed once per combination and shared,
// exactly like PairConfigsCached, and an unswapped training row is the
// matrix row itself. The sweep only asks for the training grid's sizes
// (the paper's 1/5/10 GB), so the cache stays small. The MLM-STP argmin
// sees every job's own sizes, so it computes its rows into a reused
// buffer instead (configRowInto) and never fills the cache.

type designKey struct {
	cores        int
	sizeA, sizeB float64
}

var (
	designMu    sync.Mutex // serializes misses
	designCache sync.Map   // designKey → [][]float64
)

// designMatrixCached returns the configRow design matrix for every
// configuration in PairConfigsCached(cores), in enumeration order:
// row i is configRow(sizeA, sizeB, PairConfigsCached(cores)[i]).
// The matrix is shared — callers must not mutate the rows. Each matrix
// is built once, also when the row sweep's workers all miss at once.
func designMatrixCached(cores int, sizeA, sizeB float64) [][]float64 {
	k := designKey{cores, sizeA, sizeB}
	if v, ok := designCache.Load(k); ok {
		return v.([][]float64)
	}
	designMu.Lock()
	defer designMu.Unlock()
	if v, ok := designCache.Load(k); ok {
		return v.([][]float64)
	}
	pcs := mapreduce.PairConfigsCached(cores)
	if len(pcs) == 0 {
		return nil
	}
	rows := make([][]float64, len(pcs))
	// One backing array keeps the matrix cache-dense for the sweep.
	width := len(configRow(sizeA, sizeB, pcs[0]))
	flat := make([]float64, len(pcs)*width)
	for i, pc := range pcs {
		row := flat[i*width : (i+1)*width : (i+1)*width]
		copy(row, configRow(sizeA, sizeB, pc))
		rows[i] = row
	}
	designCache.Store(k, rows)
	return rows
}
