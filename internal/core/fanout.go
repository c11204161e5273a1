package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// fanOut runs work(w, i) for every i in [0, n) and returns once all of
// them have run. Up to GOMAXPROCS goroutines claim items from one
// atomic counter, each with its own worker state w from newWorker (an
// evaluator, scratch buffers), so no two goroutines share mutable
// state; with one worker it runs inline on the caller's goroutine.
// Callers write each item's result to its own index and merge in index
// order, which keeps the output independent of the schedule (DESIGN.md
// §9, §38).
func fanOut[W any](n int, newWorker func() W, work func(w W, i int)) {
	if n <= 0 {
		return
	}
	workers := fanWorkers(n)
	if workers == 1 {
		w := newWorker()
		for i := 0; i < n; i++ {
			work(w, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			w := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				work(w, i)
			}
		}()
	}
	wg.Wait()
}

// fanWorkers is the number of goroutines fanOut runs for n items.
func fanWorkers(n int) int { return min(runtime.GOMAXPROCS(0), n) }

// argminChunks returns the lowest-scoring index in [0, n), ties broken
// by the lowest index, or -1 when nothing scores. The range splits into
// chunks of size chunk that fanOut scans; scan(w, lo, hi) returns the
// first index of [lo, hi) whose score is strictly below every earlier
// one (starting from +Inf), with its score, or -1 when none is (all
// NaN). The chunks merge in order with the same strict <, so the
// answer is the serial scan's first-wins argmin at any worker count.
// The first error in chunk order is returned. With one worker the
// chunks merge as they are scanned, so the sweep allocates nothing of
// its own.
func argminChunks[W any](n, chunk int, newWorker func() W, scan func(w W, lo, hi int) (int, float64, error)) (int, error) {
	if n <= 0 {
		return -1, nil
	}
	chunks := (n + chunk - 1) / chunk
	idx, score := -1, math.Inf(1)
	merge := func(i int, s float64) {
		if i >= 0 && s < score {
			idx, score = i, s
		}
	}
	if fanWorkers(chunks) == 1 {
		w := newWorker()
		for lo := 0; lo < n; lo += chunk {
			i, s, err := scan(w, lo, min(lo+chunk, n))
			if err != nil {
				return -1, err
			}
			merge(i, s)
		}
		return idx, nil
	}
	type chunkBest struct {
		idx   int
		score float64
		err   error
	}
	bests := make([]chunkBest, chunks)
	fanOut(chunks, newWorker, func(w W, c int) {
		lo := c * chunk
		i, s, err := scan(w, lo, min(lo+chunk, n))
		bests[c] = chunkBest{i, s, err}
	})
	for _, b := range bests {
		if b.err != nil {
			return -1, b.err
		}
		merge(b.idx, b.score)
	}
	return idx, nil
}
