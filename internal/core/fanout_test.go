package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ecost/internal/sim"
)

// atProcs runs f once at GOMAXPROCS 1 and once at 4, restoring the
// setting after each.
func atProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// fanWorker is TestFanOut's worker state. busy catches two goroutines
// inside one state at once; items is a plain counter, so -race reports
// a state that two goroutines share even when their calls never overlap.
type fanWorker struct {
	busy  atomic.Bool
	items int
}

// TestFanOut checks fanOut's contract at GOMAXPROCS 1 and 4 with no
// items, one, fewer than the workers and far more: every index runs
// exactly once, no worker state is used by two goroutines, no more
// states start than there are workers, and each state's items sum to n.
func TestFanOut(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 3, 5000} {
			runs := make([]atomic.Int32, n)
			var mu sync.Mutex
			var states []*fanWorker
			fanOut(n, func() *fanWorker {
				w := &fanWorker{}
				mu.Lock()
				states = append(states, w)
				mu.Unlock()
				return w
			}, func(w *fanWorker, i int) {
				if !w.busy.CompareAndSwap(false, true) {
					t.Errorf("n=%d: worker state shared by two goroutines at item %d", n, i)
				}
				w.items++
				runs[i].Add(1)
				w.busy.Store(false)
			})
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("n=%d: item %d ran %d times", n, i, got)
				}
			}
			if want := min(runtime.GOMAXPROCS(0), n); len(states) != want {
				t.Fatalf("n=%d: %d worker states, want %d", n, len(states), want)
			}
			total := 0
			for _, w := range states {
				total += w.items
			}
			if total != n {
				t.Fatalf("n=%d: workers ran %d items", n, total)
			}
		}
	})
}

// scanScores is argminChunks' scan over a score slice: the first
// strictly lowest score in [lo, hi), or -1 when every score is NaN.
func scanScores(scores []float64) func(struct{}, int, int) (int, float64, error) {
	return func(_ struct{}, lo, hi int) (int, float64, error) {
		best, bestScore := -1, math.Inf(1)
		for i := lo; i < hi; i++ {
			if scores[i] < bestScore {
				best, bestScore = i, scores[i]
			}
		}
		return best, bestScore, nil
	}
}

func noState() struct{} { return struct{}{} }

// TestArgminChunks pins the chunk merge at GOMAXPROCS 1 and 4: a tie
// across a chunk boundary goes to the lower index, an all-NaN chunk is
// skipped, the first error in chunk order wins, and on random scores
// with ties and NaNs the answer equals the serial first-wins scan.
func TestArgminChunks(t *testing.T) {
	nan := math.NaN()
	atProcs(t, func(t *testing.T) {
		cases := []struct {
			name   string
			scores []float64
			want   int
		}{
			{"empty", nil, -1},
			{"tie across boundary", []float64{5, 5, 5, 1, 1, 5, 5, 5}, 3},
			{"tie in later chunks", []float64{5, 5, 5, 5, 2, 5, 5, 5, 2, 5}, 4},
			{"NaN chunk skipped", []float64{nan, nan, nan, nan, 7, 3, 9, 3}, 5},
			{"all NaN", []float64{nan, nan, nan, nan, nan}, -1},
		}
		for _, c := range cases {
			got, err := argminChunks(len(c.scores), 4, noState, scanScores(c.scores))
			if err != nil || got != c.want {
				t.Errorf("%s: got %d, %v; want %d", c.name, got, err, c.want)
			}
		}

		errA, errB := errors.New("chunk 1"), errors.New("chunk 3")
		scores := []float64{4, 3, 2, 1, 4, 3, 2, 1, 0, 0, 0, 0, 4, 3, 2, 1}
		_, err := argminChunks(len(scores), 4, noState, func(_ struct{}, lo, hi int) (int, float64, error) {
			switch lo / 4 {
			case 1:
				return -1, 0, errA
			case 3:
				return -1, 0, errB
			}
			return scanScores(scores)(struct{}{}, lo, hi)
		})
		if err != errA {
			t.Errorf("error: got %v, want the first in chunk order (%v)", err, errA)
		}

		rng := sim.NewRNG(7)
		for trial := 0; trial < 200; trial++ {
			scores := make([]float64, rng.Intn(3000))
			for i := range scores {
				if scores[i] = float64(rng.Intn(40)); scores[i] == 0 {
					scores[i] = nan
				}
			}
			chunk := 1 + rng.Intn(700)
			want, _, _ := scanScores(scores)(struct{}{}, 0, len(scores))
			got, err := argminChunks(len(scores), chunk, noState, scanScores(scores))
			if err != nil || got != want {
				t.Fatalf("trial %d (n=%d, chunk=%d): got %d, %v; serial scan %d", trial, len(scores), chunk, got, err, want)
			}
		}
	})
}
