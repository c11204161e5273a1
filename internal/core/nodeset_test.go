package core

import (
	"testing"

	"ecost/internal/sim"
)

// TestNodeSetPropertyVsMapModel drives a nodeSet and a map-based
// reference model with the same random operation stream and checks
// set/has/min/count/next agree after every step. Sizes straddle the 64-bit
// word boundaries the bitmap packs into — the set became load-bearing
// per shard, where slices start at arbitrary sizes.
func TestNodeSetPropertyVsMapModel(t *testing.T) {
	for _, size := range []int{1, 2, 63, 64, 65, 127, 128, 129, 200, 1024} {
		rng := sim.NewRNG(int64(911 + size))
		s := newNodeSet(size)
		model := map[int]bool{}
		check := func(step int) {
			t.Helper()
			// min: smallest id present in the model.
			wantMin, wantOK := 0, false
			for id := 0; id < size; id++ {
				if model[id] {
					wantMin, wantOK = id, true
					break
				}
			}
			gotMin, gotOK := s.min()
			if gotOK != wantOK || (wantOK && gotMin != wantMin) {
				t.Fatalf("size %d step %d: min() = %d,%v want %d,%v", size, step, gotMin, gotOK, wantMin, wantOK)
			}
			if got, want := s.count(), len(model); got != want {
				t.Fatalf("size %d step %d: count() = %d want %d", size, step, got, want)
			}
			// next: smallest id present in a random [from, to).
			from, to := rng.Intn(size+1), rng.Intn(size+1)
			wantNext := -1
			for id := from; id < to; id++ {
				if model[id] {
					wantNext = id
					break
				}
			}
			if got := s.next(from, to); got != wantNext {
				t.Fatalf("size %d step %d: next(%d, %d) = %d want %d", size, step, from, to, got, wantNext)
			}
		}
		check(-1)
		for step := 0; step < 400; step++ {
			id := rng.Intn(size)
			switch rng.Intn(3) {
			case 0:
				s.set(id, true)
				model[id] = true
			case 1:
				s.set(id, false)
				delete(model, id)
			case 2:
				if got, want := s.has(id), model[id]; got != want {
					t.Fatalf("size %d step %d: has(%d) = %v want %v", size, step, id, got, want)
				}
			}
			check(step)
		}
		// Full iterate via has across every id, against the model.
		for id := 0; id < size; id++ {
			if s.has(id) != model[id] {
				t.Fatalf("size %d: final has(%d) = %v want %v", size, id, s.has(id), model[id])
			}
		}
		// Drain through min(): repeatedly remove the minimum and confirm
		// the set empties in strictly increasing id order.
		prev := -1
		for {
			id, ok := s.min()
			if !ok {
				break
			}
			if id <= prev {
				t.Fatalf("size %d: min() drain not increasing: %d after %d", size, id, prev)
			}
			if !model[id] {
				t.Fatalf("size %d: min() returned %d not in model", size, id)
			}
			s.set(id, false)
			delete(model, id)
			prev = id
		}
		if len(model) != 0 {
			t.Fatalf("size %d: drain left %d members in model", size, len(model))
		}
	}
}

// TestNodeSetWordBoundary pins the exact bit placement at the 64-bit
// seams: ids 63/64/127/128 must land in distinct words without
// clobbering neighbors.
func TestNodeSetWordBoundary(t *testing.T) {
	s := newNodeSet(129)
	for _, id := range []int{63, 64, 127, 128} {
		s.set(id, true)
	}
	if got := s.count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if id, ok := s.min(); !ok || id != 63 {
		t.Fatalf("min = %d,%v want 63,true", id, ok)
	}
	s.set(63, false)
	if id, ok := s.min(); !ok || id != 64 {
		t.Fatalf("min after clearing 63 = %d,%v want 64,true", id, ok)
	}
	for _, id := range []int{62, 65, 126, 0} {
		if s.has(id) {
			t.Fatalf("has(%d) = true, want false (neighbor clobbered)", id)
		}
	}
}
