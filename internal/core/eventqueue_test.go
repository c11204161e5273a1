package core

import (
	"slices"
	"testing"

	"ecost/internal/flight"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// TestEventQueueAgainstSortedSlice drives the completion heap with
// seeded random set, move and clear operations and checks it after
// every one against a sorted (at, seq) slice: the heap's minimum, its
// 4-ary heap order, every node's heap index, and finally the whole
// firing order. Times come from a small grid so equal times are
// common and the seq tiebreak is exercised.
func TestEventQueueAgainstSortedSlice(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := sim.NewRNG(seed)
		var q eventQueue
		nodes := make([]*onlineNode, 1+rng.Intn(40))
		for i := range nodes {
			nodes[i] = &onlineNode{id: i, hi: -1}
		}
		var ref []completion // pending entries, sorted by (at, seq)
		refDrop := func(n *onlineNode) {
			ref = slices.DeleteFunc(ref, func(c completion) bool { return c.n == n })
		}
		check := func(op int) {
			t.Helper()
			if len(q.heap) != len(ref) {
				t.Fatalf("seed %d op %d: heap holds %d entries, want %d", seed, op, len(q.heap), len(ref))
			}
			for i, c := range q.heap {
				if c.n.hi != i {
					t.Fatalf("seed %d op %d: node %d at heap index %d records index %d", seed, op, c.n.id, i, c.n.hi)
				}
				if i > 0 && before(&c, &q.heap[(i-1)/4]) {
					t.Fatalf("seed %d op %d: heap index %d sorts before its parent", seed, op, i)
				}
			}
			for _, n := range nodes {
				pending := slices.ContainsFunc(ref, func(c completion) bool { return c.n == n })
				if pending != (n.hi >= 0) {
					t.Fatalf("seed %d op %d: node %d pending=%v, heap index %d", seed, op, n.id, pending, n.hi)
				}
			}
			if len(ref) > 0 && q.heap[0] != ref[0] {
				t.Fatalf("seed %d op %d: heap minimum %+v, want %+v", seed, op, q.heap[0], ref[0])
			}
		}
		for op := 0; op < 400; op++ {
			n := nodes[rng.Intn(len(nodes))]
			if rng.Intn(4) == 0 {
				q.clear(n)
				refDrop(n)
			} else {
				at := float64(rng.Intn(8))
				seq := q.seq
				q.set(n, at)
				refDrop(n)
				ref = append(ref, completion{at: at, seq: seq, n: n})
				slices.SortFunc(ref, func(a, b completion) int {
					if before(&a, &b) {
						return -1
					}
					return 1
				})
			}
			check(op)
		}
		for i := 0; len(q.heap) > 0; i++ {
			if got, want := q.heap[0], ref[i]; got != want {
				t.Fatalf("seed %d: firing %d is %+v, want %+v", seed, i, got, want)
			}
			q.clear(q.heap[0].n)
		}
	}
}

// twoShardApps returns two training apps that route to different shards
// of a two-shard control plane, so the arrivals of one never touch the
// other's node.
func twoShardApps(t *testing.T) (a, b workloads.ID) {
	t.Helper()
	apps := workloads.TrainingIDs()
	for _, x := range apps {
		for _, y := range apps {
			if routeShard(x.Name(), 2) == 0 && routeShard(y.Name(), 2) == 1 {
				return x, y
			}
		}
	}
	t.Fatal("every training app routes to one shard")
	return
}

// twoShards builds a two-shard, two-node control plane: one node per
// shard.
func twoShards(t *testing.T) *ShardedScheduler {
	t.Helper()
	fixture(t)
	c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(7)),
		func() STP { return NewMemoSTP(fix.lkt, nil) }, 2, ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDriveOrder pins the drive's order between its two event kinds
// and among completions — the (at, seq) order the deleted closure
// engine gave them (DESIGN.md §24).
func TestDriveOrder(t *testing.T) {
	t.Run("arrival before completion at the same time", func(t *testing.T) {
		c := twoShards(t)
		a, b := twoShardApps(t)
		c.Submit(a, 1, 0)
		finishSubmitted(c)
		if !c.step(0) || len(c.ev.heap) != 1 {
			t.Fatalf("the arrival at 0 left %d pending completions, want 1", len(c.ev.heap))
		}
		done := c.ev.heap[0].at
		// An arrival due exactly when the first job finishes, on the
		// other shard: both events are due at done.
		c.Submit(b, 1, done)
		finishSubmitted(c)
		if !c.step(done) {
			t.Fatal("nothing fired at the shared time")
		}
		if c.arrivals.peek() != nil || len(c.completed) != 0 {
			t.Fatalf("first event at %g: arrivals left %v, %d completions; want the arrival first", done, c.arrivals.peek() != nil, len(c.completed))
		}
		if !c.step(done) || len(c.completed) != 1 || c.completed[0].Finished != done {
			t.Fatalf("second event at %g: completions %+v, want the first job's", done, c.completed)
		}
	})

	t.Run("ring head never fires before the clock", func(t *testing.T) {
		c := twoShards(t)
		a, b := twoShardApps(t)
		c.Submit(a, 1, 0)
		finishSubmitted(c)
		c.step(0)
		done := c.ev.heap[0].at
		c.step(done)
		// Submitted after the clock passed its arrival time: the ring
		// head is due now, not in the past.
		c.Submit(b, 1, 0)
		finishSubmitted(c)
		if at, ok := c.nextAt(); !ok || at != done {
			t.Fatalf("next event at %g (%v), want the clock %g", at, ok, done)
		}
		if !c.step(done) || c.ev.now != done || c.arrivals.peek() != nil {
			t.Fatalf("clock %g after the late arrival, want %g with the ring drained", c.ev.now, done)
		}
	})

	t.Run("completion rescheduled to the same time fires in the same step", func(t *testing.T) {
		// The time is one window of two events, with or without a
		// recorder; the recorder closes one epoch per drive step, so one
		// epoch means one step.
		for _, recorded := range []bool{false, true} {
			c := twoShards(t)
			var fr *flight.Recorder
			if recorded {
				fr = flight.New()
				c.SetFlight(fr)
			}
			a, _ := twoShardApps(t)
			c.Submit(a, 1, 0)
			c.Submit(a, 1, 0)
			finishSubmitted(c)
			c.step(0)
			n := c.shards[routeShard(a.Name(), 2)].nodes[0]
			if len(n.residents) != 2 {
				t.Fatalf("node runs %d jobs, want the pair", len(n.residents))
			}
			done := c.ev.heap[0].at
			// The partner has no work left, so the node's reschedule
			// after the first completion puts the second at the same
			// time.
			for _, r := range n.residents {
				if r != n.evFinisher {
					r.rem = 0
				}
			}
			c.drive()
			if want := (BarrierStats{Windows: 1, WindowEvents: 2}); c.stats != want {
				t.Fatalf("recorded=%v: drive stats %+v, want %+v", recorded, c.stats, want)
			}
			if recorded && fr.Epochs() != 1 {
				t.Fatalf("recorder closed %d epochs over one drive step", fr.Epochs())
			}
			if len(c.completed) != 2 || c.completed[0].Finished != done || c.completed[1].Finished != done {
				t.Fatalf("completions %+v, want two at %g", c.completed, done)
			}
		}
	})

	t.Run("equal-time completions fire in the order last scheduled", func(t *testing.T) {
		for _, last := range []int{0, 1} {
			c := twoShards(t)
			a, b := twoShardApps(t)
			c.Submit(a, 1, 0)
			c.Submit(b, 1, 0)
			finishSubmitted(c)
			c.step(0)
			na, nb := c.shards[0].nodes[0], c.shards[1].nodes[0]
			if na.hi < 0 || nb.hi < 0 {
				t.Fatal("a node has no pending completion")
			}
			const at = 1e6
			first, second := na, nb
			if last == 0 {
				first, second = nb, na
			}
			c.ev.set(second, at)
			c.ev.set(first, at)
			c.ev.set(second, at)
			// The log keeps (Finished, ID) order, not firing order, so
			// the first step's one entry names the node that fired first.
			if !c.step(at) || len(c.completed) != 1 {
				t.Fatalf("last=%d: %d completions after one step, want 1", last, len(c.completed))
			}
			if got, want := int(c.completed[0].Node), first.sh.gid(first); got != want {
				t.Fatalf("last=%d: node %d completed first, want node %d", last, got, want)
			}
			for c.step(at) {
			}
			if len(c.completed) != 2 {
				t.Fatalf("last=%d: %d completions, want 2", last, len(c.completed))
			}
		}
	})
}
