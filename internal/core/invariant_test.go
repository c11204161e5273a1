package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ecost/internal/sim"
)

// invariantChecker checks the control plane's state after every event
// (DESIGN.md §36):
//
//   - each shard's freeCnt / halfCnt equal its dispatch bitmaps'
//     popcounts;
//   - no node holds more than maxPerNode residents;
//   - each node's accPhase is nodePhase of its resident count;
//   - each shard's phase sums add up to its nodes' cached draws, within
//     1e-9 relative;
//   - no shard's energy ever decreases;
//   - the jobs pending on the shards plus the completed ones are the
//     jobs submitted;
//   - every shard caches its steady solves in the plane's one steady
//     memo, which holds at most steadyMemoCap entries in no more slots
//     than a table at the cap (DESIGN.md §37).
//
// paired and queued record whether any check saw a co-located node and
// a queued job, so a caller can tell that the run exercised them.
type invariantChecker struct {
	c              *ShardedScheduler
	energy         []float64
	paired, queued bool
}

// check returns an error naming the first invariant that fails.
func (k *invariantChecker) check() error {
	c := k.c
	if m := &c.steadyMemo; m.n > steadyMemoCap || m.slots() > capSlots {
		return fmt.Errorf("steady memo: %d entries in %d slots, cap %d entries in %d slots", m.n, m.slots(), steadyMemoCap, capSlots)
	}
	pending := 0
	for i, sh := range c.shards {
		if sh.steadyMemo != &c.steadyMemo {
			return fmt.Errorf("shard %d: steady memo is not the plane's", i)
		}
		pending += sh.pending
		if sh.queue.Len() > 0 {
			k.queued = true
		}
		if n := sh.freeSet.count(); sh.freeCnt != n {
			return fmt.Errorf("shard %d: freeCnt %d, free bitmap holds %d", i, sh.freeCnt, n)
		}
		if n := sh.halfSet.count(); sh.halfCnt != n {
			return fmt.Errorf("shard %d: halfCnt %d, half bitmap holds %d", i, sh.halfCnt, n)
		}
		var watts float64
		for _, n := range sh.nodes {
			if len(n.residents) > maxPerNode {
				return fmt.Errorf("shard %d node %d: %d residents, cap %d", i, n.id, len(n.residents), maxPerNode)
			}
			if len(n.residents) == maxPerNode {
				k.paired = true
			}
			if want := nodePhase(len(n.residents)); n.accPhase != want {
				return fmt.Errorf("shard %d node %d: accPhase %d with %d residents", i, n.id, n.accPhase, len(n.residents))
			}
			watts += n.watts
		}
		sums := sh.phaseWatts[0] + sh.phaseWatts[1] + sh.phaseWatts[2]
		if math.Abs(sums-watts) > 1e-9*math.Abs(watts) {
			return fmt.Errorf("shard %d: phase sums %v, node draws %v", i, sums, watts)
		}
		if sh.energyJ < k.energy[i] {
			return fmt.Errorf("shard %d: energy fell from %v to %v", i, k.energy[i], sh.energyJ)
		}
		k.energy[i] = sh.energyJ
	}
	if done := len(c.completed); pending+done != c.nextID {
		return fmt.Errorf("%d pending + %d completed != %d submitted", pending, done, c.nextID)
	}
	return nil
}

// capSlots is the slot count of a memoTable holding steadyMemoCap
// entries: the least power of two from 16 at most three quarters full.
var capSlots = func() int {
	n := 16
	for 4*steadyMemoCap > 3*n {
		n *= 2
	}
	return n
}()

// DriveCheckingInvariants fires c's events in the drive loop's order,
// with the steal pass at every barrier time, as Run does, and checks
// the invariants (invariantChecker) after every event and every steal
// pass. After each pass it also checks that the pass's set of shards
// with queued work is exactly the shards whose queues are non-empty.
// Run then closes the run out, and the invariants are checked once
// more. It returns an error at the first check that fails, or when the
// run never co-located or queued a job. Call it instead of Run.
func DriveCheckingInvariants(c *ShardedScheduler) error {
	k := &invariantChecker{c: c, energy: make([]float64, len(c.shards))}
	if err := k.check(); err != nil {
		return fmt.Errorf("before the drive: %w", err)
	}
	for {
		t, ok := c.nextAt()
		if !ok {
			break
		}
		barrier := c.barrierAt(t)
		for c.err == nil && c.step(t) {
			if err := k.check(); err != nil {
				return fmt.Errorf("after an event at t=%g: %w", t, err)
			}
		}
		if c.err != nil {
			return c.err
		}
		if !barrier {
			continue
		}
		c.stealPass(t)
		for i, sh := range c.shards {
			if c.queued.has(i) != (sh.queue.Len() > 0) {
				return fmt.Errorf("after the steal pass at t=%g, shard %d has %d jobs queued but queued=%v",
					t, i, sh.queue.Len(), c.queued.has(i))
			}
		}
		if err := k.check(); err != nil {
			return fmt.Errorf("after the steal pass at t=%g: %w", t, err)
		}
	}
	if _, _, err := c.Run(); err != nil {
		return err
	}
	if err := k.check(); err != nil {
		return fmt.Errorf("after Run: %w", err)
	}
	if !k.paired || !k.queued {
		return fmt.Errorf("the stream never paired (%v) or never queued (%v): the checks are vacuous", k.paired, k.queued)
	}
	return nil
}

// TestInvariantsWS4 runs the invariant checker on the WS4 scenario on
// one shard, loaded so that jobs queue and pair, and checks that the
// checked drive completes the same jobs and bills the same energy, to
// the bit, as Run. TestInvariantsStealStream runs it on 16 stealing
// shards.
func TestInvariantsWS4(t *testing.T) {
	fixture(t)
	wl, err := Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *ShardedScheduler {
		c := oneShard(t, NewMemoSTP(fix.lkt, nil), NewProfiler(fix.model, sim.NewRNG(17)), 8)
		rng := sim.NewRNG(18)
		at := 0.0
		for i := 0; i < 400; i++ {
			j := wl.Jobs[i%len(wl.Jobs)]
			c.Submit(j.App, j.SizeGB, at)
			at += rng.Exp(20)
		}
		return c
	}
	c := build()
	if err := DriveCheckingInvariants(c); err != nil {
		t.Fatal(err)
	}
	ref := build()
	if _, _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(c.EnergyJ()) != math.Float64bits(ref.EnergyJ()) || !slices.Equal(c.Completed(), ref.Completed()) {
		t.Fatalf("the checked drive diverged from Run: energy %v vs %v", c.EnergyJ(), ref.EnergyJ())
	}
}
