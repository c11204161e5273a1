package core

import "fmt"

// DriveCheckingStealSet fires c's events in the drive loop's order and
// takes a steal pass at every barrier time, as Run does with stealing
// on. After each pass it checks that the pass's
// set of shards with queued work is exactly the shards whose queues
// are non-empty, and returns an error at the first pass where it is
// not. Call it instead of Run.
func DriveCheckingStealSet(c *ShardedScheduler) error {
	for {
		t, ok := c.nextAt()
		if !ok {
			return nil
		}
		barrier := c.barrierAt(t)
		for c.step(t) {
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
	}
}

// driveFullBarriers fires c's events in the drive loop's order but
// makes every event time a barrier — a steal pass after each time's
// events, with stealing on — the full cadence the barrier-eliding drive
// must reproduce export for export. Call it before Run, which then
// finds no event left and closes the run out.
func driveFullBarriers(c *ShardedScheduler) {
	for {
		t, ok := c.nextAt()
		if !ok {
			return
		}
		for c.step(t) {
		}
		c.stats.Barriers++
		if c.cfg.Steal {
			c.stealPass(t)
		}
	}
}

// SteadyMemoEntries sums the entries every shard's steady memo holds.
func SteadyMemoEntries(c *ShardedScheduler) int {
	n := 0
	for _, sh := range c.shards {
		n += sh.steadyMemo.n
	}
	return n
}
