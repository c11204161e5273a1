package core

import "ecost/internal/workloads"

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

// SteadyMemoEntries reports the entries the control plane's one steady
// memo holds.
func SteadyMemoEntries(c *ShardedScheduler) int { return c.steadyMemo.n }

// SteadyMemoCounts returns each shard's steady-memo hits and misses.
func SteadyMemoCounts(c *ShardedScheduler) (hits, misses []int64) {
	for _, sh := range c.shards {
		hits, misses = append(hits, sh.steadyHits), append(misses, sh.steadyMisses)
	}
	return hits, misses
}

// TuneTableCounts returns m's tune-table probes and inserts.
func TuneTableCounts(m *MemoSTP) (probes, inserts int64) { return m.probes, m.inserts }

// LookupBest is the LkT lookup (lookupConfig) of two observations from
// outside the control plane, with the matched entry's whole outcome.
func (db *Database) LookupBest(a, b Observation) (PairBest, error) {
	i, swapped, err := db.lookup(&profileRec{obs: a}, &profileRec{obs: b})
	if err != nil {
		return PairBest{}, err
	}
	return unswap(db.Entries[i].Best, swapped), nil
}

// CachedPairs reports how many COLAO searches have been memoized.
func (o *Oracle) CachedPairs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pair)
}

// QueueLen sums the shard wait-queue lengths.
func (c *ShardedScheduler) QueueLen() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.queue.Len()
	}
	return n
}

// DepthByClass tallies the queued jobs per class (for depth gauges).
func (q *WaitQueue) DepthByClass() map[workloads.Class]int {
	out := map[workloads.Class]int{}
	for _, j := range q.jobs {
		out[j.Class]++
	}
	return out
}

// leapFraction caps how large a leaping job may be relative to the head
// job's estimated runtime. A job at most this fraction of the head's
// size is "small": co-locating it alongside the current resident leaves
// the head's reserved slot unaffected.
const leapFraction = 0.5

// Candidates returns the jobs eligible to fill a fresh node slot: the
// head (always, by reservation) plus any job small enough to leap
// forward without delaying the head.
func (q *WaitQueue) Candidates() []*Job {
	if len(q.jobs) == 0 {
		return nil
	}
	head := q.jobs[0]
	out := []*Job{head}
	for _, j := range q.jobs[1:] {
		if head.EstTime > 0 && j.EstTime <= leapFraction*head.EstTime {
			out = append(out, j)
		}
	}
	return out
}

// DefaultPriority is the static partner-class order the paper reads off
// Figure 5 when no database-derived order is available: I/O-bound
// applications pair best with anything; memory-bound last.
func DefaultPriority() []workloads.Class {
	return []workloads.Class{workloads.IOBound, workloads.Hybrid, workloads.Compute, workloads.MemBound}
}
