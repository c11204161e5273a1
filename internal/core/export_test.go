package core

import (
	"testing"

	"ecost/internal/workloads"
)

// driveFullBarriers fires c's events in the drive loop's order but
// makes every event time a barrier — a steal pass after each time's
// events, with stealing on — the full cadence the barrier-eliding drive
// must reproduce export for export. Call it before Run, which then
// finds no event left and closes the run out.
func driveFullBarriers(c *ShardedScheduler) {
	finishSubmitted(c)
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

// finishSubmitted finishes every submitted record on the calling
// goroutine, as Run's helper does ahead of the drive. A test that steps
// the drive without Run calls it after submitting. Without ProfileMemo
// it first widens the window to hold every submission, so the finisher
// never waits for the drive; the records finished but not delivered
// keep their contents, in their new slots.
func finishSubmitted(c *ShardedScheduler) {
	if !c.cfg.ProfileMemo && len(c.win) < c.nextID {
		win := make([]profileRec, 2*c.nextID)
		for i := c.arrivals.delivered; i < int(c.fin.done.Load()); i++ {
			win[i%len(win)] = c.win[i%len(c.win)]
		}
		c.win = win
	}
	c.finishRecords(c.arrivals)
}

// recordOf returns the finished record of submission i, which must not
// be delivered yet: its ring entry's record under ProfileMemo, its
// window slot otherwise.
func recordOf(c *ShardedScheduler, i int) *profileRec {
	if !c.cfg.ProfileMemo {
		return &c.win[i%len(c.win)]
	}
	k := i - c.arrivals.base()
	return c.arrivals.chunks[k/arrChunk][k%arrChunk].rec
}

// submitRecord submits one job of app at sizeGB, at the plane's last
// arrival time, finishes it as Run's helper would, and returns its
// record.
func submitRecord(t testing.TB, c *ShardedScheduler, app workloads.ID, sizeGB float64) *profileRec {
	t.Helper()
	c.Submit(app, sizeGB, c.lastAt)
	if c.err != nil {
		t.Fatal(c.err)
	}
	finishSubmitted(c)
	return recordOf(c, c.nextID-1)
}

// RecordsCarved reports how many records the plane has carved for its
// jobs without ProfileMemo, once a Run has drained it: every Job is then
// back in a shard's pool and keeps the one record it carved (Job.own),
// so the count is the pooled Jobs holding one. That follows the most
// jobs the plane had in the system at once.
func RecordsCarved(c *ShardedScheduler) int {
	n := 0
	for _, sh := range c.shards {
		for _, j := range sh.jobPool {
			if j.own != nil {
				n++
			}
		}
	}
	return n
}

// onArrive has every shard of c call f with each job's id and the
// record arrive hands the job, at the job's arrival.
func onArrive(c *ShardedScheduler, f func(id int, rec *profileRec)) {
	for _, sh := range c.shards {
		sh.seen = f
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
	for _, j := range q.Jobs() {
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
	jobs := q.Jobs()
	if len(jobs) == 0 {
		return nil
	}
	head := jobs[0]
	out := []*Job{head}
	for _, j := range jobs[1:] {
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
