package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ecost/internal/flight"
	"ecost/internal/hdfs"
	"ecost/internal/sim"
	"ecost/internal/tracing"
)

// invariantChecker checks the control plane's state after every event
// (DESIGN.md §36):
//
//   - each shard's freeCnt / halfCnt equal its dispatch bitmaps'
//     popcounts;
//   - no node holds more than maxPerNode residents;
//   - each node's accPhase is nodePhase of its resident count;
//   - every resident's configuration is on the paper's grid
//     (Config.Validate), and a node's residents run at most Spec.Cores
//     mappers between them;
//   - the shards' node ranges tile the cluster in shard order: disjoint,
//     and covering the nodes the plane was built with;
//   - each shard's phase sums add up to its nodes' cached draws, within
//     1e-9 relative;
//   - no shard's energy ever decreases;
//   - each shard's energy is at least its nodes' idle power over its
//     own accrual time, len(nodes) × Spec.IdleWatts × lastUpdate,
//     within 1e-9 relative (bench/check.go's idle floor for a whole
//     run);
//   - with a tracer attached, the energy each shard's observer billed to
//     its node spans plus each node's unbilled draw since its last bill,
//     n.watts × (lastUpdate − since), equals the shard's bill within
//     1e-9 relative (DESIGN.md §39);
//   - the jobs pending on the shards plus the completed ones are the
//     jobs submitted;
//   - the completion log entries added since the last check keep the
//     log's (Finished, ID) order, and each has Submitted ≤ Started <
//     Finished ≤ the clock (bench/check.go's rule for a whole run);
//   - every shard caches its steady solves in the plane's one steady
//     memo, which holds at most steadyMemoCap entries in no more slots
//     than a table at the cap (DESIGN.md §37);
//   - with a flight recorder attached, its steal-flow matrix sums to
//     the plane's steal count.
//
// nodes is the plane's node count before the drive. logged is the
// completion log's length at the last check. spans and closedJ
// follow each traced shard's node spans: the span each node held at the
// last check, and the energy of the spans that closed since. A span
// that opens and closes between two checks lasts no time, so it carries
// no energy. paired and queued record whether any check saw a
// co-located node and a queued job, so a caller can tell that the run
// exercised them.
type invariantChecker struct {
	c              *ShardedScheduler
	nodes, logged  int
	energy         []float64
	spans          [][]*tracing.Span
	closedJ        []float64
	paired, queued bool
}

// newInvariantChecker returns a checker for c before its drive.
func newInvariantChecker(c *ShardedScheduler) *invariantChecker {
	k := &invariantChecker{c: c, energy: make([]float64, len(c.shards)),
		spans: make([][]*tracing.Span, len(c.shards)), closedJ: make([]float64, len(c.shards))}
	for i, sh := range c.shards {
		k.nodes += len(sh.nodes)
		k.spans[i] = make([]*tracing.Span, len(sh.nodes))
	}
	return k
}

// check returns an error naming the first invariant that fails.
func (k *invariantChecker) check() error {
	c := k.c
	if m := &c.steadyMemo; m.n > steadyMemoCap || m.slots() > capSlots {
		return fmt.Errorf("steady memo: %d entries in %d slots, cap %d entries in %d slots", m.n, m.slots(), steadyMemoCap, capSlots)
	}
	pending, next := 0, 0
	for i, sh := range c.shards {
		if sh.steadyMemo != &c.steadyMemo {
			return fmt.Errorf("shard %d: steady memo is not the plane's", i)
		}
		if sh.base != next {
			return fmt.Errorf("shard %d: nodes start at %d, shard %d's end at %d", i, sh.base, i-1, next)
		}
		next += len(sh.nodes)
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
		var watts, billed float64
		o := sh.obs
		traced := o != nil && o.tracer != nil
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
			cores := 0
			for _, r := range n.residents {
				if err := r.cfg.Validate(sh.Model.Spec.Cores); err != nil {
					return fmt.Errorf("shard %d node %d: job %d: %w", i, n.id, r.job.ID, err)
				}
				cores += r.cfg.Mappers
			}
			if cores > sh.Model.Spec.Cores {
				return fmt.Errorf("shard %d node %d: residents run %d mappers on %d cores", i, n.id, cores, sh.Model.Spec.Cores)
			}
			watts += n.watts
			if traced {
				sp := o.nodeSpans[n.id]
				if last := k.spans[i][n.id]; last != sp {
					k.closedJ[i] += last.Snapshot().EnergyJ // a nil span's is 0
					k.spans[i][n.id] = sp
				}
				billed += sp.Snapshot().EnergyJ + n.watts*(sh.lastUpdate-o.since[n.id])
			}
		}
		sums := sh.phaseWatts[0] + sh.phaseWatts[1] + sh.phaseWatts[2]
		if math.Abs(sums-watts) > 1e-9*math.Abs(watts) {
			return fmt.Errorf("shard %d: phase sums %v, node draws %v", i, sums, watts)
		}
		if sh.energyJ < k.energy[i] {
			return fmt.Errorf("shard %d: energy fell from %v to %v", i, k.energy[i], sh.energyJ)
		}
		k.energy[i] = sh.energyJ
		if floor := float64(len(sh.nodes)) * sh.Model.Spec.IdleWatts * sh.lastUpdate; sh.energyJ < floor*(1-1e-9) {
			return fmt.Errorf("shard %d: energy %v J below its idle floor %v J at %v s", i, sh.energyJ, floor, sh.lastUpdate)
		}
		if traced {
			billed += k.closedJ[i]
			if math.Abs(billed-sh.energyJ) > 1e-9*sh.energyJ {
				return fmt.Errorf("shard %d: node spans billed %v J with the unbilled tail, the shard %v J", i, billed, sh.energyJ)
			}
		}
	}
	if next != k.nodes {
		return fmt.Errorf("the shards' nodes end at %d, the plane has %d", next, k.nodes)
	}
	if done := len(c.completed); pending+done != c.nextID {
		return fmt.Errorf("%d pending + %d completed != %d submitted", pending, done, c.nextID)
	}
	if c.flight != nil {
		var flow int64
		for _, row := range c.flight.StealFlow() {
			for _, n := range row {
				flow += n
			}
		}
		if flow != int64(c.steals) {
			return fmt.Errorf("steal flow: the recorder's matrix sums to %d steals, the plane counted %d", flow, c.steals)
		}
	}
	return k.checkLog()
}

// checkLog checks the completion log entries added since the last
// check. An entry lands at the end or moves back only past entries
// finished at the same instant, so every entry that moved lies in the
// run of equal finish times reaching the first new slot; the check
// starts at that run.
func (k *invariantChecker) checkLog() error {
	l, now := k.c.completed, k.c.ev.now
	lo := k.logged
	for lo > 0 && lo < len(l) && l[lo-1].Finished == l[lo].Finished {
		lo--
	}
	for i := lo; i < len(l); i++ {
		d := &l[i]
		if i > 0 && !l[i-1].precedes(d) {
			return fmt.Errorf("completion log: job %d @%v follows job %d @%v, out of (Finished, ID) order",
				d.ID, d.Finished, l[i-1].ID, l[i-1].Finished)
		}
		if !(d.Submitted <= d.Started && d.Started < d.Finished && d.Finished <= now) {
			return fmt.Errorf("completion log: job %d submitted %v, started %v, finished %v at clock %v",
				d.ID, d.Submitted, d.Started, d.Finished, now)
		}
	}
	k.logged = len(l)
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
func DriveCheckingInvariants(c *ShardedScheduler) error { return driveChecking(c, nil) }

// driveChecking is DriveCheckingInvariants with doctor, when non-nil,
// called after every event, before its check: a test breaks one
// invariant through it and expects the check to catch it.
func driveChecking(c *ShardedScheduler, doctor func()) error {
	finishSubmitted(c)
	k := newInvariantChecker(c)
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
			if doctor != nil {
				doctor()
			}
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
// one traced shard, loaded so that jobs queue and pair, and checks that
// the checked drive completes the same jobs and bills the same energy,
// to the bit, as an untraced Run. The stream runs twice: with one job
// per arrival time, and with WS4's jobs submitted four at a time, so
// that placements share an instant and every one after the first bills
// its node at a zero-length accrual. TestInvariantsStealStream runs the
// checker on 16 stealing shards.
func TestInvariantsWS4(t *testing.T) {
	fixture(t)
	wl, err := Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 4} {
		build := func(tr *tracing.Tracer) *ShardedScheduler {
			c := oneShard(t, NewMemoSTP(fix.lkt, nil), NewProfiler(fix.model, sim.NewRNG(17)), 8)
			c.SetTracer(tr)
			rng := sim.NewRNG(18)
			at := 0.0
			for i := 0; i < 400; i++ {
				j := wl.Jobs[i%len(wl.Jobs)]
				c.Submit(j.App, j.SizeGB, at)
				if (i+1)%batch == 0 {
					at += rng.Exp(20 * float64(batch))
				}
			}
			return c
		}
		c := build(tracing.New())
		if err := DriveCheckingInvariants(c); err != nil {
			t.Fatalf("batches of %d: %v", batch, err)
		}
		ref := build(nil)
		if _, _, err := ref.Run(); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(c.EnergyJ()) != math.Float64bits(ref.EnergyJ()) || !slices.Equal(c.Completed(), ref.Completed()) {
			t.Fatalf("batches of %d: the checked drive diverged from Run: energy %v vs %v", batch, c.EnergyJ(), ref.EnergyJ())
		}
	}
}

// TestInvariantCheckerCatchesDoctoredRuns breaks each invariant the
// checker names, once, in the state of a traced two-shard WS4 run with
// stealing on and a flight recorder attached, and checks that the
// drive stops at the check that follows with that invariant's error.
func TestInvariantCheckerCatchesDoctoredRuns(t *testing.T) {
	fixture(t)
	wl, err := Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	// occupied returns the first node holding at least min residents.
	occupied := func(c *ShardedScheduler, min int) *onlineNode {
		for _, sh := range c.shards {
			for _, n := range sh.nodes {
				if len(n.residents) >= min {
					return n
				}
			}
		}
		return nil
	}
	cases := []struct {
		name, want string
		doctor     func(c *ShardedScheduler) bool // reports whether it broke the state
	}{
		{"free count", "freeCnt", func(c *ShardedScheduler) bool {
			c.shards[0].freeCnt++
			return true
		}},
		{"resident cap", "residents, cap", func(c *ShardedScheduler) bool {
			n := occupied(c, 2)
			if n != nil {
				n.residents = append(n.residents, n.residents[0])
			}
			return n != nil
		}},
		{"occupancy phase", "accPhase", func(c *ShardedScheduler) bool {
			n := occupied(c, 1)
			if n != nil {
				n.accPhase = 0
			}
			return n != nil
		}},
		{"off-grid configuration", "block size not in studied set", func(c *ShardedScheduler) bool {
			n := occupied(c, 1)
			if n != nil {
				n.residents[0].cfg.Block = hdfs.BlockMB(100)
			}
			return n != nil
		}},
		{"mappers over cores", "mappers on 8 cores", func(c *ShardedScheduler) bool {
			n := occupied(c, 2)
			if n != nil {
				n.residents[0].cfg.Mappers, n.residents[1].cfg.Mappers = 7, 7
			}
			return n != nil
		}},
		{"overlapping shards", "nodes start at", func(c *ShardedScheduler) bool {
			c.shards[1].base--
			return true
		}},
		{"phase sums", "phase sums", func(c *ShardedScheduler) bool {
			c.shards[0].phaseWatts[1]++
			return true
		}},
		{"falling energy", "energy fell", func(c *ShardedScheduler) bool {
			c.shards[0].energyJ = -1
			return true
		}},
		{"unbilled interval", "node spans billed", func(c *ShardedScheduler) bool {
			// Move a node's last bill up to the clock without billing it.
			for _, sh := range c.shards {
				for _, n := range sh.nodes {
					if sh.obs.since[n.id] < sh.lastUpdate {
						sh.obs.since[n.id] = sh.lastUpdate
						return true
					}
				}
			}
			return false
		}},
		// Move a shard's accrual time a second past what its energy
		// covers at idle draw, without billing it.
		{"idle floor", "below its idle floor", func(c *ShardedScheduler) bool {
			sh := c.shards[0]
			sh.lastUpdate += sh.energyJ/(float64(len(sh.nodes))*sh.Model.Spec.IdleWatts) + 1
			return true
		}},
		{"lost job", "submitted", func(c *ShardedScheduler) bool {
			c.shards[0].pending++
			return true
		}},
		{"private steady memo", "steady memo is not the plane's", func(c *ShardedScheduler) bool {
			c.shards[0].steadyMemo = new(memoTable[steadyKey, steadyVal])
			return true
		}},
		// A completion this event logged finishes at the clock, and the
		// entry before it earlier: swapping the two breaks the order.
		{"completion order", "out of (Finished, ID) order", func(c *ShardedScheduler) bool {
			l := c.completed
			n := len(l)
			if n < 2 || l[n-1].Finished != c.ev.now || l[n-2].Finished >= l[n-1].Finished {
				return false
			}
			l[n-2], l[n-1] = l[n-1], l[n-2]
			return true
		}},
		{"completion after the clock", "at clock", func(c *ShardedScheduler) bool {
			l := c.completed
			n := len(l)
			if n == 0 || l[n-1].Finished != c.ev.now {
				return false
			}
			l[n-1].Finished++
			return true
		}},
		// A steal the recorder saw and the plane never took.
		{"steal flow", "steal flow", func(c *ShardedScheduler) bool {
			c.flight.Steal(0, 1)
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(17)),
				func() STP { return NewMemoSTP(fix.lkt, nil) }, 8, ShardedConfig{Shards: 2, Steal: true})
			if err != nil {
				t.Fatal(err)
			}
			c.SetFlight(flight.New())
			c.SetTracer(tracing.New())
			rng := sim.NewRNG(18)
			at := 0.0
			for i := 0; i < 100; i++ {
				j := wl.Jobs[i%len(wl.Jobs)]
				c.Submit(j.App, j.SizeGB, at)
				at += rng.Exp(20)
			}
			broke := false
			err = driveChecking(c, func() {
				if !broke {
					broke = tc.doctor(c)
				}
			})
			if !broke {
				t.Fatal("the run never reached a state to doctor")
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("the checker returned %v; want an error naming %q", err, tc.want)
			}
		})
	}
}
