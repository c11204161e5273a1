package core

import (
	"testing"

	"ecost/internal/workloads"
)

// oneShard builds a single-shard control plane over `nodes` nodes that
// tunes with tuner and profiles with prof.
func oneShard(tb testing.TB, tuner STP, prof *Profiler, nodes int) *ShardedScheduler {
	tb.Helper()
	fixture(tb)
	c, err := NewShardedScheduler(fix.model, fix.db, prof, func() STP { return tuner }, nodes, ShardedConfig{Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

func newSched(t *testing.T, nodes int) *ShardedScheduler {
	t.Helper()
	fixture(t)
	return oneShard(t, fix.rep, fix.profiler, nodes)
}

func TestOnlineSchedulerValidation(t *testing.T) {
	fixture(t)
	tuner := func() STP { return fix.rep }
	if _, err := NewShardedScheduler(nil, fix.db, fix.profiler, tuner, 1, ShardedConfig{Shards: 1}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewShardedScheduler(fix.model, fix.db, fix.profiler, tuner, 0, ShardedConfig{Shards: 1}); err == nil {
		t.Error("zero nodes accepted")
	}
}

func TestOnlineSchedulerCompletesAll(t *testing.T) {
	s := newSched(t, 2)
	apps := []string{"nb", "pr", "km", "svm", "cf", "hmm"}
	for i, name := range apps {
		s.Submit(workloads.MustLookup(name), 5, float64(i)*50)
	}
	makespan, energy, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	done := s.Completed()
	if len(done) != len(apps) {
		t.Fatalf("completed %d of %d jobs", len(done), len(apps))
	}
	if makespan <= 0 || energy <= 0 {
		t.Fatalf("makespan %v energy %v", makespan, energy)
	}
	for _, c := range done {
		if c.Finished <= c.Started || c.Started < c.Submitted {
			t.Errorf("job %d has inconsistent times: %+v", c.ID, c)
		}
		if err := c.Cfg.Validate(8); err != nil {
			t.Errorf("job %d got invalid config: %v", c.ID, err)
		}
	}
	if s.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", s.QueueLen())
	}
}

func TestOnlineSchedulerCoLocates(t *testing.T) {
	s := newSched(t, 1)
	// Two jobs arriving together on one node must overlap in time.
	s.Submit(workloads.MustLookup("st"), 5, 0)
	s.Submit(workloads.MustLookup("pr"), 5, 0)
	if _, _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	done := s.Completed()
	if len(done) != 2 {
		t.Fatalf("completed %d jobs", len(done))
	}
	first, second := done[0], done[1]
	if second.Started >= first.Finished {
		t.Fatalf("jobs ran serially: first finished %v, second started %v",
			first.Finished, second.Started)
	}
	if first.Node != second.Node {
		t.Fatalf("jobs on different nodes of a 1-node cluster")
	}
}

func TestOnlineSchedulerAtMostTwoPerNode(t *testing.T) {
	// The model's Steady() validates core limits at every event, so an
	// overcommit would surface as a Run error; here we check the paper's
	// co-location cap of two applications per node.
	s := newSched(t, 1)
	for _, name := range []string{"nb", "cf", "pr", "km", "svm"} {
		s.Submit(workloads.MustLookup(name), 1, 0)
	}
	if _, _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	done := s.Completed()
	if len(done) != 5 {
		t.Fatalf("completed %d of 5", len(done))
	}
	for _, a := range done {
		overlapping := 1
		for _, b := range done {
			if b.ID == a.ID {
				continue
			}
			if b.Started < a.Started+1e-9 && b.Finished > a.Started+1e-9 {
				overlapping++
			}
		}
		if overlapping > 2 {
			t.Fatalf("%d jobs co-located at job %d's start; the cap is 2", overlapping, a.ID)
		}
	}
}

func TestOnlineSchedulerFasterWithMoreNodes(t *testing.T) {
	run := func(nodes int) float64 {
		s := newSched(t, nodes)
		for _, name := range []string{"nb", "pr", "km", "svm", "cf", "hmm", "nb", "pr"} {
			s.Submit(workloads.MustLookup(name), 5, 0)
		}
		makespan, _, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return makespan
	}
	one, four := run(1), run(4)
	if four >= one {
		t.Fatalf("4 nodes (%vs) not faster than 1 node (%vs)", four, one)
	}
}

func TestOnlineSchedulerEnergyMatchesIdleFloor(t *testing.T) {
	s := newSched(t, 2)
	s.Submit(workloads.MustLookup("nb"), 1, 0)
	makespan, energy, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	idleFloor := 2 * fix.model.IdlePower() * makespan
	if energy < idleFloor {
		t.Fatalf("energy %v below the idle floor %v", energy, idleFloor)
	}
}

func TestQueueFIFO(t *testing.T) {
	q := NewWaitQueue()
	if q.PopHead() != nil || q.Head() != nil {
		t.Fatal("empty queue returned a job")
	}
	for i := 0; i < 5; i++ {
		q.Push(&Job{ID: i, EstTime: 10})
	}
	q.Push(nil) // ignored
	if q.Len() != 5 {
		t.Fatalf("len = %d", q.Len())
	}
	for i := 0; i < 5; i++ {
		j := q.PopHead()
		if j.ID != i {
			t.Fatalf("pop %d returned job %d", i, j.ID)
		}
	}
}

func TestQueueLeapForward(t *testing.T) {
	q := NewWaitQueue()
	q.Push(&Job{ID: 0, EstTime: 10})
	q.Push(&Job{ID: 1, EstTime: 9})  // too large to leap
	q.Push(&Job{ID: 2, EstTime: 4})  // small: can leap
	q.Push(&Job{ID: 3, EstTime: 11}) // too large
	cands := q.Candidates()
	if len(cands) != 2 || cands[0].ID != 0 || cands[1].ID != 2 {
		t.Fatalf("candidates = %v, want head plus small job 2", ids(cands))
	}
}

func TestQueueTake(t *testing.T) {
	q := NewWaitQueue()
	for i := 0; i < 3; i++ {
		q.Push(&Job{ID: i})
	}
	j, err := q.Take(1)
	if err != nil || j.ID != 1 {
		t.Fatalf("Take(1) = %v, %v", j, err)
	}
	if _, err := q.Take(1); err == nil {
		t.Fatal("double Take succeeded")
	}
	if q.Len() != 2 || q.Head().ID != 0 {
		t.Fatal("queue corrupted by Take")
	}
}

func TestSelectPartnerPriority(t *testing.T) {
	q := NewWaitQueue()
	q.Push(&Job{ID: 0, Class: workloads.MemBound, EstTime: 10})
	q.Push(&Job{ID: 1, Class: workloads.IOBound, EstTime: 4}) // small leaper, top class
	q.Push(&Job{ID: 2, Class: workloads.Compute, EstTime: 3})
	got := q.SelectPartner(workloads.Compute, DefaultPriority())
	if got == nil || got.ID != 1 {
		t.Fatalf("SelectPartner = %v, want the I-class leaper (job 1)", got)
	}
	// A partner slot never delays the head, so even a large I job deeper
	// in the queue may be chosen as the partner (the head keeps its
	// reservation for the next fresh slot).
	q2 := NewWaitQueue()
	q2.Push(&Job{ID: 0, Class: workloads.MemBound, EstTime: 10})
	q2.Push(&Job{ID: 1, Class: workloads.IOBound, EstTime: 9})
	got = q2.SelectPartner(workloads.Compute, DefaultPriority())
	if got == nil || got.ID != 1 {
		t.Fatalf("SelectPartner = %v, want the I-class job", got)
	}
	if q2.SelectPartner(workloads.Compute, nil) == nil {
		t.Fatal("nil priority should still return the head")
	}
	empty := NewWaitQueue()
	if empty.SelectPartner(workloads.Compute, DefaultPriority()) != nil {
		t.Fatal("empty queue returned a partner")
	}
}

func ids(js []*Job) []int {
	out := make([]int, len(js))
	for i, j := range js {
		out[i] = j.ID
	}
	return out
}

func TestSelectPartnerSized(t *testing.T) {
	q := NewWaitQueue()
	q.Push(&Job{ID: 0, Class: workloads.IOBound, EstTime: 10})
	q.Push(&Job{ID: 1, Class: workloads.IOBound, EstTime: 4}) // leaper, same class, better size match
	got := q.SelectPartnerSized(workloads.IOBound, 4, DefaultPriority())
	if got == nil || got.ID != 1 {
		t.Fatalf("SelectPartnerSized = %v, want the duration-matched job 1", got)
	}
	// With a running estimate near the head's, the head wins.
	got = q.SelectPartnerSized(workloads.IOBound, 10, DefaultPriority())
	if got == nil || got.ID != 0 {
		t.Fatalf("SelectPartnerSized = %v, want head (duration 10 matches)", got)
	}
	// Class priority still dominates size matching.
	q2 := NewWaitQueue()
	q2.Push(&Job{ID: 0, Class: workloads.MemBound, EstTime: 10})
	q2.Push(&Job{ID: 1, Class: workloads.IOBound, EstTime: 1}) // tiny but top class
	got = q2.SelectPartnerSized(workloads.Compute, 10, DefaultPriority())
	if got == nil || got.ID != 1 {
		t.Fatalf("SelectPartnerSized = %v, want the I-class job despite the size gap", got)
	}
	if NewWaitQueue().SelectPartnerSized(workloads.Compute, 1, DefaultPriority()) != nil {
		t.Fatal("empty queue returned a partner")
	}
}

func TestSelectPartnerSizedUniformEquivalence(t *testing.T) {
	// With uniform estimates the extension must reduce to SelectPartner.
	mk := func() *WaitQueue {
		q := NewWaitQueue()
		q.Push(&Job{ID: 0, Class: workloads.MemBound, EstTime: 5})
		q.Push(&Job{ID: 1, Class: workloads.Hybrid, EstTime: 2})
		q.Push(&Job{ID: 2, Class: workloads.IOBound, EstTime: 2})
		return q
	}
	a := mk().SelectPartner(workloads.Compute, DefaultPriority())
	b := mk().SelectPartnerSized(workloads.Compute, 5, DefaultPriority())
	if a.ID != b.ID {
		t.Fatalf("divergence on uniform sizes: %d vs %d", a.ID, b.ID)
	}
}
