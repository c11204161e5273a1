package core

import (
	"testing"

	"ecost/internal/metrics"
	"ecost/internal/workloads"
)

// qjob builds a minimal queued job for queue-only tests (no profiling).
func qjob(id int, class workloads.Class, est float64) *Job {
	return &Job{ID: id, Class: class, EstTime: est}
}

func TestQueueCandidatesEdgeCases(t *testing.T) {
	C, H, I, M := workloads.Compute, workloads.Hybrid, workloads.IOBound, workloads.MemBound
	cases := []struct {
		name string
		jobs []*Job
		want []int // expected candidate IDs in order
	}{
		{
			name: "empty queue",
			jobs: nil,
			want: nil,
		},
		{
			name: "single element is only the head",
			jobs: []*Job{qjob(0, C, 100)},
			want: []int{0},
		},
		{
			name: "small job leaps past reserved head",
			jobs: []*Job{qjob(0, C, 100), qjob(1, H, 80), qjob(2, I, 50)},
			want: []int{0, 2}, // 80 > 0.5*100 stays; 50 <= 0.5*100 leaps
		},
		{
			name: "leap bound is inclusive",
			jobs: []*Job{qjob(0, C, 100), qjob(1, I, 50.0000001)},
			want: []int{0},
		},
		{
			name: "zero-estimate head blocks all leaps",
			jobs: []*Job{qjob(0, M, 0), qjob(1, I, 0), qjob(2, C, 0)},
			want: []int{0}, // EstTime 0: the smallness test can't certify anyone
		},
		{
			name: "all tiny jobs leap",
			jobs: []*Job{qjob(0, C, 100), qjob(1, I, 1), qjob(2, H, 2), qjob(3, M, 3)},
			want: []int{0, 1, 2, 3},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := NewWaitQueue()
			for _, j := range tc.jobs {
				q.Push(j)
			}
			got := q.Candidates()
			if len(got) != len(tc.want) {
				t.Fatalf("candidates = %d jobs, want %d", len(got), len(tc.want))
			}
			for i, j := range got {
				if j.ID != tc.want[i] {
					t.Errorf("candidate[%d] = job %d, want %d", i, j.ID, tc.want[i])
				}
			}
		})
	}
}

func TestQueueReservationHandoffAfterTake(t *testing.T) {
	// When the reserved head itself is taken (as a partner), the
	// reservation passes to the next job in FIFO order.
	q := NewWaitQueue()
	q.Push(qjob(0, workloads.Compute, 100))
	q.Push(qjob(1, workloads.Hybrid, 100))
	q.Push(qjob(2, workloads.IOBound, 100))
	if _, err := q.Take(0); err != nil {
		t.Fatal(err)
	}
	if h := q.Head(); h == nil || h.ID != 1 {
		t.Fatalf("head after taking old head = %v, want job 1", h)
	}
	// Taking from the middle must not disturb the head's reservation.
	if _, err := q.Take(2); err != nil {
		t.Fatal(err)
	}
	if h := q.Head(); h == nil || h.ID != 1 {
		t.Fatalf("head after taking tail = %v, want job 1", h)
	}
	if _, err := q.Take(42); err == nil {
		t.Error("taking an absent job must error")
	}
	if q.Len() != 1 {
		t.Fatalf("queue length = %d, want 1", q.Len())
	}
}

func TestQueueAllSameClassKeepsFIFO(t *testing.T) {
	// With every queued job in one class, the decision tree has no class
	// signal and must fall back to strict queue order.
	q := NewWaitQueue()
	for i := 0; i < 5; i++ {
		q.Push(qjob(i, workloads.Compute, 10))
	}
	for want := 0; want < 5; want++ {
		j := q.SelectPartner(workloads.Hybrid, DefaultPriority())
		if j == nil || j.ID != want {
			t.Fatalf("same-class partner pick = %v, want job %d", j, want)
		}
		if _, err := q.Take(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	if q.SelectPartner(workloads.Hybrid, DefaultPriority()) != nil {
		t.Error("empty queue must yield no partner")
	}
}

func TestQueuePopHeadAndNilPush(t *testing.T) {
	q := NewWaitQueue()
	if q.PopHead() != nil {
		t.Error("PopHead on empty queue must return nil")
	}
	q.Push(nil) // ignored
	if q.Len() != 0 {
		t.Error("nil push must not enqueue")
	}
	q.Push(qjob(7, workloads.MemBound, 1))
	if j := q.PopHead(); j == nil || j.ID != 7 {
		t.Fatalf("PopHead = %v, want job 7", j)
	}
	if q.Len() != 0 {
		t.Error("queue not empty after PopHead")
	}
}

func TestQueueMetricsCounts(t *testing.T) {
	reg := metrics.NewRegistry()
	q := NewWaitQueue()
	q.Metrics = reg
	q.Push(qjob(0, workloads.Compute, 1))
	q.Push(qjob(1, workloads.Compute, 1))
	q.Push(qjob(2, workloads.IOBound, 1))
	q.PopHead()
	q.Push(qjob(3, workloads.IOBound, 1))
	if got := reg.Counter("queue.push.C").Value(); got != 2 {
		t.Errorf("queue.push.C = %d, want 2", got)
	}
	if got := reg.Counter("queue.push.I").Value(); got != 2 {
		t.Errorf("queue.push.I = %d, want 2", got)
	}
	if hw := reg.Gauge("queue.depth_highwater").Value(); hw != 3 {
		t.Errorf("depth high-water = %v, want 3", hw)
	}
	byClass := q.DepthByClass()
	if byClass[workloads.Compute] != 1 || byClass[workloads.IOBound] != 2 {
		t.Errorf("DepthByClass = %v", byClass)
	}
}

// selectPartnerLinear is the legacy whole-queue scan SelectPartner
// replaced — kept verbatim as the oracle FuzzWaitQueueIndex checks the
// per-class index against.
func (q *WaitQueue) selectPartnerLinear(priority []workloads.Class) *Job {
	cands := q.PartnerCandidates()
	if len(cands) == 0 {
		return nil
	}
	rank := map[workloads.Class]int{}
	for i, c := range priority {
		rank[c] = i
	}
	best := cands[0]
	bestRank, ok := rank[best.Class]
	if !ok {
		bestRank = len(priority)
	}
	for _, j := range cands[1:] {
		r, ok := rank[j.Class]
		if !ok {
			r = len(priority)
		}
		if r < bestRank {
			best, bestRank = j, r
		}
	}
	return best
}

// TestWaitQueueReuseZeroAlloc checks that a warm queue reuses its
// arrays: once the jobs window and the class deques have grown to the
// depths a stream reaches, pushes slide each window back to the start
// of its array instead of reallocating. Two streams alternate push and
// pop: one that drains after every pop, and one held at a fixed depth
// k that never drains. Both allocate nothing per operation, and keep
// the queue's FIFO order.
func TestWaitQueueReuseZeroAlloc(t *testing.T) {
	classes := workloads.Classes()
	for _, k := range []int{0, 1, 3, 17} {
		q := NewWaitQueue()
		for i := 0; i < k; i++ {
			q.Push(qjob(i, classes[i%len(classes)], 1))
		}
		// spare is the one job outside the queue: each step pushes it
		// and pops the head, which becomes the next step's spare.
		spare := qjob(k, classes[k%len(classes)], 1)
		step := func() {
			q.Push(spare)
			spare = q.PopHead()
		}
		for i := 0; i < 8*(k+1)+64; i++ {
			step()
		}
		// AllocsPerRun rounds its per-run average down, so one measured
		// run makes every step: one allocation in any of them fails it.
		const steps = 1 << 14
		if allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < steps; i++ {
				step()
			}
		}); allocs != 0 {
			t.Errorf("depth %d: %v allocations per %d pushes and pops, want 0", k, allocs, steps)
		}
		if q.Len() != k {
			t.Fatalf("depth %d: queue holds %d jobs", k, q.Len())
		}
		// The k+1 jobs cycle through the queue in id order.
		for i, j := range q.Jobs() {
			if want := (spare.ID + 1 + i) % (k + 1); j.ID != want {
				t.Fatalf("depth %d: position %d holds job %d, want %d", k, i, j.ID, want)
			}
		}
	}
}
