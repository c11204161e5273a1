package core

import (
	"fmt"
	"slices"

	"ecost/internal/metrics"
	"ecost/internal/workloads"
)

// Job is one application instance flowing through the ECoST scheduler.
// Obs points at the job's observation: in the control plane, the one
// its router record holds, so a job copies no profile (DESIGN.md §35).
type Job struct {
	ID    int
	Obs   *Observation
	Class workloads.Class // assigned by the incoming-application analyzer

	// EstTime is the scheduler's rough runtime estimate (from the
	// profiling run). SelectPartnerSized prefers the partner whose
	// estimate is closest to the running job's, and the leap-forward
	// smallness test compares it with the head's.
	EstTime float64

	Arrived float64 // arrival time (seconds)

	// seq is the job's arrival sequence in the queue holding it,
	// stamped by Push: SelectPartner breaks class-rank ties by it.
	seq uint64

	// rec is the router profile the job was submitted with (nil for a
	// job built outside the control plane); it travels with a stolen
	// job, so the thief keys its steady solves in the plane's one
	// steady memo by the same spec id.
	rec *profileRec
}

// WaitQueue is the paper's FIFO wait queue with a reservation at the
// head: jobs enter at the tail; the head job holds a reservation so it
// cannot starve, and a small job deeper in the queue may leap forward
// only if taking it does not delay the head (§5).
type WaitQueue struct {
	jobs []*Job

	// Metrics, when non-nil, receives queue telemetry: per-class push
	// counts and the depth high-water mark. The owning scheduler samples
	// depth over sim-time separately (the queue has no clock).
	Metrics *metrics.Registry

	// byClass sub-indexes the FIFO per class, one deque per slot of
	// workloads.Classes() (each in queue order), and nextSeq numbers
	// pushes (Job.seq), so SelectPartner inspects at most four fronts
	// instead of scanning the whole queue. The jobs slice stays the
	// source of truth; the index mirrors it exactly (fuzz-tested
	// against the linear scan).
	byClass [numClasses][]*Job
	nextSeq uint64
}

// NewWaitQueue returns an empty queue.
func NewWaitQueue() *WaitQueue { return &WaitQueue{} }

// Push appends a job at the tail.
func (q *WaitQueue) Push(j *Job) {
	if j == nil {
		return
	}
	q.jobs = append(q.jobs, j)
	q.index(j)
	if q.Metrics != nil {
		q.Metrics.Counter("queue.push." + j.Class.String()).Inc()
		if hw := q.Metrics.Gauge("queue.depth_highwater"); float64(len(q.jobs)) > hw.Value() {
			hw.Set(float64(len(q.jobs)))
		}
	}
}

// Len reports the queue length.
func (q *WaitQueue) Len() int { return len(q.jobs) }

// Head returns the reserved head job without removing it.
func (q *WaitQueue) Head() *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	return q.jobs[0]
}

// Jobs returns the queued jobs in order (shared slice: do not mutate).
func (q *WaitQueue) Jobs() []*Job { return q.jobs }

// PopHead removes and returns the head job.
func (q *WaitQueue) PopHead() *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	j := q.jobs[0]
	q.jobs[0] = nil // the dead prefix must not pin popped jobs
	q.jobs = q.jobs[1:]
	q.unindex(j)
	return j
}

// numClasses is the number of behaviour classes, the slots of
// WaitQueue.byClass; a Class is its own slot index.
const numClasses = int(workloads.MemBound) + 1

// index registers a freshly pushed job in the per-class sub-index.
func (q *WaitQueue) index(j *Job) {
	q.byClass[j.Class] = append(q.byClass[j.Class], j)
	j.seq = q.nextSeq
	q.nextSeq++
}

// unindex drops a removed job from the per-class sub-index. The
// scheduler removes fronts (PopHead, or Take of the job SelectPartner
// just returned), so the common case splices at position 0. A deque
// that empties keeps its slot's capacity for the next push.
func (q *WaitQueue) unindex(j *Job) {
	d := q.byClass[j.Class]
	switch i := slices.Index(d, j); {
	case i < 0:
		return
	case len(d) == 1:
		d[0] = nil
		d = d[:0]
	case i == 0:
		d[0] = nil
		d = d[1:]
	default:
		d = slices.Delete(d, i, i+1)
	}
	q.byClass[j.Class] = d
}

// PartnerCandidates returns the jobs eligible to be co-located NEXT TO an
// already-running application. Unlike a fresh node slot, a partner slot
// does not consume the head's reservation — the head keeps first claim
// on the next full slot — so the decision tree may choose any queued
// job (§5: "a small job is allowed to leap forward as long as it does
// not delay the job at the head of the queue"; a partner placement never
// delays the head).
func (q *WaitQueue) PartnerCandidates() []*Job { return q.jobs }

// Take removes the specific job from the queue (by ID).
func (q *WaitQueue) Take(id int) (*Job, error) {
	for i, j := range q.jobs {
		if j.ID == id {
			q.jobs = slices.Delete(q.jobs, i, i+1)
			q.unindex(j)
			return j, nil
		}
	}
	return nil, fmt.Errorf("core: queue: job %d not queued", id)
}

// SelectPartner implements the pairing decision tree of Figure 4: given
// the class of the application currently running on a node, choose the
// queued job to co-locate. Every queued job is a candidate (placing a
// partner never delays the reserved head — see PartnerCandidates); the
// partner-class priority order derived from the Figure-5 ranking decides
// (I first, then H/C, then M), with queue order breaking ties. Returns
// nil if the queue is empty.
//
// Only the front of each class's sub-index can win — within a class,
// queue order is push order — so the scan inspects at most four fronts
// instead of the whole FIFO. The (rank, arrival sequence) order is
// total (sequences are unique), so the choice is deterministic and
// equals the legacy whole-queue scan's first-strictly-better sweep
// (fuzz-tested against it in FuzzWaitQueueIndex).
func (q *WaitQueue) SelectPartner(running workloads.Class, priority []workloads.Class) *Job {
	if len(q.jobs) == 0 {
		return nil
	}
	var best *Job
	bestRank := 0
	for c, d := range q.byClass {
		if len(d) == 0 {
			continue
		}
		j := d[0]
		r := classRank(workloads.Class(c), priority)
		if best == nil || r < bestRank || (r == bestRank && j.seq < best.seq) {
			best, bestRank = j, r
		}
	}
	return best
}

// classRank resolves a class's priority rank the same way the linear
// scan's map build does (a duplicated class keeps its last position;
// unlisted classes rank after every listed one) without allocating.
func classRank(c workloads.Class, priority []workloads.Class) int {
	r := len(priority)
	for i, p := range priority {
		if p == c {
			r = i
		}
	}
	return r
}

// SelectPartnerSized extends the Figure-4 decision tree with a
// tie-breaker the paper leaves open: among candidates of the best
// available class, prefer the job whose expected duration is closest to
// the running application's — balanced completion times maximize the
// co-located overlap the EDP gain comes from. With uniform job sizes it
// reduces exactly to SelectPartner; on size-mixed workloads the
// size-aware ablation measures a 14–32% EDP improvement over the
// class-only tree.
func (q *WaitQueue) SelectPartnerSized(running workloads.Class, runningEst float64, priority []workloads.Class) *Job {
	cands := q.PartnerCandidates()
	if len(cands) == 0 {
		return nil
	}
	rank := map[workloads.Class]int{}
	for i, c := range priority {
		rank[c] = i
	}
	classRank := func(j *Job) int {
		if r, ok := rank[j.Class]; ok {
			return r
		}
		return len(priority)
	}
	sizeGap := func(j *Job) float64 {
		a, b := j.EstTime, runningEst
		if a <= 0 || b <= 0 {
			return 0
		}
		if a < b {
			a, b = b, a
		}
		return a / b // ≥ 1; closer to 1 is better
	}
	best := cands[0]
	for _, j := range cands[1:] {
		switch {
		case classRank(j) < classRank(best):
			best = j
		case classRank(j) == classRank(best) && sizeGap(j) < sizeGap(best):
			best = j
		}
	}
	return best
}
