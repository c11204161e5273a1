package core

import (
	"math"
	"slices"

	"ecost/internal/cluster"
	"ecost/internal/hdfs"
	"ecost/internal/mapreduce"
	"ecost/internal/power"
	"ecost/internal/workloads"
)

// shard is one partition of the event-driven form of ECoST (Figure 4),
// owned by a ShardedScheduler: jobs arrive over time, are classified,
// wait in the FIFO queue with head reservation, and are co-located onto
// the shard's nodes by the pairing decision tree with STP-tuned
// configurations. Job progress follows the execution model's fluid
// contention solver, recomputed whenever a node's resident set changes.
type shard struct {
	// ev is the control plane's clock and completion heap, shared by
	// every shard.
	ev    *eventQueue
	Model *mapreduce.Model
	DB    *Database
	Tuner STP

	queue *WaitQueue
	nodes []*onlineNode

	// base offsets node ids in every export (metrics events, span
	// attributes, audit rows, CompletedJob.Node) so a shard owning
	// nodes [base, base+len) reports cluster-global ids while its
	// internal indexes stay dense. idx is the shard's index in the
	// control plane, stamped on every span it records.
	base, idx int

	// fastAcc selects the O(1) aggregate accrual path: reschedule
	// maintains phaseWatts, the running sum of cached node draws per
	// occupancy phase (0 idle, 1 solo, 2 co-located), and accrueEnergy
	// integrates the three sums instead of walking every node. Summing
	// incrementally reassociates the float adds, so total energy can
	// differ from the per-node walk in the last ulps (golden-tested to
	// 1e-9 relative); scheduling decisions never read energy, so
	// makespan and every placement stay bit-identical. Span and audit
	// attribution walk the nodes in the observer, so the fast path
	// holds with every sink attached; see setFastAccrual.
	fastAcc    bool
	phaseWatts [3]float64

	// steadyMemo caches steady-state contention solves by the exact
	// model inputs packed in one word (per resident, in resident order:
	// the spec id of its (app, size) and its configuration's grid
	// index; see steadyKey). Steady is a pure function of those inputs,
	// so a hit returns bit-identical times and watts — the cache is
	// transparent to every golden — while recurring tenant pairs skip
	// the fluid solver entirely. It is the open-addressed memoTable
	// MemoSTP uses, here on the one-word key, and its groups hold no
	// pointers. Each resident carries its key half (setCfg), so a
	// lookup reads two words. At steadyMemoCap entries it clears
	// wholesale and keeps its slots (the MemoSTP policy: recurring
	// streams re-warm instantly and without allocating, adversarial key
	// churn cannot grow memory).
	steadyMemo memoTable[steadyKey, steadyVal]

	// steadyHits / steadyMisses count steady solves answered by the
	// memo and solves run, a deterministic function of the stream.
	steadyHits, steadyMisses int64

	// freeCnt / halfCnt mirror the dispatch bitmaps' populations so
	// freeSlots — called per shard at every steal barrier — is O(1)
	// instead of a popcount walk.
	freeCnt, halfCnt int

	// idleWatts caches the empty-node steady-state draw (bit-identical
	// to Model.Steady(nil)); scratch is the reusable RunSpec buffer the
	// reschedule path builds resident specs into, and eval the solver
	// reschedule runs them through on reused scratch; freeSet / halfSet
	// index nodes with zero / exactly one resident for O(1) dispatch.
	idleWatts float64
	scratch   []mapreduce.RunSpec
	eval      *mapreduce.Evaluator
	freeSet   nodeSet
	halfSet   nodeSet

	// completions points at the control plane's one completion log.
	pending     int
	completions *[]CompletedJob

	// energy accounting
	energyJ    float64
	lastUpdate float64
	phases     power.PhaseAccumulator

	// obs feeds the shard's observability sinks (nil = every sink off;
	// see observe.go). Each lifecycle transition calls it behind one nil
	// check.
	obs *observer

	// jobPool / ojPool recycle Job and onlineJob records: both become
	// unreachable at completion (CompletedJob copies every exported
	// field; spans, audit rows, and metrics hold ids and strings, never
	// the pointers), so the completion path returns them here and
	// arrive/place reuse them. A stolen job's pointer migrates with it
	// and retires into the thief's pool.
	jobPool []*Job
	ojPool  []*onlineJob
}

// maxPerNode caps co-located jobs per node: the paper pairs at most two
// applications, and dispatch only targets empty or half-busy nodes.
const maxPerNode = 2

// pendingArrival is one undelivered submission in the control plane's
// arrival ring. It holds the profile by reference, and the home shard
// lives on the record, so an entry is three words however large an
// Observation grows (TestPendingArrivalSize pins it at 24 B or less).
type pendingArrival struct {
	id  int
	at  float64
	rec *profileRec
}

// profileRec is one router profile: the observation measured for a
// submission and the behaviour class derived from it. The sharded
// router owns the records for the run — one per (app, size) under
// ProfileMemo, one per submission otherwise — and hands them to the
// home shard by pointer, so the observation is copied once, into the
// Job. The record's observation carries the record's id (DESIGN.md
// §26).
//
// home is the shard the router sends every job holding the record to.
// The class is computed on first arrival and cached here. Classify is
// a pure function of the observation, so the cache is bit-identical to
// classifying every arrival. Only the home shard classifies a record:
// routing is by app name, so every job sharing a record shares a home
// shard, and a stolen job carries its class in the Job instead. A
// thief reads only the record's spec id, fixed at Submit.
//
// spec is the router's id for the record's (app name, size), shared by
// every record of that pair and never reused (DESIGN.md §25). Ids
// start at 1, so a zero spec word marks an empty steadyKey slot.
//
// single marks a record that belongs to a single submission, as every
// record does without ProfileMemo. Its job is placed once, so no tune
// pair with it as the newcomer can recur, and the shard tells the
// tuner so (DESIGN.md §34).
type profileRec struct {
	obs     Observation
	spec    int
	home    int
	class   workloads.Class
	classed bool
	single  bool
}

// classOf returns rec's behaviour class, classifying on first use.
func (s *shard) classOf(rec *profileRec) workloads.Class {
	if !rec.classed {
		rec.class = s.DB.Classifier().Classify(rec.obs)
		rec.classed = true
	}
	return rec.class
}

// CompletedJob records one finished job for reporting.
type CompletedJob struct {
	ID        int
	App       string
	Class     workloads.Class
	SizeGB    float64
	Submitted float64
	Started   float64
	Finished  float64
	Node      int
	Cfg       mapreduce.Config
}

type onlineJob struct {
	job     *Job
	cfg     mapreduce.Config
	rem     float64 // fraction of work remaining
	started float64

	// half is the job's steady-key half for its record's spec id and
	// cfg, or 0 when they do not fit one; setCfg keeps it in step with
	// cfg, so a lookup reads it instead of rebuilding it.
	half uint64
}

// setCfg sets the job's configuration and its steady-key half.
func (r *onlineJob) setCfg(cfg mapreduce.Config) {
	r.cfg = cfg
	r.half = steadyHalf(r.job.rec.spec, cfg)
}

type onlineNode struct {
	id        int
	residents []*onlineJob

	// sh is the owning shard, whose nodeComplete fires this node's
	// completion; hi indexes the node's pending completion in the
	// control plane's heap (-1 = none).
	sh *shard
	hi int

	// watts caches the node's steady-state draw for the current
	// resident set. It is refreshed at every reschedule (the one place
	// the resident set or its configurations change hands) and reset to
	// the idle draw when the node empties, so the accrual path reads it
	// instead of re-solving the execution model per node per event.
	watts float64

	// rates is the reusable progress-rate buffer the completion path
	// reads; evDT and evFinisher carry the pending completion's elapsed
	// interval and predicted finisher. Every reschedule refills all
	// three and moves or clears the node's one heap entry, so a firing
	// completion always reads the values its own reschedule wrote.
	rates      []float64
	evDT       float64
	evFinisher *onlineJob

	// accWatts/accPhase are the contribution this node currently makes
	// to the scheduler's phaseWatts sums under fast accrual: the watts
	// last folded in and the phase bucket they went into. reschedule
	// subtracts the old contribution and adds the new one; every
	// resident-set or configuration mutation is followed by a
	// reschedule before the next accrual, so the sums are always
	// consistent with the per-node caches at integration time.
	accWatts float64
	accPhase int8
}

// newShard builds a shard over `nodes` single-node lanes whose
// cluster-global ids start at base, scheduling its nodes' completions
// on ev (the control plane's one heap).
func newShard(ev *eventQueue, model *mapreduce.Model, db *Database, tuner STP, nodes, base int) *shard {
	s := &shard{
		ev:    ev,
		Model: model,
		DB:    db,
		Tuner: tuner,
		queue: NewWaitQueue(),
		base:  base,
	}
	// The idle draw is the same expression Model.Steady evaluates for an
	// empty spec set, so cached node watts stay bit-identical to a fresh
	// per-accrual recompute.
	s.idleWatts = model.IdlePower()
	s.eval = model.NewEvaluator()
	s.freeSet = newNodeSet(nodes)
	s.halfSet = newNodeSet(nodes)
	for i := 0; i < nodes; i++ {
		n := &onlineNode{id: i, watts: s.idleWatts, sh: s, hi: -1}
		s.nodes = append(s.nodes, n)
		s.freeSet.set(i, true)
	}
	s.freeCnt = nodes
	return s
}

// gid maps a node's dense internal index to its cluster-global id.
func (s *shard) gid(n *onlineNode) int { return s.base + n.id }

// setFastAccrual enables the O(1) aggregate energy-accrual path (see
// the fastAcc field). Call before the first submit.
func (s *shard) setFastAccrual(v bool) {
	s.fastAcc = v
	if !v {
		return
	}
	// Seed the phase sums from the current (all-idle) node caches.
	s.phaseWatts = [3]float64{}
	for _, n := range s.nodes {
		n.accWatts = n.watts
		n.accPhase = nodePhase(len(n.residents))
		s.phaseWatts[n.accPhase] += n.accWatts
	}
}

// nodePhase buckets a resident count into the phase accumulator's
// categories: 0 idle, 1 solo, 2 co-located.
func nodePhase(residents int) int8 {
	if residents > 2 {
		residents = 2
	}
	return int8(residents)
}

// steadyKey is a full node's solver input in one word (DESIGN.md §26):
// per resident, in resident order (order matters — the returned states
// are positional), 32 bits holding the router's spec id for its
// (app, size) (profileRec.spec, 1..2^24−1) above its configuration's
// index on the paper's 4 × 5 × 8 grid. The first resident fills the
// high half. A one-resident key leaves the low half zero, which no
// resident's half equals, as spec ids start at 1. Equal halves mean
// equal RunSpecs (DESIGN.md §25).
type steadyKey uint64

func (k steadyKey) hash() uint64 { return fpFinish(uint64(k)) }

// steadyTimes is the part of one resident's SteadyState reschedule
// reads.
type steadyTimes struct {
	job, mapT, reduce float64
}

// steadyVal is one cached solve.
type steadyVal struct {
	res   [2]steadyTimes
	watts float64
}

// Grid axes of the steady key's configuration index. A mapper count
// past gridMappers is off the grid.
var (
	gridFreqs  = cluster.Frequencies()
	gridBlocks = hdfs.BlockSizes()
)

const gridMappers = 8

// gridIndex is c's index on the paper's configuration grid, and false
// when c is off it.
func gridIndex(c mapreduce.Config) (uint64, bool) {
	if c.Mappers < 1 || c.Mappers > gridMappers {
		return 0, false
	}
	fi := slices.Index(gridFreqs, c.Freq)
	bi := slices.Index(gridBlocks, c.Block)
	if fi < 0 || bi < 0 {
		return 0, false
	}
	return uint64((fi*len(gridBlocks)+bi)*gridMappers + c.Mappers - 1), true
}

// steadyHalf is a resident's half of a steady key for its record's
// spec id and its configuration, and 0 when they do not fit one: a
// spec id of 2^24 or more, or a configuration off the grid. A half
// that fits is nonzero, as spec ids start at 1.
func steadyHalf(spec int, cfg mapreduce.Config) uint64 {
	g, ok := gridIndex(cfg)
	if !ok || spec < 1 || spec >= 1<<24 {
		return 0
	}
	return uint64(spec)<<8 | g
}

// steadyKeyOf builds the memo key for a 1- or 2-resident node from the
// halves its residents carry, so a memo hit never builds the spec
// list. ok is false when the set does not fit a key.
func steadyKeyOf(res []*onlineJob) (steadyKey, bool) {
	h := res[0].half
	k, ok := h<<32, h != 0
	if len(res) == 2 {
		h = res[1].half
		k, ok = k|h, ok && h != 0
	}
	return steadyKey(k), ok
}

// steady returns the steady-state solve for n's resident set (one or
// two residents), from the memo when the set was solved before. A set
// that does not fit a key is solved every time.
func (s *shard) steady(n *onlineNode) (steadyVal, error) {
	k, fits := steadyKeyOf(n.residents)
	if fits {
		if v := s.steadyMemo.get(k); v != nil {
			s.steadyHits++
			return *v, nil
		}
	}
	s.steadyMisses++
	out, w, err := s.eval.Steady(s.specsInto(n))
	if err != nil {
		return steadyVal{}, err
	}
	v := steadyVal{watts: w}
	for i, st := range out {
		v.res[i] = steadyTimes{st.JobTime, st.MapTime, st.ReduceTime}
	}
	if !fits {
		return v, nil
	}
	if s.steadyMemo.n >= steadyMemoCap {
		s.steadyMemo.clear()
	}
	s.steadyMemo.put(k, v)
	return v, nil
}

// steadyMemoCap bounds the steady memo.
const steadyMemoCap = 4096

// arrive is the in-event half of submission: classify, queue, record,
// dispatch. The observation's SizeGB doubles as the nominal size
// (Observe preserves the requested size exactly).
func (s *shard) arrive(id int, rec *profileRec, at float64) {
	var j *Job
	if k := len(s.jobPool); k > 0 {
		j = s.jobPool[k-1]
		s.jobPool[k-1] = nil
		s.jobPool = s.jobPool[:k-1]
	} else {
		j = new(Job)
	}
	*j = Job{
		ID:      id,
		Obs:     rec.obs,
		Class:   s.classOf(rec),
		EstTime: rec.obs.SizeGB,
		Arrived: at,
		rec:     rec,
	}
	s.queue.Push(j)
	if s.obs != nil {
		s.obs.arrive(j)
	}
	s.dispatch()
}

// finishRun closes out a drained run at the clock, which every shard
// shares and which stops at the global makespan: each shard bills its
// idle tail up to the same end time, and its open spans finish there.
func (s *shard) finishRun() {
	s.accrueEnergy() // close the last interval
	if s.obs != nil {
		s.obs.finish()
	}
}

// freeSlots reports how many more residents dispatch could place right
// now: an empty node absorbs up to two queued jobs (head claim, then a
// partner), a half-busy node one. The work-stealing pass uses it to
// bound a starved shard's claim budget.
func (s *shard) freeSlots() int { return 2*s.freeCnt + s.halfCnt }

// releaseHead removes the wait queue's head for migration to shard
// `to` at barrier time `at` (the engine clock reads at), under the
// steal's link id; the thief re-registers it under the same global id.
// Returns nil when the queue is empty.
func (s *shard) releaseHead(at float64, to, link int) *Job {
	j := s.queue.PopHead()
	if j == nil {
		return nil
	}
	s.pending--
	if s.obs != nil {
		s.obs.stealOut(j, at, to, link)
	}
	return j
}

// acceptStolen registers a job claimed from neighbor shard `from` at
// barrier time `at` (the engine clock reads at) under the steal's link
// id. The job keeps its global id, observation, class, and original
// arrival time. The caller dispatches after the claim batch.
func (s *shard) acceptStolen(j *Job, from int, at float64, link int) {
	s.pending++
	s.queue.Push(j)
	if s.obs != nil {
		s.obs.stealIn(j, from, at, link)
	}
}

// accrueEnergy integrates cluster power since the last update from the
// node watts reschedule caches: no solves and no allocations
// (TestAccrueEnergyZeroAlloc, every sink attached). The walk keeps the
// reference order (node id ascending, one phases.Add per node), so
// energy and phase split are bit-identical to recomputing Steady per
// node (testdata/ws4_online.golden). Under fastAcc the phase sums
// replace the walk.
func (s *shard) accrueEnergy() {
	now := s.ev.now
	dt := now - s.lastUpdate
	if dt <= 0 {
		return
	}
	if s.fastAcc {
		// O(1) aggregate path: integrate the phase sums reschedule
		// maintains instead of walking the node array. At 16k nodes the
		// per-node walk is the dominant cost of every event.
		s.phases.IdleJ += s.phaseWatts[0] * dt
		s.phases.SoloJ += s.phaseWatts[1] * dt
		s.phases.CoJ += s.phaseWatts[2] * dt
		s.energyJ += (s.phaseWatts[0] + s.phaseWatts[1] + s.phaseWatts[2]) * dt
	} else {
		var watts float64
		for _, n := range s.nodes {
			watts += n.watts
			s.phases.Add(len(n.residents), n.watts*dt)
		}
		s.energyJ += watts * dt
	}
	s.lastUpdate = now
	if s.obs != nil {
		s.obs.accrue(dt)
	}
}

// specsInto builds the node's resident RunSpecs in the scheduler's
// reusable scratch buffer: the event loop is single-threaded and the
// solver only reads the slice, so the reschedule path builds every
// resident-spec list in place instead of allocating one per call.
func (s *shard) specsInto(n *onlineNode) []mapreduce.RunSpec {
	out := s.scratch[:0]
	for _, r := range n.residents {
		out = append(out, mapreduce.RunSpec{
			App:    r.job.Obs.App,
			DataMB: r.job.Obs.SizeGB * 1024,
			Cfg:    r.cfg,
		})
	}
	s.scratch = out
	return out
}

// refreshPhaseWatts folds a node's freshly-cached draw into the fast
// accrual's phase sums, retiring its previous contribution. Called
// from reschedule only — the single point where n.watts changes.
func (s *shard) refreshPhaseWatts(n *onlineNode) {
	if !s.fastAcc {
		return
	}
	s.phaseWatts[n.accPhase] -= n.accWatts
	n.accPhase = nodePhase(len(n.residents))
	n.accWatts = n.watts
	s.phaseWatts[n.accPhase] += n.accWatts
}

// occupancyChanged refreshes the dispatch indexes (and their mirror
// counts) after a node's resident count changed (a placement or a
// completion).
func (s *shard) occupancyChanged(n *onlineNode) {
	free := len(n.residents) == 0
	half := len(n.residents) == 1
	if s.freeSet.has(n.id) != free {
		if free {
			s.freeCnt++
		} else {
			s.freeCnt--
		}
		s.freeSet.set(n.id, free)
	}
	if s.halfSet.has(n.id) != half {
		if half {
			s.halfCnt++
		} else {
			s.halfCnt--
		}
		s.halfSet.set(n.id, half)
	}
}

// dispatch places queued jobs: empty slots are filled head-first; a node
// with one resident gets a partner chosen by the decision tree.
func (s *shard) dispatch() {
	for s.queue.Len() > 0 {
		// Prefer pairing onto a half-busy node, then an empty node. The
		// indexes hand back the lowest node id, which is exactly the
		// node an in-order scan would stop at.
		var target *onlineNode
		if id, ok := s.halfSet.min(); ok {
			target = s.nodes[id]
		} else if id, ok := s.freeSet.min(); ok {
			target = s.nodes[id]
		}
		if target == nil {
			return // cluster full
		}
		pair := len(target.residents) == 1
		j := s.queue.Head()
		if pair {
			running := target.residents[0].job.Class
			j = s.queue.SelectPartner(running, s.DB.PartnerPriority(running))
		}
		if s.obs != nil { // before j leaves the queue: claim compares it with the head
			s.obs.claim(target, j)
		}
		if !pair {
			s.queue.PopHead()
		} else if _, err := s.queue.Take(j.ID); err != nil {
			panic(err)
		}
		s.place(target, j)
	}
}

// place starts a job on a node and retunes the node's residents:
// "after pairing, ECoST fine-tunes the architectural, system, and
// application level parameters of the paired applications concurrently"
// (§5). The resident application's frequency and mapper slots are
// re-tuned live; its HDFS block size stays as loaded (data layout is
// fixed once written).
func (s *shard) place(n *onlineNode, j *Job) {
	s.accrueEnergy()
	cfg := s.tuneFor(n, j)
	var oj *onlineJob
	if k := len(s.ojPool); k > 0 {
		oj = s.ojPool[k-1]
		s.ojPool[k-1] = nil
		s.ojPool = s.ojPool[:k-1]
	} else {
		oj = new(onlineJob)
	}
	*oj = onlineJob{job: j, rem: 1, started: s.ev.now}
	oj.setCfg(cfg)
	n.residents = append(n.residents, oj)
	s.occupancyChanged(n)
	if s.obs != nil {
		s.obs.place(n, oj)
	}
	s.reschedule(n)
}

// tuneFor picks the new job's configuration, adjusting the resident's
// frequency and mapper count to the pair-tuned values when co-locating
// and the pair fits the node's cores; otherwise the job is tuned solo
// into the cores left free.
func (s *shard) tuneFor(n *onlineNode, j *Job) mapreduce.Config {
	var resident *onlineJob
	var pair [2]mapreduce.Config // the resident's and the job's
	var exp PairExpectation
	if len(n.residents) == 1 {
		r := n.residents[0]
		var cfg [2]mapreduce.Config
		var e PairExpectation
		var err error
		if s.obs != nil { // the observer meters the call
			cfg, e, err = s.obs.predictPair(&r.job.Obs, &j.Obs, j.rec.single)
		} else {
			cfg, e, err = predictExpected(s.Tuner, &r.job.Obs, &j.Obs, j.rec.single)
		}
		if err == nil && cfg[0].Mappers+cfg[1].Mappers <= s.Model.Spec.Cores {
			rc := r.cfg
			rc.Freq, rc.Mappers = cfg[0].Freq, cfg[0].Mappers
			r.setCfg(rc)
			resident, pair, exp = r, cfg, e
		}
	}
	if resident == nil {
		cfg, e, err := PredictSoloBestExpected(j.Obs, s.DB)
		if err != nil {
			cfg, e = NTConfig(s.Model.Spec.Cores/maxPerNode), PairExpectation{}
		}
		free := s.Model.Spec.Cores
		for _, r := range n.residents {
			free -= r.cfg.Mappers
		}
		cfg.Mappers = max(min(cfg.Mappers, free), 1)
		pair[1], exp = cfg, e
	}
	if s.obs != nil {
		s.obs.tune(n, j, resident, pair, exp)
	}
	return pair[1]
}

// reschedule recomputes the node's next completion event from the
// current resident set's steady-state rates: it moves the node's heap
// entry to the new time with a fresh seq, or clears it when the node
// has no finisher.
func (s *shard) reschedule(n *onlineNode) {
	if len(n.residents) == 0 {
		s.ev.clear(n)
		n.watts = s.idleWatts
		s.refreshPhaseWatts(n)
		return
	}
	// Dispatch caps a node at maxPerNode (two) residents, so every
	// resident set fits a memo key.
	v, err := s.steady(n)
	if err != nil {
		panic(err)
	}
	sts := v.res[:len(n.residents)]
	// Capture the node's steady-state draw for the incremental accrual
	// path: this is the single point where a node's resident set or
	// configurations take effect, so the cache is fresh at every later
	// accrual (which always runs before the next mutation).
	n.watts = v.watts
	s.refreshPhaseWatts(n)
	if s.obs != nil {
		s.obs.steady(n, sts)
	}
	// Next finisher under current contention.
	next := -1
	nextDT := math.Inf(1)
	for i, r := range n.residents {
		dt := r.rem * sts[i].job
		if dt < nextDT {
			next, nextDT = i, dt
		}
	}
	if next < 0 {
		s.ev.clear(n)
		return
	}
	// Record progress rates to advance remaining fractions at the event.
	if cap(n.rates) < len(n.residents) {
		n.rates = make([]float64, len(n.residents))
	}
	rates := n.rates[:len(n.residents)]
	for i := range n.residents {
		rates[i] = 1 / sts[i].job
	}
	n.evDT = nextDT
	n.evFinisher = n.residents[next]
	s.ev.set(n, s.ev.now+nextDT)
}

// nodeComplete is the node's completion event: advance every resident's
// remaining fraction by the elapsed interval's progress rates, retire
// the finisher, and refill the node. It reads the reschedule-maintained
// n.evDT / n.evFinisher / n.rates, and its closing reschedule moves or
// clears the node's heap entry.
func (s *shard) nodeComplete(n *onlineNode) {
	nextDT := n.evDT
	finisher := n.evFinisher
	rates := n.rates[:len(n.residents)]
	s.accrueEnergy()
	for i, r := range n.residents {
		r.rem -= nextDT * rates[i]
		if r.rem < 0 {
			r.rem = 0
		}
	}
	// Remove the finisher.
	for i, r := range n.residents {
		if r == finisher {
			n.residents = append(n.residents[:i], n.residents[i+1:]...)
			break
		}
	}
	s.occupancyChanged(n)
	s.pending--
	*s.completions = append(*s.completions, CompletedJob{
		ID:        finisher.job.ID,
		App:       finisher.job.Obs.App.Name,
		Class:     finisher.job.Class,
		SizeGB:    finisher.job.Obs.SizeGB,
		Submitted: finisher.job.Arrived,
		Started:   finisher.started,
		Finished:  s.ev.now,
		Node:      s.gid(n),
		Cfg:       finisher.cfg,
	})
	if s.obs != nil {
		s.obs.complete(n, finisher)
	}
	// The finisher and its job are unreachable now — every export above
	// copied what it needed — so both records go back to the pools.
	n.evFinisher = nil
	s.jobPool = append(s.jobPool, finisher.job)
	*finisher = onlineJob{}
	s.ojPool = append(s.ojPool, finisher)
	s.reschedule(n)
	s.dispatch()
}
