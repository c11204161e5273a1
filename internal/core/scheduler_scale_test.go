package core

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// equivResult captures every externally observable artifact of one
// fully instrumented online run.
type equivResult struct {
	makespan, energy uint64 // float bits: equality must be exact, not approximate
	snapshot         string
	timeline         string
	decisions        string
}

// encode renders the result in the testdata/ws4_online.golden layout:
// the makespan and energy bits, then each export as a length-prefixed
// section.
func (r equivResult) encode() []byte {
	return []byte(fmt.Sprintf("makespan %016x\nenergy %016x\n--- snapshot %d\n%s--- timeline %d\n%s--- decisions %d\n%s",
		r.makespan, r.energy, len(r.snapshot), r.snapshot, len(r.timeline), r.timeline, len(r.decisions), r.decisions))
}

// equivRun drives one WS4 online run on two nodes as a single shard,
// with metrics, tracing, and auditing all attached, tuned by the lookup
// table behind the memo and metered wrappers.
func equivRun(t *testing.T) equivResult {
	t.Helper()
	r := runSharded(t, 2, ShardedConfig{Shards: 1}, submitWS4(t))
	out := r.perShard[0]
	out.makespan, out.energy = r.makespan, r.energy
	return out
}

// TestOnlineGolden pins the single-shard control plane — indexed
// dispatch, cached accrual, memoized tuning and steady solves, the
// router's submit-time profiling — to testdata/ws4_online.golden, which
// was recorded from the retired reference implementation (per-accrual
// steady-state recompute, linear node and partner scans, no memos,
// in-event profiling): makespan and energy bits, the deterministic
// metrics snapshot, the span timeline, and the decision JSONL must
// match byte for byte at GOMAXPROCS 1 and 4.
func TestOnlineGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/ws4_online.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		got := equivRun(t).encode()
		runtime.GOMAXPROCS(old)
		if !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d: run diverged from testdata/ws4_online.golden:\n%s", procs, firstDiff(got, want))
		}
	}
}

// firstDiff names the first differing line of two renders.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var a, b string
		if i < len(g) {
			a = g[i]
		}
		if i < len(w) {
			b = w[i]
		}
		if a != b {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, a, b)
		}
	}
	return "renders differ"
}

// TestNodeSetsAgainstLinearScan steps a randomized run event by event
// and, after every event, checks the free / half-busy dispatch indexes
// against a linear scan of the node resident sets — the property the
// indexed dispatch equivalence rests on.
func TestNodeSetsAgainstLinearScan(t *testing.T) {
	fixture(t)
	c := oneShard(t, fix.lkt, NewProfiler(fix.model, sim.NewRNG(5)), 5)
	s := c.shards[0]
	apps := workloads.Training()
	rng := sim.NewRNG(6)
	at := 0.0
	for i := 0; i < 40; i++ {
		size := 1.0
		if i%3 == 0 {
			size = 5
		}
		c.Submit(apps[i%len(apps)], size, at)
		at += rng.Exp(150)
	}
	check := func() {
		t.Helper()
		for _, n := range s.nodes {
			if got, want := s.freeSet.has(n.id), len(n.residents) == 0; got != want {
				t.Fatalf("t=%.0f node %d: freeSet=%v, residents=%d", c.ev.now, n.id, got, len(n.residents))
			}
			if got, want := s.halfSet.has(n.id), len(n.residents) == 1; got != want {
				t.Fatalf("t=%.0f node %d: halfSet=%v, residents=%d", c.ev.now, n.id, got, len(n.residents))
			}
		}
	}
	check()
	for c.step(math.Inf(1)) {
		check()
	}
	if s.pending != 0 {
		t.Fatalf("%d jobs never completed", s.pending)
	}
	if len(c.Completed()) != 40 {
		t.Fatalf("completed %d jobs, want 40", len(c.Completed()))
	}
}

// TestOnlineLargeClusterShortSmoke is the CI scale smoke: 256 nodes ×
// 2000 jobs through the optimized path must complete (fast enough for
// -short and -race runs — the legacy path would spend minutes here).
func TestOnlineLargeClusterShortSmoke(t *testing.T) {
	fixture(t)
	const nodes, jobs = 256, 2000
	c := oneShard(t, NewMemoSTP(fix.lkt, nil), NewProfiler(fix.model, sim.NewRNG(17)), nodes)
	wl, err := Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(18)
	at := 0.0
	for i := 0; i < jobs; i++ {
		j := wl.Jobs[i%len(wl.Jobs)]
		c.Submit(j.App, j.SizeGB, at)
		at += rng.Exp(6)
	}
	mk, en, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(c.Completed()); got != jobs {
		t.Fatalf("completed %d jobs, want %d", got, jobs)
	}
	if mk <= 0 || en <= 0 {
		t.Fatalf("degenerate run: makespan %v, energy %v", mk, en)
	}
	s := c.shards[0]
	for _, n := range s.nodes {
		if len(n.residents) != 0 || !s.freeSet.has(n.id) || s.halfSet.has(n.id) {
			t.Fatalf("node %d not drained: residents=%d free=%v half=%v",
				n.id, len(n.residents), s.freeSet.has(n.id), s.halfSet.has(n.id))
		}
	}
}

// queueFuzzJob builds a deterministic fuzz-driven job.
func queueFuzzJob(id int, class workloads.Class, est float64) *Job {
	return &Job{ID: id, Class: class, EstTime: est}
}

// fuzzPriorities are the priority shapes each fuzz step cross-checks:
// the standard order, a single class, empty (every class unlisted),
// and one with a duplicate (last position wins, like the map build).
func fuzzPriorities() [][]workloads.Class {
	return [][]workloads.Class{
		DefaultPriority(),
		{workloads.MemBound},
		{},
		{workloads.Compute, workloads.IOBound, workloads.Compute},
	}
}

// FuzzWaitQueueIndex drives randomized push / pop-head / take
// sequences and asserts, after every operation, that the per-class
// index's SelectPartner agrees with the legacy linear scan for every
// priority shape — the queue-index half of the indexed-dispatch
// equivalence argument.
func FuzzWaitQueueIndex(f *testing.F) {
	f.Add([]byte{0, 4, 8, 12, 1, 5, 2, 9, 3, 13, 2, 3, 7, 11, 2, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 3, 3, 3, 2, 2, 2})
	f.Add([]byte{12, 8, 4, 0, 1, 3, 2, 15, 14, 13})
	f.Fuzz(func(t *testing.T, ops []byte) {
		classes := workloads.Classes()
		q := NewWaitQueue()
		next := 0
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // bias toward growth so scans see populated queues
				q.Push(queueFuzzJob(next, classes[int(op/4)%len(classes)], float64(op%7)+1))
				next++
			case 2:
				q.PopHead()
			case 3:
				if n := q.Len(); n > 0 {
					if _, err := q.Take(q.jobs[int(op/4)%n].ID); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, prio := range fuzzPriorities() {
				got := q.SelectPartner(workloads.Hybrid, prio)
				want := q.selectPartnerLinear(prio)
				if got != want {
					t.Fatalf("after %d ops, priority %v: indexed chose %+v, linear chose %+v (queue %d deep)",
						len(ops), prio, got, want, q.Len())
				}
			}
			for i := 1; i < q.Len(); i++ {
				if q.jobs[i-1].seq >= q.jobs[i].seq {
					t.Fatalf("queue positions %d,%d carry sequences %d,%d, want increasing", i-1, i, q.jobs[i-1].seq, q.jobs[i].seq)
				}
			}
			if dead := q.jobs[:cap(q.jobs)][q.Len():]; slices.ContainsFunc(dead, func(j *Job) bool { return j != nil }) {
				t.Fatal("queue backing array pins a removed job past its length")
			}
			indexed := 0
			for c, d := range q.byClass {
				for i, j := range d {
					if j.Class != workloads.Class(c) {
						t.Fatalf("class %v deque holds job %d of class %v", workloads.Class(c), j.ID, j.Class)
					}
					if i > 0 && d[i-1].seq >= j.seq {
						t.Fatalf("class %v deque positions %d,%d carry sequences %d,%d, want increasing", workloads.Class(c), i-1, i, d[i-1].seq, j.seq)
					}
				}
				if dead := d[len(d):cap(d)]; slices.ContainsFunc(dead, func(j *Job) bool { return j != nil }) {
					t.Fatalf("class %v deque backing array pins a removed job past its length", workloads.Class(c))
				}
				indexed += len(d)
			}
			if indexed != q.Len() {
				t.Fatalf("class index holds %d jobs, queue has %d", indexed, q.Len())
			}
		}
	})
}

// TestMemoSTPTransparency checks the memo wrapper end to end on
// router-interned observations: repeat
// predictions hit, hits return the exact first answer, and the metered
// wrapper's deterministic telemetry cannot tell the cache is there.
func TestMemoSTPTransparency(t *testing.T) {
	fixture(t)
	reg := metrics.NewRegistry()
	memo := NewMemoSTP(fix.lkt, reg)
	ids := interned(obsOf(t, "wc", 5), obsOf(t, "st", 5))
	a, b := ids[0], ids[1]
	cfg1, exp1, err1 := memo.PredictBestExpected(a, b)
	cfg2, exp2, err2 := memo.PredictBestExpected(a, b)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if cfg1 != cfg2 || exp1 != exp2 {
		t.Fatalf("memoized answer diverged: %v/%v vs %v/%v", cfg1, exp1, cfg2, exp2)
	}
	wantCfg, wantExp, err := fix.lkt.PredictBestExpected(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cfg1 != wantCfg || exp1 != wantExp {
		t.Fatalf("memo answer %v/%v != inner answer %v/%v", cfg1, exp1, wantCfg, wantExp)
	}
	if hits := reg.Counter("stp.memo.hits").Value(); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
	if misses := reg.Counter("stp.memo.misses").Value(); misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	// PredictBest shares the same cache.
	if _, err := memo.PredictBest(a, b); err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("stp.memo.hits").Value(); hits != 2 {
		t.Fatalf("hits after PredictBest = %d, want 2", hits)
	}
	// The hit/miss counters are operational telemetry: they must stay
	// out of the deterministic snapshot (golden expositions cannot
	// depend on cache effectiveness) and appear in the volatile one.
	var det, vol bytes.Buffer
	if err := reg.Snapshot(false).WriteText(&det); err != nil {
		t.Fatal(err)
	}
	if err := reg.Snapshot(true).WriteText(&vol); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(det.Bytes(), []byte("stp.memo.")) {
		t.Fatalf("memo counters leaked into the deterministic snapshot:\n%s", det.String())
	}
	if !bytes.Contains(vol.Bytes(), []byte("stp.memo.hits")) {
		t.Fatalf("memo counters missing from the volatile snapshot:\n%s", vol.String())
	}
	// MeteredSTP unwraps the memo for its deterministic scan-size proxy.
	met := NewMeteredSTP(memo, nil, metrics.NewRegistry())
	if got, want := met.scanSize(), len(fix.db.Entries); got != want {
		t.Fatalf("scanSize through memo = %d, want %d (DB entries)", got, want)
	}
}
