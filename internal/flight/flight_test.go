package flight

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// stat builds a minimal ShardStat.
func stat(queue, active int, energy float64) ShardStat {
	return ShardStat{Queue: queue, Active: active, EnergyJ: energy}
}

// sized returns a recorder attached to a plane of the given shard
// count, one node per shard.
func sized(shards int, tenants func(shard, max int) []string) *Recorder {
	r := New()
	nodes := make([]int, shards)
	for i := range nodes {
		nodes[i] = 1
	}
	r.Attach(nodes, tenants)
	return r
}

func TestNilSafety(t *testing.T) {
	var r *Recorder
	// Every disabled-path call must be a no-op, not a panic.
	r.RecordEpoch(0, 1, nil)
	r.Steal(0, 1)
	r.Attach([]int{1, 1}, nil)
	r.Join(3, 12.5)
	r.Drift(3, 1, "nb:C", 50)
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil recorder snapshot = %v", got)
	}
	if got := r.Health(); got.Shards != 0 {
		t.Errorf("nil recorder health = %+v", got)
	}
	if got := r.Dumps(); got != nil {
		t.Errorf("nil recorder dumps = %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteDumps(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteDumps: err=%v len=%d", err, buf.Len())
	}
	if err := r.WriteEpochs(&buf, -1); err != nil || buf.Len() != 0 {
		t.Errorf("nil WriteEpochs: err=%v len=%d", err, buf.Len())
	}
	if New() == nil {
		t.Error("New returned the disabled recorder")
	}
}

func TestRingWrap(t *testing.T) {
	r := sized(2, nil)
	const epochs = ringCap/2 + 3
	for e := 0; e < epochs; e++ {
		t0, t1 := float64(e), float64(e+1)
		r.RecordEpoch(t0, t1, []ShardStat{stat(e, 0, 0), stat(0, e, 0)})
	}
	recs := r.Snapshot()
	if len(recs) != ringCap {
		t.Fatalf("ring holds %d records, want cap %d", len(recs), ringCap)
	}
	// ringCap/2+3 epochs x 2 shards = ringCap+6 records; the 6 oldest
	// fell off.
	if h := r.Health(); h.Dropped != 6 || h.Epochs != epochs {
		t.Fatalf("dropped=%d epochs=%d, want 6/%d", h.Dropped, h.Epochs, epochs)
	}
	// Chronological: epoch nondecreasing, shard ascending within epoch.
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if b.Epoch < a.Epoch || (b.Epoch == a.Epoch && b.Shard <= a.Shard) {
			t.Fatalf("snapshot not chronological at %d: %+v then %+v", i, a, b)
		}
	}
	if recs[0].Epoch != 3 || recs[len(recs)-1].Epoch != epochs-1 {
		t.Fatalf("window spans epochs %d..%d, want 3..%d", recs[0].Epoch, recs[len(recs)-1].Epoch, epochs-1)
	}
	// A plane with more shards than ringCap still fits a full epoch.
	if h := sized(ringCap+1, nil).Health(); h.RingCap != ringCap+1 {
		t.Fatalf("ring cap %d for %d shards, want one full epoch", h.RingCap, ringCap+1)
	}
}

func TestJain(t *testing.T) {
	cases := []struct {
		x    []float64
		want float64
	}{
		{[]float64{4, 4, 4, 4}, 1},
		{[]float64{8, 0, 0, 0}, 0.25},
		{[]float64{0, 0}, 1},
		{[]float64{1, 1, 0, 0}, 0.5},
	}
	for _, c := range cases {
		if got := jain(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("jain(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestSlope(t *testing.T) {
	// q = 3 + 2t exactly.
	ts := []float64{0, 1, 2, 3}
	qs := []float64{3, 5, 7, 9}
	if got := slope(ts, qs); math.Abs(got-2) > 1e-12 {
		t.Errorf("slope = %v, want 2", got)
	}
	if got := slope([]float64{5}, []float64{1}); got != 0 {
		t.Errorf("degenerate slope = %v, want 0", got)
	}
	if got := slope([]float64{5, 5}, []float64{1, 9}); got != 0 {
		t.Errorf("zero-spread slope = %v, want 0", got)
	}
}

func TestPowerSkew(t *testing.T) {
	last := []ShardStat{stat(0, 0, 100), stat(0, 0, 300)}
	if got := powerSkew(last, nil); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("skew = %v, want 1.5", got)
	}
	// Node-normalized: 100J over 1 node vs 300J over 3 nodes is balanced.
	if got := powerSkew(last, []int{1, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("normalized skew = %v, want 1", got)
	}
	if got := powerSkew([]ShardStat{stat(0, 0, 0)}, nil); got != 1 {
		t.Errorf("idle skew = %v, want 1", got)
	}
}

func TestStealFlowMatrix(t *testing.T) {
	r := sized(3, nil)
	r.Steal(0, 1)
	r.Steal(0, 1)
	r.Steal(2, 0)
	r.RecordEpoch(0, 1, []ShardStat{{}, {}, {}})
	flow := r.StealFlow()
	if flow[0][1] != 2 || flow[2][0] != 1 || flow[1][2] != 0 {
		t.Fatalf("flow = %v", flow)
	}
	// The epoch records carry the same edges, sparse and sorted.
	recs := r.Snapshot()
	if got := recs[0].StealsOut; len(got) != 1 || got[0] != (Flow{Peer: 1, Jobs: 2}) {
		t.Errorf("shard 0 out-flow = %v", got)
	}
	if got := recs[1].StealsIn; len(got) != 1 || got[0] != (Flow{Peer: 0, Jobs: 2}) {
		t.Errorf("shard 1 in-flow = %v", got)
	}
	if h := r.Health(); h.Steals != 3 ||
		h.PerShard[0].StealsOut != 2 || h.PerShard[0].StealsIn != 1 {
		t.Errorf("health steal totals: %+v", r.Health().PerShard)
	}
}

// driveGrowth feeds a linearly growing queue, heaviest on shard 0 but
// fair enough that the imbalance trigger stays quiet, until the slope
// window is full and past the floor.
func driveGrowth(r *Recorder, epochs int) {
	for e := 0; e < epochs; e++ {
		q := 10 * (e + 1)
		r.RecordEpoch(float64(e), float64(e+1), []ShardStat{stat(q, 0, 0), stat(q/2, 0, 0)})
	}
}

func TestTriggerQueueGrowth(t *testing.T) {
	r := sized(2, func(shard, max int) []string { return []string{"nb", "pr"} })
	driveGrowth(r, queueSlopeWindow+8)
	h := r.Health()
	if h.QueueSlope <= queueSlopeBound {
		t.Fatalf("slope = %v, want > %v", h.QueueSlope, queueSlopeBound)
	}
	var tr *Trigger
	for i := range h.Triggers {
		if h.Triggers[i].Kind == TriggerQueue {
			tr = &h.Triggers[i]
			break
		}
	}
	if tr == nil {
		t.Fatalf("no queue_growth trigger: %+v", h.Triggers)
	}
	if len(tr.Shards) != 1 || tr.Shards[0] != 0 {
		t.Errorf("implicated shards = %v, want [0]", tr.Shards)
	}
	if len(tr.Tenants) != 2 || tr.Tenants[0] != "nb" {
		t.Errorf("implicated tenants = %v", tr.Tenants)
	}
	if h.Dumps == 0 {
		t.Error("trigger produced no dump")
	}
	// Cooldown: a sustained anomaly keeps counting but dumps once.
	if h.TriggersTotal < 2 || h.Dumps != 1 {
		t.Errorf("total=%d dumps=%d, want repeated triggers with one dump", h.TriggersTotal, h.Dumps)
	}
}

func TestTriggerImbalance(t *testing.T) {
	// Four shards: a load floor of 16 jobs.
	r := sized(4, nil)
	// All load on one shard: J = 1/4 < 0.5.
	r.RecordEpoch(0, 1, []ShardStat{stat(20, 4, 0), {}, {}, {}})
	h := r.Health()
	if len(h.Triggers) != 1 || h.Triggers[0].Kind != TriggerImbalance {
		t.Fatalf("triggers = %+v", h.Triggers)
	}
	if h.FairnessQueue != 0.25 {
		t.Errorf("fairness = %v, want 0.25", h.FairnessQueue)
	}
	// Below the floor nothing fires, however skewed.
	r2 := sized(4, nil)
	r2.RecordEpoch(0, 1, []ShardStat{stat(2, 1, 0), {}, {}, {}})
	if h2 := r2.Health(); h2.TriggersTotal != 0 {
		t.Errorf("under-floor skew fired %d triggers", h2.TriggersTotal)
	}
}

func TestTriggerDriftNamesTenant(t *testing.T) {
	r := sized(2, nil)
	r.Join(1, 120)
	r.Join(1, 80)
	r.Drift(1, 7, "nb:C", 55.2)
	r.Drift(1, 9, "st:I/O", 41.0)
	r.RecordEpoch(0, 40, []ShardStat{{}, stat(1, 1, 9.5)})
	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	tr := dumps[0].Trigger
	if tr.Kind != TriggerDrift {
		t.Fatalf("trigger kind = %s", tr.Kind)
	}
	if len(tr.Shards) != 1 || tr.Shards[0] != 1 {
		t.Errorf("shards = %v, want [1]", tr.Shards)
	}
	if len(tr.Tenants) != 2 || tr.Tenants[0] != "nb:C" || tr.Tenants[1] != "st:I/O" {
		t.Errorf("tenants = %v", tr.Tenants)
	}
	if tr.Value != 55.2 {
		t.Errorf("value = %v, want worst stat 55.2", tr.Value)
	}
	// The wide record carries the drained joins and marks.
	rec := dumps[0].Records[1]
	if rec.Joins != 2 || rec.ErrMeanPct != 100 || len(rec.Drift) != 2 {
		t.Errorf("record = %+v", rec)
	}
	var buf bytes.Buffer
	if err := r.WriteDumps(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trigger":"stp_drift_alert"`, `"nb:C"`, `"records":2`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("dump JSONL missing %q:\n%s", want, buf.String())
		}
	}
}

// TestExportsDeterministic replays the same synthetic stream twice and
// requires byte-identical health, epochs, and dump exports — the same
// purity contract the run-level GOMAXPROCS goldens enforce end to end.
// The stream wraps the ring and fires drift and queue-growth triggers.
func TestExportsDeterministic(t *testing.T) {
	const epochs = ringCap/3 + 10
	build := func() *Recorder {
		r := sized(3, func(shard, max int) []string { return []string{"km"} })
		for e := 0; e < epochs; e++ {
			r.Steal(0, (e%2)+1)
			r.Join(e%3, float64(10*e))
			if e == 7 {
				r.Drift(e%3, e, "km:C", 60)
			}
			r.RecordEpoch(float64(e), float64(e+1),
				[]ShardStat{stat(5*e, 1, float64(100*e)), stat(e, 0, 50), stat(0, 2, 75)})
		}
		return r
	}
	render := func(r *Recorder) string {
		var buf bytes.Buffer
		if err := r.Health().WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteEpochs(&buf, -1); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteDumps(&buf); err != nil {
			t.Fatal(err)
		}
		if err := r.WriteShards(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(build()), render(build())
	if a != b {
		t.Fatalf("exports diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "stp_drift_alert") {
		t.Fatalf("expected a drift trigger in:\n%s", a)
	}
	if h := build().Health(); h.Dropped == 0 || !strings.Contains(a, TriggerQueue) {
		t.Fatalf("stream must wrap the ring and grow the queue: dropped %d, triggers %+v", h.Dropped, h.Triggers)
	}
}

// BenchmarkDisabledEpochRecord measures the nil recorder's per-epoch
// cost: a single inlined branch (benchguard-gated at ≤1 ns, 0 allocs).
func BenchmarkDisabledEpochRecord(b *testing.B) {
	var r *Recorder
	var stats []ShardStat
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RecordEpoch(0, 1, stats)
	}
}

// BenchmarkDisabledFlightAppend measures the nil recorder's per-join
// cost on the scheduler's completion path (benchguard-gated at ≤1 ns,
// 0 allocs).
func BenchmarkDisabledFlightAppend(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Join(0, 12.5)
	}
}
