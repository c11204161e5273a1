package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"ecost/internal/flight"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// TestShardedElisionMatchesFullBarriers is the tentpole property: for
// every seed × shard count × steal mode, the barrier-eliding drive
// (no steal pass wherever no thief/victim pairing can exist) must be
// byte-identical to the exact full-barrier cadence of
// driveFullBarriers — makespan and energy bits, per-shard metrics
// snapshots, span timelines, and decision JSONL. The dense streams
// force queueing (and steals, when enabled) so the exact-barrier
// fallback is exercised; the matrix also proves windows actually
// elided work somewhere, or the property would be vacuous.
func TestShardedElisionMatchesFullBarriers(t *testing.T) {
	var elided, barriers, steals int64
	for _, shards := range []int{2, 4} {
		for _, steal := range []bool{false, true} {
			for _, seed := range []int64{1, 7, 42} {
				cfg := ShardedConfig{Shards: shards, Steal: steal}
				stream := seededStream(48, seed, 5)
				label := fmt.Sprintf("shards=%d steal=%v seed=%d", shards, steal, seed)
				ref := runShardedMode(t, 8, cfg, true, stream)
				got := runShardedMode(t, 8, cfg, false, stream)
				if ref.stats.Windows != 0 || ref.stats.WindowEvents != 0 {
					t.Fatalf("%s: reference path ran %d free windows", label, ref.stats.Windows)
				}
				if !steal && got.stats.Barriers != 0 {
					t.Fatalf("%s: steal-off run still barriered %d times", label, got.stats.Barriers)
				}
				elided += got.stats.WindowEvents
				barriers += got.stats.Barriers
				steals += int64(got.steals)
				// The cadences differ by design; every export must not.
				got.stats = ref.stats
				shardedExportsEqual(t, label, ref, got)
			}
		}
	}
	if elided == 0 {
		t.Fatal("no configuration elided a single barrier — the property is vacuous")
	}
	if barriers == 0 {
		t.Fatal("no steal-on configuration fell back to an exact barrier")
	}
	if steals == 0 {
		t.Fatal("no configuration stole — the steal-on half of the property is vacuous")
	}
}

// TestShardedElisionStealExactness pins the eligibility predicate from
// both sides. A window opens only while every wait queue is empty — the
// exact condition under which the reference steal pass early-outs — so
// the elided run must reproduce the reference's steal count on streams
// engineered to maximize stealing (a single-tenant burst landing on one
// home shard), and must never open a window before those queues drain.
// The sparse stream proves the other direction: with queues always
// empty at the barriers, the run is nearly all windows and an exact
// barrier fires only at arrival times.
func TestShardedElisionStealExactness(t *testing.T) {
	cfg := ShardedConfig{Shards: 4, Steal: true}

	// Burst: every arrival at t=0 on one home shard. Queues are
	// non-empty from the first barrier until the backlog drains, so no
	// window may open before the last steal-eligible barrier has run.
	burst := func(c *ShardedScheduler) {
		app := workloads.MustLookup("wc")
		for i := 0; i < 32; i++ {
			c.Submit(app, 5, 0)
		}
	}
	ref := runShardedMode(t, 8, cfg, true, burst)
	got := runShardedMode(t, 8, cfg, false, burst)
	if got.steals != ref.steals || got.steals == 0 {
		t.Fatalf("burst: elided run stole %d, reference %d (want equal, nonzero)", got.steals, ref.steals)
	}
	if got.stats.Barriers == 0 {
		t.Fatal("burst: elided run never fell back to an exact barrier while queues were non-empty")
	}
	if got.stats.WindowEvents == 0 {
		t.Fatal("burst: drained tail never ran as a free window")
	}
	gotStats := got.stats
	got.stats = ref.stats
	shardedExportsEqual(t, "burst", ref, got)

	// Sparse: arrivals spaced far beyond any runtime. Queues never form,
	// the reference never steals, and the elided run's only exact
	// barriers sit at arrival times (each fires at least one arrival).
	const jobs = 12
	sparse := func(c *ShardedScheduler) {
		apps := workloads.TrainingIDs()
		for i := 0; i < jobs; i++ {
			c.Submit(apps[i%len(apps)], 5, float64(i)*5e4)
		}
	}
	ref = runShardedMode(t, 8, cfg, true, sparse)
	got = runShardedMode(t, 8, cfg, false, sparse)
	if got.steals != 0 || ref.steals != 0 {
		t.Fatalf("sparse: steals fired (%d elided, %d reference) on a non-overlapping stream", got.steals, ref.steals)
	}
	if got.stats.Barriers > jobs {
		t.Fatalf("sparse: %d exact barriers for %d arrivals — a barrier ran where no queue could exist", got.stats.Barriers, jobs)
	}
	if got.stats.Windows == 0 {
		t.Fatal("sparse: no free-running window on an empty-queue stream")
	}
	got.stats = ref.stats
	shardedExportsEqual(t, "sparse", ref, got)
	t.Logf("burst: %d barriers + %d window events (%.0f%% elided); sparse: %d barriers for %d arrivals",
		gotStats.Barriers, gotStats.WindowEvents, 100*gotStats.ElidedRatio(), got.stats.Barriers, jobs)
}

// TestShardedFlightKeepsDriveCadence proves the flight-recorder
// contract: the recorder closes one epoch at every event time of the
// drive as it is — one per distinct event time, counted by the
// full-cadence reference's barriers, plus the closing epoch — and
// leaves the run unchanged: barrier counts, makespan and energy bits
// and the steal count equal the unrecorded run's.
// TestShardedDriveCadence pins the barrier counts themselves.
func TestShardedFlightKeepsDriveCadence(t *testing.T) {
	run := func(record, full bool) (*ShardedScheduler, *flight.Recorder, float64, float64) {
		fixture(t)
		prof := NewProfiler(fix.model, sim.NewRNG(99))
		c, err := NewShardedScheduler(fix.model, fix.db, prof,
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 8,
			ShardedConfig{Shards: 4, Steal: true})
		if err != nil {
			t.Fatal(err)
		}
		var fr *flight.Recorder
		if record {
			fr = flight.New()
			c.SetFlight(fr)
		}
		seededStream(48, 7, 5)(c)
		if full {
			driveFullBarriers(c)
		}
		mk, en, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return c, fr, mk, en
	}
	rec, fr, mkRec, enRec := run(true, false)
	free, _, mkFree, enFree := run(false, false)
	ref, _, _, _ := run(false, true)
	if rec.BarrierStats() != free.BarrierStats() {
		t.Fatalf("flight-attached run drove %+v, unrecorded run %+v", rec.BarrierStats(), free.BarrierStats())
	}
	if got, want := int64(fr.Epochs()), ref.BarrierStats().Barriers+1; got != want {
		t.Fatalf("flight recorded %d epochs over %d event times, want one per event time plus the closing epoch",
			got, ref.BarrierStats().Barriers)
	}
	if free.BarrierStats().WindowEvents == 0 {
		t.Fatal("unrecorded run elided nothing — the cadence comparison is vacuous")
	}
	if math.Float64bits(mkRec) != math.Float64bits(mkFree) || math.Float64bits(enRec) != math.Float64bits(enFree) ||
		rec.Steals() != free.Steals() {
		t.Fatalf("recorder changed the run: makespan %v/%v energy %v/%v steals %d/%d",
			mkRec, mkFree, enRec, enFree, rec.Steals(), free.Steals())
	}
}

// TestShardedDriveCadence pins the drive loop's own counts — exact
// barriers, free windows, events run inside windows, and steals — for
// the dense seeded stream and a single-tenant burst at every shard
// count × steal mode, with and without a flight recorder, which must
// change none of them and close one epoch per distinct event time
// (times) plus the closing epoch. The elision goldens only compare
// exports, and the repository benchmark reports these counts as its
// drive.* metrics.
func TestShardedDriveCadence(t *testing.T) {
	burst := func(c *ShardedScheduler) {
		app := workloads.MustLookup("wc")
		for i := 0; i < 32; i++ {
			c.Submit(app, 5, 0)
		}
	}
	streams := map[string]func(c *ShardedScheduler){
		"seeded": seededStream(48, 7, 5),
		"burst":  burst,
	}
	cases := []struct {
		stream string
		shards int
		steal  bool
		stats  BarrierStats
		steals int
		times  int
	}{
		{"seeded", 2, false, BarrierStats{Barriers: 0, Windows: 1, WindowEvents: 96}, 0, 96},
		{"seeded", 2, true, BarrierStats{Barriers: 80, Windows: 1, WindowEvents: 16}, 2, 96},
		{"seeded", 4, false, BarrierStats{Barriers: 0, Windows: 1, WindowEvents: 96}, 0, 96},
		{"seeded", 4, true, BarrierStats{Barriers: 80, Windows: 1, WindowEvents: 16}, 22, 96},
		{"burst", 2, false, BarrierStats{Barriers: 0, Windows: 1, WindowEvents: 33}, 0, 9},
		{"burst", 2, true, BarrierStats{Barriers: 3, Windows: 1, WindowEvents: 16}, 16, 5},
		{"burst", 4, false, BarrierStats{Barriers: 0, Windows: 1, WindowEvents: 33}, 0, 17},
		{"burst", 4, true, BarrierStats{Barriers: 3, Windows: 1, WindowEvents: 16}, 24, 5},
	}
	for _, tc := range cases {
		for _, recorded := range []bool{false, true} {
			fixture(t)
			prof := NewProfiler(fix.model, sim.NewRNG(99))
			c, err := NewShardedScheduler(fix.model, fix.db, prof,
				func() STP { return NewMemoSTP(fix.lkt, nil) }, 8,
				ShardedConfig{Shards: tc.shards, Steal: tc.steal})
			if err != nil {
				t.Fatal(err)
			}
			var fr *flight.Recorder
			if recorded {
				fr = flight.New()
				c.SetFlight(fr)
			}
			streams[tc.stream](c)
			if _, _, err := c.Run(); err != nil {
				t.Fatal(err)
			}
			if got := c.BarrierStats(); got != tc.stats || c.Steals() != tc.steals {
				t.Errorf("%s shards=%d steal=%v recorded=%v: cadence %+v with %d steals, want %+v with %d",
					tc.stream, tc.shards, tc.steal, recorded, got, c.Steals(), tc.stats, tc.steals)
			}
			if recorded && fr.Epochs() != tc.times+1 {
				t.Errorf("%s shards=%d steal=%v: %d epochs, want %d event times plus the closing epoch",
					tc.stream, tc.shards, tc.steal, fr.Epochs(), tc.times)
			}
		}
	}
}

// TestRouteShardMatchesFNV pins the inlined routing hash to the library
// FNV-1a it replaced: any divergence would silently re-home every
// tenant and break the recorded sweep baselines.
func TestRouteShardMatchesFNV(t *testing.T) {
	names := []string{"", "a", "wc", "st", "gp", "ts", "kmeans", "pagerank", "tenant-4711", "Σ/utf8·name"}
	for _, app := range workloads.TrainingIDs() {
		names = append(names, app.Name())
	}
	for _, name := range names {
		for _, shards := range []int{1, 2, 3, 4, 16} {
			h := fnv.New32a()
			h.Write([]byte(name))
			want := int(h.Sum32() % uint32(shards))
			if got := routeShard(name, shards); got != want {
				t.Fatalf("routeShard(%q, %d) = %d, library FNV-1a gives %d", name, shards, got, want)
			}
		}
	}
}

// TestShardedCompletedMerge pins Completed's order against a global
// sort: the one log is appended in event order through logCompletion,
// so cross-shard finish-time ties must break by id, and same-instant
// completions that landed out of id order must come back sorted.
func TestShardedCompletedMerge(t *testing.T) {
	fixture(t)
	// build appends each job, in the given (event) order, through the
	// completion path's append.
	build := func(log []CompletedJob) *ShardedScheduler {
		prof := NewProfiler(fix.model, sim.NewRNG(99))
		c, err := NewShardedScheduler(fix.model, fix.db, prof,
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 4, ShardedConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range log {
			logCompletion(&c.completed, CompletedJob{ID: j.ID, Finished: j.Finished})
		}
		return c
	}
	reference := func(log []CompletedJob) []CompletedJob {
		out := append([]CompletedJob(nil), log...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Finished != out[j].Finished {
				return out[i].Finished < out[j].Finished
			}
			return out[i].ID < out[j].ID
		})
		return out
	}
	check := func(label string, log ...CompletedJob) {
		t.Helper()
		want := reference(log)
		got := build(log).Completed()
		if len(got) != len(want) {
			t.Fatalf("%s: merged %d jobs, want %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Finished) != math.Float64bits(want[i].Finished) {
				t.Fatalf("%s: position %d: got job %d @%v, want job %d @%v",
					label, i, got[i].ID, got[i].Finished, want[i].ID, want[i].Finished)
			}
		}
	}

	// Two shards' completions interleaved in event order, with a
	// cross-shard tie at t=30 (ids 5 vs 2, 3).
	check("cross-shard ties",
		CompletedJob{ID: 0, Finished: 10}, CompletedJob{ID: 1, Finished: 20},
		CompletedJob{ID: 5, Finished: 30}, CompletedJob{ID: 2, Finished: 30},
		CompletedJob{ID: 3, Finished: 30}, CompletedJob{ID: 6, Finished: 40})

	// A same-instant pair out of id order.
	check("same-instant tie",
		CompletedJob{ID: 1, Finished: 20}, CompletedJob{ID: 9, Finished: 30}, CompletedJob{ID: 4, Finished: 30})

	// Three same-instant completions in reverse id order: each moves
	// back past every one before it at that instant.
	check("same-instant reverse",
		CompletedJob{ID: 0, Finished: 10}, CompletedJob{ID: 8, Finished: 30},
		CompletedJob{ID: 7, Finished: 30}, CompletedJob{ID: 3, Finished: 30}, CompletedJob{ID: 2, Finished: 40})

	// Degenerate shapes: one job, then none.
	check("one job", CompletedJob{ID: 0, Finished: 5})
	check("empty")
}

// TestShardedCompletedLog checks the one completion log on a 16-shard
// stealing run: Run reserves it for every submitted job, so steals
// never make it regrow, and Completed hands out the log itself, clipped
// to its length.
func TestShardedCompletedLog(t *testing.T) {
	fixture(t)
	const jobs = 2000
	c := newBenchSharded(t, 256, jobs, 16, 0.5)
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Steals() == 0 {
		t.Fatal("no steals — the regrowth case is vacuous")
	}
	if len(c.completed) != jobs || cap(c.completed) != jobs {
		t.Fatalf("log len %d cap %d, want both %d (reserved once, never regrown)", len(c.completed), cap(c.completed), jobs)
	}
	first, second := c.Completed(), c.Completed()
	if &first[0] != &second[0] || &first[0] != &c.completed[0] {
		t.Fatal("two Completed calls returned different backing arrays, or not the log's")
	}
	if len(first) != jobs || cap(first) != jobs {
		t.Fatalf("Completed len %d cap %d, want both %d", len(first), cap(first), jobs)
	}

	empty, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(1)),
		func() STP { return NewMemoSTP(fix.lkt, nil) }, 4, ShardedConfig{Shards: 2, Steal: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := empty.Run(); err != nil {
		t.Fatal(err)
	}
	if got := empty.Completed(); got == nil || len(got) != 0 {
		t.Fatalf("empty run: Completed() = %#v, want a non-nil empty slice", got)
	}
}
