package core

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/trace"
	"ecost/internal/workloads"
)

// TestPendingArrivalSize pins the arrival-ring entry at two words: it
// carries the profile record by pointer, never an Observation, and no
// job id, which the ring's delivery order gives.
func TestPendingArrivalSize(t *testing.T) {
	if n := unsafe.Sizeof(pendingArrival{}); n != 16 {
		t.Fatalf("pendingArrival is %d B, want 16", n)
	}
}

// ringEntries returns the ring's undelivered entries in delivery order.
func ringEntries(r *arrivalRing) []pendingArrival {
	var out []pendingArrival
	for k, ch := range r.chunks {
		lo, hi := 0, arrChunk
		if k == 0 {
			lo = r.hi
		}
		if k == len(r.chunks)-1 {
			hi = r.ti
		}
		out = append(out, ch[lo:hi]...)
	}
	return out
}

// TestArrivalRingChunks submits 3×arrChunk+1 arrivals and checks that
// the ring takes on four chunks and never moves one: every chunk the
// tail took on stays in the ring, in order, holding the arrivals
// submitted into it. During the drive each drained head chunk leaves
// the ring with its entries cleared, while later arrivals are still
// pending; the last chunk is refilled from its start once the ring
// drains. Every job's id is its submission index.
func TestArrivalRingChunks(t *testing.T) {
	fixture(t)
	c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(23)),
		func() STP { return NewMemoSTP(fix.lkt, nil) }, 16, ShardedConfig{Shards: 2, ProfileMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	apps := workloads.TrainingIDs()
	var chunks []*[arrChunk]pendingArrival
	var at []float64
	submit := func(i int) {
		t.Helper()
		at = append(at, 100*float64(i))
		c.Submit(apps[i%len(apps)], 1, at[i])
		if tail := c.arrivals.chunks[len(c.arrivals.chunks)-1]; len(chunks) == 0 || tail != chunks[len(chunks)-1] {
			chunks = append(chunks, tail)
		}
	}
	const n = 3*arrChunk + 1
	for i := 0; i < n; i++ {
		submit(i)
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	finishSubmitted(c)
	r := &c.arrivals
	if len(chunks) != 4 || !slices.Equal(r.chunks, chunks) || r.hi != 0 || r.ti != 1 {
		t.Fatalf("ring holds %d chunks (tail took on %d), head at %d, tail at %d; want the 4 chunks in order, 0 and 1",
			len(r.chunks), len(chunks), r.hi, r.ti)
	}
	for i, p := range ringEntries(r) {
		if p.at != at[i] || p.rec == nil {
			t.Fatalf("entry %d holds an arrival at %g (record %p), want the one submitted at %g", i, p.at, p.rec, at[i])
		}
	}

	released := 0
	for {
		t0, ok := c.nextAt()
		if !ok {
			break
		}
		head := r.chunks[0]
		for c.step(t0) {
		}
		if r.chunks[0] == head {
			continue
		}
		if slices.Contains(r.chunks, head) || *head != ([arrChunk]pendingArrival{}) {
			t.Fatalf("chunk %d left in the ring or holding entries", released)
		}
		released++
		if r.chunks[0] != chunks[released] || r.peek() == nil {
			t.Fatalf("after chunk %d drained, the head is not chunk %d with arrivals pending", released-1, released)
		}
	}
	if released != 3 || len(r.chunks) != 1 || r.chunks[0] != chunks[3] || r.hi != 0 || r.ti != 0 {
		t.Fatalf("released %d chunks, ring of %d, head at %d, tail at %d; want 3, with the last chunk kept empty",
			released, len(r.chunks), r.hi, r.ti)
	}
	submit(n)
	if len(chunks) != 4 || len(r.chunks) != 1 || r.ti != 1 {
		t.Fatalf("an arrival into the drained ring took on chunk %d at %d, want the kept chunk at 0", len(chunks), r.ti)
	}
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	done := c.Completed()
	if len(done) != n+1 {
		t.Fatalf("%d jobs completed, want %d", len(done), n+1)
	}
	for _, j := range done {
		if j.Submitted != at[j.ID] {
			t.Fatalf("job %d was submitted at %g, want the arrival submitted %dth, at %g", j.ID, j.Submitted, j.ID, at[j.ID])
		}
	}
}

// TestRecordSizes pins what each arrival, observation, router record,
// submission stub and completion log entry carries now that they name
// their application by id: no copy of a workloads.App, and no pointer,
// so the garbage collector scans none of them. The stub is all Submit
// keeps of a single submission until Run (DESIGN.md §46). The
// completion log entry is the exported CompletedJob (DESIGN.md §44),
// whose App string is its one pointer.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		v        any
		max      uintptr
		pointers bool
	}{
		{trace.Arrival{}, 24, false},
		{Observation{}, 136, false},
		{profileRec{}, 168, false},
		{recStub{}, 16, false},
		{CompletedJob{}, 96, true},
	} {
		typ := reflect.TypeOf(c.v)
		if n := typ.Size(); n > c.max {
			t.Errorf("%v is %d B, want ≤ %d", typ, n, c.max)
		}
		if hasPointers(typ) && !c.pointers {
			t.Errorf("%v holds a pointer", typ)
		}
	}
}

// hasPointers reports whether a value of type t holds a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestShardedSubmitWarmZeroAlloc pins the warm ProfileMemo submission:
// once (app, size) has its record, routing a job copies no observation and
// allocates nothing. The arrival ring links one chunk per arrChunk
// submissions, which AllocsPerRun's whole-allocations-per-call average
// rounds away.
func TestShardedSubmitWarmZeroAlloc(t *testing.T) {
	fixture(t)
	c, err := NewShardedScheduler(fix.model, fix.db, fix.profiler,
		func() STP { return NewMemoSTP(fix.lkt, nil) }, 4, ShardedConfig{Shards: 4, ProfileMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	app := workloads.MustLookup("wc")
	c.Submit(app, 5, 0)
	if allocs := testing.AllocsPerRun(1000, func() { c.Submit(app, 5, 1) }); allocs != 0 {
		t.Fatalf("warm Submit allocates %.1f objects per call, want 0", allocs)
	}
	if c.recs.n != 1 || c.err != nil {
		t.Fatalf("the router holds %d (app, size) records (err %v), want 1", c.recs.n, c.err)
	}
}

// TestShardedClassCache runs a mixed stream through 16 stealing shards,
// with and without ProfileMemo, and checks every job completes with
// the application and class it gets from one steal-free shard. Each
// record's class is written on its home shard the first time it
// arrives; under -race with several procs this also checks that no
// other shard's goroutine touches a record.
func TestShardedClassCache(t *testing.T) {
	fixture(t)
	type row struct {
		id    int
		app   string
		class workloads.Class
	}
	run := func(shards int, steal, memo bool) ([]row, int) {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(5)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 32,
			ShardedConfig{Shards: shards, Steal: steal, ProfileMemo: memo})
		if err != nil {
			t.Fatal(err)
		}
		apps, sizes := workloads.IDs(), []float64{1, 5, 10}
		rng := sim.NewRNG(6)
		at := 0.0
		for i := 0; i < 400; i++ {
			c.Submit(apps[i%len(apps)], sizes[i%len(sizes)], at)
			at += rng.Exp(4)
		}
		if _, _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		var out []row
		for _, j := range c.Completed() {
			out = append(out, row{j.ID, j.App, j.Class})
		}
		sort.Slice(out, func(a, b int) bool { return out[a].id < out[b].id })
		return out, c.Steals()
	}
	for _, memo := range []bool{false, true} {
		want, _ := run(1, false, memo)
		got, steals := run(16, true, memo)
		if steals == 0 {
			t.Fatalf("memo=%v: the stream never stole, so stolen classes went unchecked", memo)
		}
		if len(got) != len(want) {
			t.Fatalf("memo=%v: %d completions, want %d", memo, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("memo=%v: job %d completed as %+v on 16 shards, %+v on one", memo, want[i].id, got[i], want[i])
			}
		}
	}
}

// TestProfileRecords checks which record the router hands each
// submission. With ProfileMemo off every submission gets a record of
// its own, with a distinct nonzero id, and the submissions of one
// (app, size) share a spec id; until the drive delivers it, the record
// is the submission's window slot (DESIGN.md §46). With ProfileMemo
// on, the jobs of one (app, size) share one record.
func TestProfileRecords(t *testing.T) {
	fixture(t)
	apps, sizes := workloads.IDs()[:4], []float64{1, 5}
	for _, memo := range []bool{false, true} {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(3)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 8, ShardedConfig{Shards: 4, ProfileMemo: memo})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 48; i++ {
			c.Submit(apps[i%len(apps)], sizes[i/len(apps)%len(sizes)], float64(i))
		}
		if c.err != nil {
			t.Fatal(c.err)
		}
		finishSubmitted(c)
		type key struct {
			app  string
			size float64
		}
		recOf, specOf := map[key]*profileRec{}, map[key]int{}
		ids := map[uint64]bool{}
		for id := 0; id < c.nextID; id++ {
			r := recordOf(c, id)
			k := key{r.obs.App.Name(), r.obs.SizeGB}
			if r.obs.id == 0 {
				t.Fatalf("memo=%v: job %d holds id 0", memo, id)
			}
			if first, ok := recOf[k]; !ok {
				recOf[k], specOf[k] = r, r.spec
			} else if memo && r != first {
				t.Fatalf("memo=%v: job %d of %v got a second record", memo, id, k)
			}
			if r.spec != specOf[k] {
				t.Fatalf("memo=%v: job %d of %v has spec %d, want %d", memo, id, k, r.spec, specOf[k])
			}
			if !memo && ids[r.obs.id] {
				t.Fatalf("memo=%v: job %d reuses id %d", memo, id, r.obs.id)
			}
			ids[r.obs.id] = true
		}
		if want := map[bool]int{false: 48, true: 8}[memo]; len(ids) != want || len(specOf) != 8 {
			t.Fatalf("memo=%v: %d ids and %d specs, want %d and 8", memo, len(ids), len(specOf), want)
		}
	}
}

// TestRouterFinisherMatchesObserve runs a noisy stream of every
// application at continuous sizes and a ProfileMemo stream of recurring
// (app, size) pairs through 16 stealing shards, each longer than one
// ring chunk, and checks the record each job got at its arrival against
// a twin profiler with the same seed: the noisy records must hold, in
// submission order, the observations Observe returns, and the
// ProfileMemo records those ObserveExact returns, feature for feature
// by bits. Each record's cached class and nearest-known training row
// must be Classify's and NearestKnown's for that observation, its id
// nonzero and its own, and its spec id the one its (app, size) got at
// its first submission, numbered from 1 in submission order. The records are finished on Run's helper
// goroutine while the drive delivers them (DESIGN.md §45), so a helper
// that finished them out of submission order would hand them another
// record's noise. A noisy record is copied at its arrival, since it
// lives only while its job does: a later job's arrival recycles it
// (DESIGN.md §46). The window stays the default one, so the helper
// wraps it many times and waits on the drive at its edge.
func TestRouterFinisherMatchesObserve(t *testing.T) {
	fixture(t)
	cls := fix.db.Classifier()
	apps := workloads.IDs()
	for _, memo := range []bool{false, true} {
		const seed = 21
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(seed)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 64,
			ShardedConfig{Shards: 16, Steal: true, ProfileMemo: memo})
		if err != nil {
			t.Fatal(err)
		}
		type submission struct {
			app  workloads.ID
			size float64
		}
		rng := sim.NewRNG(22)
		subs := make([]submission, arrChunk+500)
		at := 0.0
		for i := range subs {
			s := submission{apps[i%len(apps)], 1 + 10*rng.Float64()}
			if memo {
				s.size = []float64{1, 5, 10}[i%3]
			}
			subs[i] = s
			c.Submit(s.app, s.size, at)
			at += rng.Exp(2)
		}
		entries := ringEntries(&c.arrivals)
		if len(entries) != len(subs) {
			t.Fatalf("memo=%v: the ring holds %d arrivals, want %d", memo, len(entries), len(subs))
		}
		arrived := make([]profileRec, len(subs))
		held := make([]*profileRec, len(subs))
		onArrive(c, func(id int, rec *profileRec) { arrived[id], held[id] = *rec, rec })
		if _, _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if c.Steals() == 0 {
			t.Fatalf("memo=%v: the stream never stole", memo)
		}
		twin := NewProfiler(fix.model, sim.NewRNG(seed))
		owner := map[uint64]*profileRec{}
		specOf := map[submission]int{}
		for i := range entries {
			s, rec := subs[i], &arrived[i]
			var want Observation
			if memo {
				want, err = twin.ObserveExact(*s.app.App(), s.size)
			} else {
				want, err = twin.Observe(*s.app.App(), s.size)
			}
			if err != nil {
				t.Fatal(err)
			}
			got := rec.obs
			if got.App != want.App || math.Float64bits(got.SizeGB) != math.Float64bits(want.SizeGB) {
				t.Fatalf("memo=%v: job %d's record holds %s@%g, want %s@%g", memo, i, got.App.Name(), got.SizeGB, want.App.Name(), want.SizeGB)
			}
			for m := range got.Features {
				if math.Float64bits(got.Features[m]) != math.Float64bits(want.Features[m]) {
					t.Fatalf("memo=%v: job %d's feature %v is %v, the twin profiler's %v", memo, i, perfctr.Metric(m), got.Features[m], want.Features[m])
				}
			}
			if rec.by != cls.id || workloads.Class(rec.class) != cls.Classify(want) || cls.training[rec.near] != cls.NearestKnown(want) {
				t.Fatalf("memo=%v: job %d's record caches class %v and row %d by classifier %d; Classify says %v, NearestKnown %s@%g",
					memo, i, workloads.Class(rec.class), rec.near, rec.by, cls.Classify(want), cls.NearestKnown(want).App.Name(), cls.NearestKnown(want).SizeGB)
			}
			if _, ok := specOf[s]; !ok {
				specOf[s] = len(specOf) + 1
			}
			if rec.spec != specOf[s] {
				t.Fatalf("memo=%v: job %d's record has spec %d, want %d", memo, i, rec.spec, specOf[s])
			}
			if rec.obs.id == 0 {
				t.Fatalf("memo=%v: job %d's record has id 0", memo, i)
			}
			if o, ok := owner[rec.obs.id]; ok && o != held[i] {
				t.Fatalf("memo=%v: job %d's record shares id %d with another record", memo, i, rec.obs.id)
			}
			owner[rec.obs.id] = held[i]
		}
		if want := map[bool]int{false: len(subs), true: len(apps) * 3}[memo]; len(owner) != want {
			t.Fatalf("memo=%v: %d records, want %d", memo, len(owner), want)
		}
	}
}

// TestRecordKeyEquality pins the record table's key to the float
// equality the map it replaced keyed by: +0 and −0 are one key, so
// their submissions share a record under ProfileMemo and a spec id
// without it; a NaN size has no key; and no key is the table's empty
// zero key.
func TestRecordKeyEquality(t *testing.T) {
	fixture(t)
	app := workloads.MustLookup("wc")
	negZero := math.Copysign(0, -1)
	if k, ok := recKeyOf(app, negZero); !ok || k != (recKey{uint64(app) + 1, 0}) {
		t.Fatalf("−0 keys as %+v (%v), want +0's key", k, ok)
	}
	if _, ok := recKeyOf(app, math.NaN()); ok {
		t.Fatal("a NaN size has a key")
	}
	for _, id := range workloads.IDs() {
		if k, _ := recKeyOf(id, 0); k == (recKey{}) {
			t.Fatalf("%s at size 0 keys as the empty key", id.Name())
		}
	}
	for _, memo := range []bool{false, true} {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(3)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 4, ShardedConfig{Shards: 2, ProfileMemo: memo})
		if err != nil {
			t.Fatal(err)
		}
		c.Submit(app, 0, 0)
		c.Submit(app, negZero, 1)
		if c.err != nil {
			t.Fatal(c.err)
		}
		finishSubmitted(c)
		if a, b := recordOf(c, 0), recordOf(c, 1); a.spec != b.spec || (a == b) != memo || c.recs.n+c.specOf.n != 1 {
			t.Fatalf("memo=%v: +0 and −0 got specs %d and %d (one record: %v) in tables of %d keys", memo, a.spec, b.spec, a == b, c.recs.n+c.specOf.n)
		}
	}
}
