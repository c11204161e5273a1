package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"unsafe"

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

// TestRecordSizes pins what each arrival, observation, router record
// and completion log entry carries now that they name their
// application by id: no copy of a workloads.App, and no pointer, so the
// garbage collector scans none of them. The completion log entry is
// the exported CompletedJob (DESIGN.md §44), whose App string is its
// one pointer.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		v        any
		max      uintptr
		pointers bool
	}{
		{trace.Arrival{}, 24, false},
		{Observation{}, 136, false},
		{profileRec{}, 168, false},
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
	if len(c.recs) != 1 || c.err != nil {
		t.Fatalf("the router holds %d (app, size) records (err %v), want 1", len(c.recs), c.err)
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
// (app, size) share a spec id. With ProfileMemo on, the jobs of one
// (app, size) share one record.
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
		type key struct {
			app  string
			size float64
		}
		recOf, specOf := map[key]*profileRec{}, map[key]int{}
		ids := map[uint64]bool{}
		for id, p := range ringEntries(&c.arrivals) {
			r, k := p.rec, key{p.rec.obs.App.Name(), p.rec.obs.SizeGB}
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
