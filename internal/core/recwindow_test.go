package core

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// sameBits reports whether two observations hold the same application,
// id and bits in every float.
func sameBits(a, b *Observation) bool {
	if a.App != b.App || a.id != b.id || math.Float64bits(a.SizeGB) != math.Float64bits(b.SizeGB) {
		return false
	}
	for m := range a.Features {
		if math.Float64bits(a.Features[m]) != math.Float64bits(b.Features[m]) {
			return false
		}
	}
	return true
}

// TestResolveMatchesSubmit submits a noisy stream of every application
// at continuous sizes, longer than one ring chunk, and keeps what each
// Submit's solve wrote into the plane's scratch observation. The
// finisher's re-solve of each submission's stub must give the same
// observation bit for bit, the stub's home and the single-use mark,
// whether the stubs are re-solved in submission order or backwards: a
// solve depends on its app and size alone, not on what the profiler's
// evaluator solved last (DESIGN.md §46).
func TestResolveMatchesSubmit(t *testing.T) {
	fixture(t)
	c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(9)),
		func() STP { return fix.lkt }, 8, ShardedConfig{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	apps, rng := workloads.IDs(), sim.NewRNG(10)
	solved := make([]Observation, arrChunk+300)
	for i := range solved {
		c.Submit(apps[rng.Intn(len(apps))], 0.5+20*rng.Float64(), float64(i))
		if c.err != nil {
			t.Fatal(c.err)
		}
		solved[i] = c.subObs
	}
	r := &c.arrivals
	if len(r.stubs) != 2 || len(r.chunks) != 2 {
		t.Fatalf("%d stub chunks beside %d ring chunks, want 2 and 2", len(r.stubs), len(r.chunks))
	}
	for _, backwards := range []bool{false, true} {
		for k := range solved {
			i := k
			if backwards {
				i = len(solved) - 1 - k
			}
			s := &r.stubs[i/arrChunk][i%arrChunk]
			rec := profileRec{spec: 7, by: 3, class: 2}
			c.resolve(&rec, s)
			if !sameBits(&rec.obs, &solved[i]) {
				t.Fatalf("backwards=%v: submission %d re-solves to %+v, Submit solved %+v", backwards, i, rec.obs, solved[i])
			}
			want := profileRec{obs: solved[i], home: int32(routeShard(s.app.Name(), len(c.shards))), single: true}
			if rec != want {
				t.Fatalf("backwards=%v: submission %d's re-solved record is %+v, want %+v", backwards, i, rec, want)
			}
		}
	}
}

// TestOneRecordWindow runs a noisy stream, longer than one ring chunk,
// through 4 stealing shards with a window of one record at GOMAXPROCS
// 1. The helper may finish a record only once the drive has copied out
// the one before it, and the drive may deliver one only once the helper
// has finished it, so at every arrival each waits on the other, on one
// processor. The run must end, complete every job exactly as the
// default window does, and carve the same records: the store follows
// the drive alone (DESIGN.md §46).
func TestOneRecordWindow(t *testing.T) {
	fixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(window int) ([]CompletedJob, int) {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(31)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 16, ShardedConfig{Shards: 4, Steal: true})
		if err != nil {
			t.Fatal(err)
		}
		apps, rng := workloads.IDs(), sim.NewRNG(32)
		at := 0.0
		for i := 0; i < arrChunk+300; i++ {
			c.Submit(apps[rng.Intn(len(apps))], 1+10*rng.Float64(), at)
			at += rng.Exp(40)
		}
		if window > 0 {
			c.win = make([]profileRec, window)
		}
		if _, _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if window == 0 {
			window = recWindow
		}
		if len(c.win) != window {
			t.Fatalf("window of %d records, want %d", len(c.win), window)
		}
		return c.Completed(), RecordsCarved(c)
	}
	want, wantCarved := run(0)
	got, carved := run(1)
	if len(want) != arrChunk+300 || !slices.Equal(got, want) {
		t.Fatalf("a one-record window completed %d jobs, the default window %d; the logs differ", len(got), len(want))
	}
	if carved != wantCarved || carved >= len(want)/4 {
		t.Fatalf("the store carved %d records with a one-record window, %d with the default one, for %d jobs",
			carved, wantCarved, len(want))
	}
}
