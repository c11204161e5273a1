package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ecost/internal/mapreduce"
	"ecost/internal/ml"
	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// The oracles below are the online miss path's implementations before
// it went allocation-free: the allocating nearest-known scan, the
// linear LkT entry scan, and the Model.Solo profiling run. The rewritten
// paths must return exactly what they returned.

func legacyNearestKnown(c *Classifier, o Observation) Observation {
	var best *Observation
	bestD := 0.0
	x := c.scaler.Transform(o.Reduced())
	for i := range c.training {
		t := &c.training[i]
		d := ml.Euclid(x, c.scaler.Transform(t.Reduced()))
		if t.SizeGB != o.SizeGB {
			d *= 4
		}
		if best == nil || d < bestD {
			best, bestD = t, d
		}
	}
	return *best
}

// legacyScanEntries is the serial "first direct wins, else last
// reverse" scan over every entry.
func legacyScanEntries(db *Database, na, nb Observation) (direct, reverse int) {
	direct, reverse = -1, -1
	for i := range db.Entries {
		e := &db.Entries[i]
		if e.A.App.Name() == na.App.Name() && e.A.SizeGB == na.SizeGB &&
			e.B.App.Name() == nb.App.Name() && e.B.SizeGB == nb.SizeGB {
			return i, reverse
		}
		if e.A.App.Name() == nb.App.Name() && e.A.SizeGB == nb.SizeGB &&
			e.B.App.Name() == na.App.Name() && e.B.SizeGB == na.SizeGB {
			reverse = i
		}
	}
	return direct, reverse
}

func legacyLookupBest(db *Database, a, b Observation) (PairBest, error) {
	if len(db.Entries) == 0 {
		return PairBest{}, fmt.Errorf("core: lookup: empty database")
	}
	na := legacyNearestKnown(db.classer, a)
	nb := legacyNearestKnown(db.classer, b)
	direct, reverse := legacyScanEntries(db, na, nb)
	switch {
	case direct >= 0:
		return unswap(db.Entries[direct].Best, false), nil
	case reverse >= 0:
		return unswap(db.Entries[reverse].Best, true), nil
	}
	return PairBest{}, fmt.Errorf("core: lookup: no entry for %s/%s", na.App.Name(), nb.App.Name())
}

func legacyObserve(m *mapreduce.Model, smp *perfctr.Sampler, app workloads.App, sizeGB float64) (Observation, error) {
	id, err := app.ID()
	if err != nil {
		return Observation{}, err
	}
	out, _, err := m.Solo(mapreduce.RunSpec{App: &app, DataMB: sizeGB * 1024, Cfg: profilingConfig()})
	if err != nil {
		return Observation{}, fmt.Errorf("core: profile %s: %w", app.Name, err)
	}
	v := smp.MeasureAveraged(app.Profile, out.Telemetry(), ProfilingRuns)
	return Observation{App: id, SizeGB: sizeGB, Features: v}, nil
}

// noisyObservations profiles every application at on- and off-grid
// sizes, reps times over, through the noise-model profiler.
func noisyObservations(t testing.TB, reps int, seed int64) []Observation {
	t.Helper()
	prof := NewProfiler(fix.model, sim.NewRNG(seed))
	var out []Observation
	for r := 0; r < reps; r++ {
		for _, app := range workloads.Apps() {
			for _, size := range []float64{1, 5, 10, 2.5} {
				o, err := prof.Observe(app, size)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, o)
			}
		}
	}
	return out
}

// checkLookup compares LookupBest and the LkT technique against the
// legacy scan for one query pair.
func checkLookup(t *testing.T, db *Database, a, b Observation) {
	t.Helper()
	want, wantErr := legacyLookupBest(db, a, b)
	got, err := db.LookupBest(a, b)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s@%v/%s@%v: error %v, legacy %v", a.App.Name(), a.SizeGB, b.App.Name(), b.SizeGB, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s@%v/%s@%v: LookupBest %+v, legacy %+v", a.App.Name(), a.SizeGB, b.App.Name(), b.SizeGB, got, want)
	}
	lkt := &LkTSTP{DB: db}
	cfg, exp, err := lkt.PredictBestExpected(a, b)
	if err != nil {
		return
	}
	if cfg != want.Cfg || exp != (PairExpectation{EDP: want.Out.EDP, TimeS: want.Out.Makespan, PowerW: want.Out.AvgPower}) {
		t.Fatalf("%s/%s: LkT %v %+v, legacy %v %+v", a.App.Name(), b.App.Name(), cfg, exp, want.Cfg, want.Out)
	}
	if cfg3, _ := lkt.PredictBest(a, b); cfg3 != cfg {
		t.Fatalf("%s/%s: PredictBest %v, want %v", a.App.Name(), b.App.Name(), cfg3, cfg)
	}
}

// TestLookupBestMatchesLegacyScan checks the table lookup against the
// scan on every ordered training pair and on 1,100 noisy observation
// pairs, over the full database and over a partial one where most
// queries resolve to a reversed entry or to no entry at all.
func TestLookupBestMatchesLegacyScan(t *testing.T) {
	fixture(t)
	partial := &Database{Entries: fix.db.Entries[:len(fix.db.Entries)/3], classer: fix.db.classer}
	train := fix.db.classer.training
	noisy := noisyObservations(t, 25, 91)
	for _, db := range []*Database{fix.db, partial} {
		for _, a := range train {
			for _, b := range train {
				checkLookup(t, db, a, b)
			}
		}
		for i := range noisy {
			checkLookup(t, db, noisy[i], noisy[(i*7+3)%len(noisy)])
		}
	}
	if _, err := (&Database{classer: fix.db.classer}).LookupBest(train[0], train[1]); err == nil {
		t.Fatal("empty database answered a lookup")
	}
}

// TestNearestKnownMatchesLegacy checks the stack-buffer scan returns the
// allocating scan's observation, noisy and exact inputs alike.
func TestNearestKnownMatchesLegacy(t *testing.T) {
	fixture(t)
	c := fix.db.Classifier()
	for _, o := range append(noisyObservations(t, 5, 12), c.training...) {
		if got, want := c.NearestKnown(o), legacyNearestKnown(c, o); got != want {
			t.Fatalf("%s@%v: NearestKnown %s@%v, legacy %s@%v", o.App.Name(), o.SizeGB, got.App.Name(), got.SizeGB, want.App.Name(), want.SizeGB)
		}
	}
}

// TestProfilerObserveMatchesLegacy checks the reused-scratch profiling
// run yields the legacy Observation sequence for the same seeds — on
// the noise-free model, on a noisy model (whose jitter draws must line
// up too), across a Model swap, and for a struct-literal Profiler.
// TestLookupReadsRecordAnswers checks that the LkT lookup of two router
// records reads the nearest-known indices the home shard cached at
// classify, directly and under a MemoSTP miss, and that another
// database's lookup, or one from outside the control plane, scans. A
// doctored cached index shows which path answered.
func TestLookupReadsRecordAnswers(t *testing.T) {
	fixture(t)
	var buf bytes.Buffer
	if err := fix.db.SaveDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	other, err := LoadDatabase(&buf, fix.oracle, 13)
	if err != nil {
		t.Fatal(err)
	}
	s := newShard(new(eventQueue), new(memoTable[steadyKey, steadyVal]), fix.model, fix.db, fix.lkt, 1, 0)
	a, b := &profileRec{obs: obsOf(t, "nb", 5)}, &profileRec{obs: obsOf(t, "pr", 1)}
	s.classOf(a)
	s.classOf(b)
	if want := separateNearestIndex(fix.db.classer, &a.obs); int(a.near) != want || a.by != fix.db.classer.id {
		t.Fatalf("cached index %d by classifier %d, want %d by %d", a.near, a.by, want, fix.db.classer.id)
	}
	scanned, _, err := fix.db.lookupConfig(&profileRec{obs: a.obs}, &profileRec{obs: b.obs})
	if err != nil {
		t.Fatal(err)
	}
	if cfg, _, err := fix.db.lookupConfig(a, b); err != nil || cfg != scanned {
		t.Fatalf("lookup of the records: %v %v, of their observations %v", cfg, err, scanned)
	}
	// Doctor a's cached index until the lookup's answer changes.
	doctored := a.near
	var want [2]mapreduce.Config
	for k := range fix.db.classer.training {
		a.near = int32(k)
		if cfg, _, err := fix.db.lookupConfig(a, b); err == nil && cfg != scanned {
			doctored, want = a.near, cfg
			break
		}
	}
	if doctored == int32(separateNearestIndex(fix.db.classer, &a.obs)) {
		t.Fatal("no other nearest-known index changes the lookup's answer")
	}
	a.near = doctored
	for name, tuner := range map[string]STP{"LkTSTP": fix.lkt, "MemoSTP miss": NewMemoSTP(fix.lkt, nil)} {
		if cfg, _, err := predictExpected(tuner, a, b); err != nil || cfg != want {
			t.Errorf("%s on the records: %v %v, want the cached index's %v", name, cfg, err, want)
		}
	}
	if cfg, _, err := other.lookupConfig(a, b); err != nil || cfg != scanned {
		t.Errorf("another database's lookup: %v %v, want its own scan's %v", cfg, err, scanned)
	}
	if cfg, err := fix.lkt.PredictBest(a.obs, b.obs); err != nil || cfg != scanned {
		t.Errorf("PredictBest from outside the plane: %v %v, want the scan's %v", cfg, err, scanned)
	}
}

func TestProfilerObserveMatchesLegacy(t *testing.T) {
	fixture(t)
	type run struct {
		name       string
		model, ref *mapreduce.Model
	}
	for _, r := range []run{
		{"exact model", fix.model, fix.model},
		{"noisy model", fix.model.WithNoise(0.05, sim.NewRNG(3)), fix.model.WithNoise(0.05, sim.NewRNG(3))},
	} {
		prof := NewProfiler(r.model, sim.NewRNG(77))
		refSmp := perfctr.NewSampler(sim.NewRNG(77))
		step := 0
		for rep := 0; rep < 3; rep++ {
			for _, app := range workloads.Apps() {
				for _, size := range []float64{1, 5, 10, 3.7} {
					got, err := prof.Observe(app, size)
					want, wantErr := legacyObserve(r.ref, refSmp, app, size)
					if err != nil || wantErr != nil {
						t.Fatal(err, wantErr)
					}
					if got != want {
						t.Fatalf("%s step %d (%s@%v): Observe %+v, legacy %+v", r.name, step, app.Name, size, got.Features, want.Features)
					}
					step++
				}
			}
		}
	}

	// A struct-literal Profiler builds its solver on first use and
	// rebuilds it when Model changes.
	noisy := fix.model.WithNoise(0.05, sim.NewRNG(8))
	ref := fix.model.WithNoise(0.05, sim.NewRNG(8))
	prof := &Profiler{Model: fix.model, Sampler: perfctr.NewSampler(sim.NewRNG(5))}
	refSmp := perfctr.NewSampler(sim.NewRNG(5))
	app := workloads.MustByName("wc")
	for i, m := range []*mapreduce.Model{fix.model, noisy, noisy} {
		refModel := fix.model
		if m == noisy {
			refModel = ref
		}
		prof.Model = m
		got, err := prof.Observe(app, 5)
		want, wantErr := legacyObserve(refModel, refSmp, app, 5)
		if err != nil || wantErr != nil {
			t.Fatal(err, wantErr)
		}
		if got != want {
			t.Fatalf("literal profiler call %d: Observe %+v, legacy %+v", i, got.Features, want.Features)
		}
	}
	if _, err := prof.Observe(app, -1); err == nil {
		t.Fatal("negative size profiled")
	}
}

// stamped returns obs as router records hand them to a shard: each
// stamped with a fresh id.
func stamped(obs ...Observation) []Observation {
	out := append([]Observation(nil), obs...)
	for i := range out {
		out[i].stamp()
	}
	return out
}

// TestMissPathZeroAlloc pins the allocation-free miss path: after
// warm-up, classifying, nearest-known matching, an LkT prediction (in
// both slot orders, so the reversed-entry path is covered, and through
// the tune path's in-place dispatch) and a memo hit allocate nothing —
// on stamped observations and on ones the memo keys itself.
func TestMissPathZeroAlloc(t *testing.T) {
	fixture(t)
	c := fix.db.Classifier()
	raw := []Observation{obsOf(t, "wc", 5), obsOf(t, "st", 1)}
	ids := stamped(raw...)
	a, b := ids[0], ids[1]
	memo := NewMemoSTP(fix.lkt, nil)
	for _, q := range [][2]Observation{{a, b}, {raw[0], raw[1]}} {
		if _, _, err := memo.PredictBestExpected(q[0], q[1]); err != nil {
			t.Fatal(err)
		}
	}
	// The tune path reaches LkT in place; it answers as the exported
	// entry point does.
	for _, q := range [][2]Observation{{a, b}, {b, a}} {
		cfg, exp, err := predictExpected(fix.lkt, &profileRec{obs: q[0]}, &profileRec{obs: q[1]})
		wantCfg, wantExp, wantErr := fix.lkt.PredictBestExpected(q[0], q[1])
		if cfg != wantCfg || exp != wantExp || err != wantErr {
			t.Fatalf("predictExpected on LkT: %v %+v %v, PredictBestExpected %v %+v %v", cfg, exp, err, wantCfg, wantExp, wantErr)
		}
	}
	for name, f := range map[string]func(){
		"Classifier.Classify":        func() { c.Classify(a) },
		"NearestKnown":               func() { c.NearestKnown(a) },
		"LkTSTP.PredictBestExpected": func() { _, _, _ = fix.lkt.PredictBestExpected(a, b) },
		"LkTSTP reversed":            func() { _, _, _ = fix.lkt.PredictBestExpected(b, a) },
		"predictExpected on LkTSTP":  func() { _, _, _ = predictExpected(fix.lkt, &profileRec{obs: a}, &profileRec{obs: b}) },
		"MemoSTP hit":                func() { _, _, _ = memo.PredictBestExpected(a, b) },
		"MemoSTP hit, un-stamped":    func() { _, _, _ = memo.PredictBestExpected(raw[0], raw[1]) },
	} {
		f()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
	if h, m := memo.HitMiss(); m != 2 || h == 0 {
		t.Fatalf("memo: %d hits / %d misses, want 2 misses and every repeat a hit", h, m)
	}
}

// TestMemoRefillAfterClearZeroAlloc fills the id table to the cap, lets
// the next new pair clear it, and refills it: the table keeps its
// slots across the clear, so the refill allocates nothing.
func TestMemoRefillAfterClearZeroAlloc(t *testing.T) {
	memo := NewMemoSTP(constSTP{}, nil)
	a, b := Observation{id: 1}, Observation{}
	fill := func() {
		for i := 0; i < memoCap; i++ {
			b.id++
			_, _ = memo.PredictBest(a, b)
		}
	}
	fill()
	if memo.table.n != memoCap {
		t.Fatalf("full table holds %d entries, want %d", memo.table.n, memoCap)
	}
	if allocs := testing.AllocsPerRun(3, fill); allocs != 0 {
		t.Fatalf("refilling a cleared table allocates %.1f objects, want 0", allocs)
	}
	if h, m := memo.HitMiss(); memo.table.n != memoCap || h != 0 || m != 5*memoCap {
		t.Fatalf("refilled table holds %d entries after %d hits / %d misses", memo.table.n, h, m)
	}
}

// TestMemosSignedZeroAndNaN checks the memo keys un-stamped
// observations exactly as == does: vectors differing only in the sign
// of a zero share one key and hit each other, and a vector holding a
// NaN is never entered and never hits, not even itself. The class cache
// has no key to compare: a record is classified once, whatever its
// features hold.
func TestMemosSignedZeroAndNaN(t *testing.T) {
	fixture(t)
	a, b := obsOf(t, "wc", 5), obsOf(t, "st", 5)
	a.Features[perfctr.CPUSystem] = 0
	negA := a
	negA.Features[perfctr.CPUSystem] = math.Copysign(0, -1)
	nanA := a
	nanA.Features[perfctr.CtxSwitch] = math.NaN()

	memo := NewMemoSTP(fix.lkt, nil)
	for _, q := range [][2]Observation{{a, b}, {negA, b}, {nanA, b}, {nanA, b}} {
		if _, _, err := memo.PredictBestExpected(q[0], q[1]); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := memo.HitMiss(); h != 1 || m != 3 {
		t.Fatalf("memo: %d hits / %d misses, want 1/3 (±0 hits, NaN never)", h, m)
	}
	if memo.table.n != 1 || len(memo.local) != 2 {
		t.Fatalf("memo caches %d pairs over %d observations, want 1 over 2 (a NaN pair passes through)", memo.table.n, len(memo.local))
	}
	if stamped(nanA)[0].id != 0 {
		t.Fatal("a NaN-bearing observation was stamped")
	}

	s := newShard(new(eventQueue), new(memoTable[steadyKey, steadyVal]), fix.model, fix.db, fix.lkt, 1, 0)
	for _, o := range []Observation{a, negA, nanA} {
		rec := &profileRec{obs: o}
		want := fix.db.Classifier().Classify(o)
		if got := s.classOf(rec); got != want || rec.by != fix.db.classer.id || workloads.Class(rec.class) != want {
			t.Fatalf("classOf answered %v (cached %v by classifier %d), classifier %v", got, rec.class, rec.by, want)
		}
	}
}

// constSTP answers every pair with one fixed configuration; it stands
// in for a real technique where only the cache's bookkeeping matters.
type constSTP struct{}

func (constSTP) Name() string { return "const" }
func (constSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	return [2]mapreduce.Config{profilingConfig(), profilingConfig()}, nil
}

// TestMemoHitMissDeterministicPastCap feeds two fresh memos the same
// stream of more unique stamped pairs than the table holds
// (16 × 4096), so the table fills and clears, then re-queries a spread
// of early and late pairs. Which entries survive the clear, and so the
// hit count, is a function of the stream alone: the same for both
// memos, and exactly the late pairs the clear kept. The key array
// then holds exactly the pairs stored since the clear, one slot each.
func TestMemoHitMissDeterministicPastCap(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the memo table past the cap")
	}
	fixture(t)
	base := obsOf(t, "wc", 5)
	partner := stamped(obsOf(t, "st", 5))[0]
	const unique = memoCap + 5000
	recs := make([]Observation, unique)
	for i := range recs {
		o := &recs[i]
		*o = base
		o.SizeGB = float64(1 + i%20)
		o.Features[perfctr.IPC] = float64(i)
		o.stamp()
	}
	run := func() (memo *MemoSTP, hits, misses int64) {
		memo = NewMemoSTP(constSTP{}, nil)
		for i := 0; i < unique; i++ {
			_, _ = memo.PredictBest(recs[i], partner)
		}
		for i := 0; i < unique; i += 97 {
			_, _ = memo.PredictBest(recs[i], partner)
		}
		hits, misses = memo.HitMiss()
		return memo, hits, misses
	}
	memo, h1, m1 := run()
	_, h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("HitMiss differs between identical streams: %d/%d vs %d/%d", h1, m1, h2, m2)
	}
	// The clear at pair memoCap keeps pairs memoCap..unique-1.
	var wantH, wantM int64 = 0, unique
	for i := 0; i < unique; i += 97 {
		if i >= memoCap {
			wantH++
		} else {
			wantM++
		}
	}
	if h1 != wantH || m1 != wantM {
		t.Fatalf("HitMiss %d/%d, want %d/%d", h1, m1, wantH, wantM)
	}
	// The table then holds the late pairs and the early ones the
	// re-queries missed and stored again, each in one key slot.
	stored := map[int]bool{}
	for i := memoCap; i < unique; i++ {
		stored[i] = true
	}
	for i := 0; i < memoCap; i += 97 {
		stored[i] = true
	}
	if used := memo.table.inUse(); used != memo.table.n || memo.table.n != len(stored) {
		t.Fatalf("%d keys in use over %d entries, want %d entries", used, memo.table.n, len(stored))
	}
	for i := range stored {
		if memo.table.get(memoKey{recs[i].id, partner.id}) == nil {
			t.Fatalf("pair %d is not in the table", i)
		}
	}
}
