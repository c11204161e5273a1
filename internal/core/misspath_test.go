package core

import (
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
		d := ml.Euclid(x, c.scaled[i])
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
		if e.A.App.Name == na.App.Name && e.A.SizeGB == na.SizeGB &&
			e.B.App.Name == nb.App.Name && e.B.SizeGB == nb.SizeGB {
			return i, reverse
		}
		if e.A.App.Name == nb.App.Name && e.A.SizeGB == nb.SizeGB &&
			e.B.App.Name == na.App.Name && e.B.SizeGB == na.SizeGB {
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
	return PairBest{}, fmt.Errorf("core: lookup: no entry for %s/%s", na.App.Name, nb.App.Name)
}

func legacyObserve(m *mapreduce.Model, smp *perfctr.Sampler, app workloads.App, sizeGB float64) (Observation, error) {
	out, _, err := m.Solo(mapreduce.RunSpec{App: app, DataMB: sizeGB * 1024, Cfg: ProfilingConfig()})
	if err != nil {
		return Observation{}, fmt.Errorf("core: profile %s: %w", app.Name, err)
	}
	v := smp.MeasureAveraged(app.Profile, out.Telemetry(), ProfilingRuns)
	return Observation{App: app, SizeGB: sizeGB, Features: v}, nil
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
		t.Fatalf("%s@%v/%s@%v: error %v, legacy %v", a.App.Name, a.SizeGB, b.App.Name, b.SizeGB, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s@%v/%s@%v: LookupBest %+v, legacy %+v", a.App.Name, a.SizeGB, b.App.Name, b.SizeGB, got, want)
	}
	lkt := &LkTSTP{DB: db}
	cfg, exp, err := lkt.PredictBestExpected(a, b)
	if err != nil {
		return
	}
	if cfg != want.Cfg || exp != (PairExpectation{EDP: want.Out.EDP, TimeS: want.Out.Makespan, PowerW: want.Out.AvgPower}) {
		t.Fatalf("%s/%s: LkT %v %+v, legacy %v %+v", a.App.Name, b.App.Name, cfg, exp, want.Cfg, want.Out)
	}
	if cfg2, edp, _ := lkt.PredictBestEDP(a, b); cfg2 != cfg || edp != exp.EDP {
		t.Fatalf("%s/%s: PredictBestEDP %v %v, want %v %v", a.App.Name, b.App.Name, cfg2, edp, cfg, exp.EDP)
	}
	if cfg3, _ := lkt.PredictBest(a, b); cfg3 != cfg {
		t.Fatalf("%s/%s: PredictBest %v, want %v", a.App.Name, b.App.Name, cfg3, cfg)
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
			t.Fatalf("%s@%v: NearestKnown %s@%v, legacy %s@%v", o.App.Name, o.SizeGB, got.App.Name, got.SizeGB, want.App.Name, want.SizeGB)
		}
	}
}

// TestProfilerObserveMatchesLegacy checks the reused-scratch profiling
// run yields the legacy Observation sequence for the same seeds — on
// the noise-free model, on a noisy model (whose jitter draws must line
// up too), across a Model swap, and for a struct-literal Profiler.
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

// TestMissPathZeroAlloc pins the allocation-free miss path: after
// warm-up, classifying, nearest-known matching, an LkT prediction (in
// both slot orders, so the reversed-entry path is covered) and a memo
// hit allocate nothing.
func TestMissPathZeroAlloc(t *testing.T) {
	fixture(t)
	c := fix.db.Classifier()
	a, b := obsOf(t, "wc", 5), obsOf(t, "st", 1)
	memo := NewMemoSTP(fix.lkt, nil)
	if _, _, err := memo.PredictBestExpected(a, b); err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(){
		"Classifier.Classify":        func() { c.Classify(a) },
		"NearestKnown":               func() { c.NearestKnown(a) },
		"LkTSTP.PredictBestExpected": func() { _, _, _ = fix.lkt.PredictBestExpected(a, b) },
		"LkTSTP reversed":            func() { _, _, _ = fix.lkt.PredictBestExpected(b, a) },
		"MemoSTP hit":                func() { _, _, _ = memo.PredictBestExpected(a, b) },
	} {
		f()
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s allocates %.1f objects per call, want 0", name, allocs)
		}
	}
}

// TestMemoStaleFingerprintMisses plants an entry for a different pair
// under (a, b)'s fingerprint: the lookup must miss, return the inner
// technique's answer, and overwrite the entry so the next call hits.
func TestMemoStaleFingerprintMisses(t *testing.T) {
	fixture(t)
	memo := NewMemoSTP(fix.lkt, nil)
	a, b := obsOf(t, "wc", 5), obsOf(t, "st", 5)
	fp := pairFingerprint(&a, &b)
	sh := &memo.shards[fp&(memoShards-1)]
	stale := memoEntry{a: b, b: a, cfg: [2]mapreduce.Config{{Freq: 1.2, Block: 64, Mappers: 1}, {Freq: 1.2, Block: 64, Mappers: 1}}}
	sh.put(fp, stale)
	wantCfg, wantExp, err := fix.lkt.PredictBestExpected(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg, exp, err := memo.PredictBestExpected(a, b)
	if err != nil || cfg != wantCfg || exp != wantExp {
		t.Fatalf("stale fingerprint answered %v %+v %v, inner %v %+v", cfg, exp, err, wantCfg, wantExp)
	}
	if h, m := memo.HitMiss(); h != 0 || m != 1 {
		t.Fatalf("stale fingerprint: %d hits / %d misses, want 0/1", h, m)
	}
	if e := sh.slot(sh.idx[fp]); e.a != a || e.b != b || e.cfg != wantCfg || sh.n != 1 {
		t.Fatalf("stale entry not overwritten in place: %d entries, slot holds %s/%s", sh.n, e.a.App.Name, e.b.App.Name)
	}
	if cfg, _, _ := memo.PredictBestExpected(a, b); cfg != wantCfg {
		t.Fatalf("re-query answered %v, want %v", cfg, wantCfg)
	}
	if h, m := memo.HitMiss(); h != 1 || m != 1 {
		t.Fatalf("after re-query: %d hits / %d misses, want 1/1", h, m)
	}
}

// TestMemoRefillAfterClearZeroAlloc fills a memo shard to the cap, lets
// the next new key clear it, and refills it: the chunks and the index
// buckets survive the clear, so the refill allocates nothing.
func TestMemoRefillAfterClearZeroAlloc(t *testing.T) {
	var sh memoShard
	sh.idx = make(map[uint64]int32)
	key := uint64(0)
	fill := func() {
		for i := 0; i < memoShardCap; i++ {
			key++
			sh.put(key, memoEntry{})
		}
	}
	fill()
	if sh.n != memoShardCap || len(sh.chunks) != memoShardCap/memoChunk {
		t.Fatalf("full shard holds %d entries in %d chunks, want %d in %d", sh.n, len(sh.chunks), memoShardCap, memoShardCap/memoChunk)
	}
	if allocs := testing.AllocsPerRun(3, fill); allocs != 0 {
		t.Fatalf("refilling a cleared shard allocates %.1f objects, want 0", allocs)
	}
	if sh.n != memoShardCap || len(sh.idx) != memoShardCap || len(sh.chunks) != memoShardCap/memoChunk {
		t.Fatalf("refilled shard holds %d entries, %d keys, %d chunks", sh.n, len(sh.idx), len(sh.chunks))
	}
}

// TestMemosSignedZeroAndNaN checks the memo treats features exactly as
// == does: vectors differing only in the sign of a zero hit each other,
// and a vector holding a NaN never hits, not even itself. The class
// cache has no key to compare: a record is classified once, whatever
// its features hold.
func TestMemosSignedZeroAndNaN(t *testing.T) {
	fixture(t)
	a, b := obsOf(t, "wc", 5), obsOf(t, "st", 5)
	a.Features[perfctr.CPUSystem] = 0
	negA := a
	negA.Features[perfctr.CPUSystem] = math.Copysign(0, -1)
	if pairFingerprint(&a, &b) != pairFingerprint(&negA, &b) {
		t.Fatal("±0 vectors fingerprint differently")
	}
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

	s := newShard(new(eventQueue), fix.model, fix.db, fix.lkt, 1, 0)
	for _, o := range []Observation{a, negA, nanA} {
		rec := &profileRec{obs: o}
		want := fix.db.Classifier().Classify(o)
		if got := s.classOf(rec); got != want || !rec.classed || rec.class != want {
			t.Fatalf("classOf answered %v (cached %v, %v), classifier %v", got, rec.class, rec.classed, want)
		}
	}
}

// constSTP answers every pair with one fixed configuration; it stands
// in for a real technique where only the cache's bookkeeping matters.
type constSTP struct{}

func (constSTP) Name() string { return "const" }
func (constSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	return [2]mapreduce.Config{ProfilingConfig(), ProfilingConfig()}, nil
}

// TestMemoHitMissDeterministicPastCap feeds two fresh memos the same
// stream of more unique pairs than the shards hold (16 × 4096), so
// shards fill and clear, then re-queries a spread of early and late
// pairs. With a seedless fingerprint which entries survive the clears,
// and so the hit count, is the same every time; a randomly seeded shard
// hash made it vary from memo to memo.
func TestMemoHitMissDeterministicPastCap(t *testing.T) {
	if testing.Short() {
		t.Skip("fills 16 memo shards to the cap")
	}
	fixture(t)
	base := obsOf(t, "wc", 5)
	partner := obsOf(t, "st", 5)
	const unique = memoShards*memoShardCap + 5000
	pair := func(i int) Observation {
		o := base
		o.SizeGB = float64(1 + i%20)
		o.Features[perfctr.IPC] = float64(i)
		return o
	}
	run := func() (hits, misses int64) {
		memo := NewMemoSTP(constSTP{}, nil)
		for i := 0; i < unique; i++ {
			_, _ = memo.PredictBest(pair(i), partner)
		}
		for i := 0; i < unique; i += 97 {
			_, _ = memo.PredictBest(pair(i), partner)
		}
		return memo.HitMiss()
	}
	h1, m1 := run()
	h2, m2 := run()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("HitMiss differs between identical streams: %d/%d vs %d/%d", h1, m1, h2, m2)
	}
	if h1 == 0 || m1 <= unique {
		t.Fatalf("HitMiss %d/%d: want some re-queries evicted by clears and some still cached", h1, m1)
	}
}
