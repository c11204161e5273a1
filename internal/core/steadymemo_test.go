package core

import (
	"math"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/hdfs"
	"ecost/internal/mapreduce"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// TestSteadyMemoExact checks the steady memo against fresh solves over
// seeded random 1- and 2-resident sets: every answer reschedule reads —
// each resident's JobTime, MapTime and ReduceTime and the node's watts
// — equals Model.Steady bit for bit, on a hit as on a miss.
// Configurations come from the paper's grid and from off it (a
// frequency one ulp above a DVFS level, an unstudied block size, mapper
// counts out of range), where the memo must return the solver's error
// and cache nothing. Residents are drawn from router records with
// ProfileMemo off, so each job carries its own noisy profile, and a
// resident set is often re-drawn with fresh records so hits span
// records. Each seed runs past steadyMemoCap, so the memo clears.
//
// Two (app, size) pairs run under spec ids at the edge of the key's
// 24-bit field: 2^24−1, which fits and is cached, and 2^24, which does
// not, so every set holding it is solved afresh and caches nothing.
//
// The spec ids are checked on the way: records of one (app, size)
// share an id, different (app, size) pairs never do, and a pair first
// seen after a memo clear gets an id no earlier pair had.
func TestSteadyMemoExact(t *testing.T) {
	fixture(t)
	apps := workloads.Training()
	sizes := []float64{1, 2.5, 5}
	cores := fix.model.Spec.Cores
	solo := mapreduce.AllConfigs(cores)
	pairs := mapreduce.PairConfigsCached(cores)
	offGrid := []mapreduce.Config{
		{Freq: cluster.FreqGHz(math.Nextafter(float64(cluster.Freq1200), 2)), Block: hdfs.Block64, Mappers: 2},
		{Freq: cluster.Freq1600, Block: 100, Mappers: 2},
		{Freq: cluster.Freq2000, Block: hdfs.Block256, Mappers: cores + 1},
		{Freq: cluster.Freq2400, Block: hdfs.Block128, Mappers: 0},
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := sim.NewRNG(seed)
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(seed)),
			func() STP { return fix.lkt }, 1, ShardedConfig{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := c.shards[0]
		wide := map[profileKey]int{
			{apps[0].Name, sizes[0]}: 1<<24 - 1,
			{apps[1].Name, sizes[1]}: 1 << 24,
		}
		specOf := map[profileKey]int{}
		keyOf := map[int]profileKey{}
		maxSpec := 0
		cleared := false
		job := func(op int, app workloads.App, size float64) *Job {
			rec, err := c.profile(app, size)
			if err != nil {
				t.Fatalf("seed %d op %d: profile: %v", seed, op, err)
			}
			k := profileKey{app.Name, size}
			if id, ok := specOf[k]; ok && id != rec.spec {
				t.Fatalf("seed %d op %d: %s@%g got spec %d, earlier record had %d", seed, op, app.Name, size, rec.spec, id)
			}
			if prev, ok := keyOf[rec.spec]; ok && prev != k {
				t.Fatalf("seed %d op %d: spec %d names both %v and %v", seed, op, rec.spec, prev, k)
			}
			if _, ok := specOf[k]; !ok {
				if rec.spec <= maxSpec {
					t.Fatalf("seed %d op %d: new pair %v got spec %d, at or below earlier id %d (cleared=%v)", seed, op, k, rec.spec, maxSpec, cleared)
				}
				maxSpec = rec.spec
			}
			specOf[k], keyOf[rec.spec] = rec.spec, k
			if id, ok := wide[k]; ok {
				r := *rec
				r.spec = id
				rec = &r
			}
			return &Job{Obs: rec.obs, rec: rec}
		}
		var history [][]*onlineJob
		var hits, misses, errs, wideHits, unfit int
		for op := 0; op < 3*steadyMemoCap; op++ {
			var res []*onlineJob
			if len(history) > 0 && rng.Intn(4) == 0 {
				// Re-draw an earlier set with fresh records of the same
				// (app, size) pairs and the same configurations.
				for _, r := range history[rng.Intn(len(history))] {
					j := job(op, r.job.Obs.App, r.job.Obs.SizeGB)
					res = append(res, resident(j, r.cfg))
				}
			} else {
				n := 1 + rng.Intn(maxPerNode)
				var cfgs []mapreduce.Config
				switch {
				case rng.Intn(8) == 0:
					cfgs = []mapreduce.Config{offGrid[rng.Intn(len(offGrid))], pairs[rng.Intn(len(pairs))][1]}
				case n == 1:
					cfgs = []mapreduce.Config{solo[rng.Intn(len(solo))]}
				default:
					p := pairs[rng.Intn(len(pairs))]
					cfgs = p[:]
				}
				for i := 0; i < n; i++ {
					j := job(op, apps[rng.Intn(len(apps))], sizes[rng.Intn(len(sizes))])
					res = append(res, resident(j, cfgs[i]))
				}
			}
			// A pair first seen now, possibly after a clear, must get a
			// fresh id.
			if rng.Intn(50) == 0 {
				job(op, apps[rng.Intn(len(apps))], 6+float64(op))
			}
			specs := make([]mapreduce.RunSpec, len(res))
			for i, r := range res {
				specs[i] = mapreduce.RunSpec{App: r.job.Obs.App, DataMB: r.job.Obs.SizeGB * 1024, Cfg: r.cfg}
			}
			want, wantW, wantErr := fix.model.Steady(specs)
			before := s.steadyMemo.n
			k, fits := steadyKeyOf(res)
			hit := fits && s.steadyMemo.get(k) != nil
			got, err := s.steady(&onlineNode{residents: res})
			if (err != nil) != (wantErr != nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("seed %d op %d: memo error %v, fresh solve %v", seed, op, err, wantErr)
			}
			if err != nil {
				if s.steadyMemo.n != before {
					t.Fatalf("seed %d op %d: a failed solve changed the memo from %d to %d entries", seed, op, before, s.steadyMemo.n)
				}
				errs++
				continue
			}
			if s.steadyMemo.n < before {
				cleared = true
			}
			wideSpec := false
			for _, r := range res {
				wideSpec = wideSpec || r.job.rec.spec == 1<<24-1
			}
			switch {
			case !fits:
				if s.steadyMemo.n != before {
					t.Fatalf("seed %d op %d: a set that does not fit a key changed the memo from %d to %d entries", seed, op, before, s.steadyMemo.n)
				}
				unfit++
			case hit:
				hits++
				if wideSpec {
					wideHits++
				}
			default:
				misses++
			}
			for i, st := range want {
				g := got.res[i]
				if math.Float64bits(g.job) != math.Float64bits(st.JobTime) ||
					math.Float64bits(g.mapT) != math.Float64bits(st.MapTime) ||
					math.Float64bits(g.reduce) != math.Float64bits(st.ReduceTime) {
					t.Fatalf("seed %d op %d (hit=%v): resident %d memo times %+v, fresh %+v", seed, op, hit, i, g, st)
				}
			}
			if math.Float64bits(got.watts) != math.Float64bits(wantW) {
				t.Fatalf("seed %d op %d (hit=%v): memo watts %v, fresh %v", seed, op, hit, got.watts, wantW)
			}
			history = append(history, res)
		}
		if hits == 0 || misses == 0 || errs == 0 || !cleared || wideHits == 0 || unfit == 0 {
			t.Fatalf("seed %d: %d hits (%d at spec 2^24−1), %d misses, %d errors, %d unfit sets, cleared=%v — want every case exercised",
				seed, hits, wideHits, misses, errs, unfit, cleared)
		}
	}
}

// TestSteadyTableRefillZeroAlloc fills the steady memo to the cap
// through the shard's solve path, lets the next new resident set clear
// it, and refills it: the table keeps its slots across the clear, so
// the refill allocates nothing. After the first fill and after the
// last refill the table holds exactly that fill's sets, in as many
// slots as it counts: nothing from before a clear survives it.
func TestSteadyTableRefillZeroAlloc(t *testing.T) {
	s := newShard(nil, mapreduce.NewModel(cluster.AtomC2758()), nil, nil, 1, 0)
	rec := &profileRec{obs: Observation{App: workloads.MustByName("wc"), SizeGB: 1}}
	r := resident(&Job{Obs: rec.obs, rec: rec}, ProfilingConfig())
	node := &onlineNode{residents: []*onlineJob{r}}
	fill := func() {
		for i := 0; i < steadyMemoCap; i++ {
			rec.spec++
			r.setCfg(r.cfg)
			if _, err := s.steady(node); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(first int) {
		t.Helper()
		if s.steadyMemo.n != steadyMemoCap {
			t.Fatalf("full table holds %d entries, want %d", s.steadyMemo.n, steadyMemoCap)
		}
		if used := s.steadyMemo.inUse(); used != s.steadyMemo.n {
			t.Fatalf("%d slots in use for %d entries", used, s.steadyMemo.n)
		}
		for spec := 1; spec <= rec.spec; spec++ {
			r := profileRec{spec: spec}
			k, _ := steadyKeyOf([]*onlineJob{resident(&Job{rec: &r}, ProfilingConfig())})
			if got := s.steadyMemo.get(k) != nil; got != (spec >= first) {
				t.Fatalf("spec %d cached=%v, want %v (the refill holds specs %d..%d)", spec, got, !got, first, rec.spec)
			}
		}
	}
	fill()
	check(1)
	slots := s.steadyMemo.slots()
	if allocs := testing.AllocsPerRun(3, fill); allocs != 0 {
		t.Fatalf("refilling a cleared table allocates %.1f objects, want 0", allocs)
	}
	check(rec.spec - steadyMemoCap + 1)
	if s.steadyMemo.slots() != slots {
		t.Fatalf("refills resized the table from %d to %d slots", slots, s.steadyMemo.slots())
	}
}

// inUse counts the table's slots holding a key.
func (t *memoTable[K, V]) inUse() int {
	var empty K
	n := 0
	for i := 0; i < t.slots(); i++ {
		if *t.key(i) != empty {
			n++
		}
	}
	return n
}

// resident is a resident running j at cfg, its steady-key half set as
// place sets it.
func resident(j *Job, cfg mapreduce.Config) *onlineJob {
	r := &onlineJob{job: j}
	r.setCfg(cfg)
	return r
}

// TestSpecIDsUnderProfileMemo checks that under ProfileMemo the spec id
// is the (app, size) record's own: one record, so one id, per pair,
// and distinct pairs hold distinct ids.
func TestSpecIDsUnderProfileMemo(t *testing.T) {
	fixture(t)
	c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(1)),
		func() STP { return fix.lkt }, 1, ShardedConfig{Shards: 1, ProfileMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]*profileRec{}
	for round := 0; round < 2; round++ {
		for _, app := range workloads.Training() {
			for _, size := range []float64{1, 5} {
				rec, err := c.profile(app, size)
				if err != nil {
					t.Fatal(err)
				}
				if prev, ok := seen[rec.spec]; ok && prev != rec {
					t.Fatalf("spec %d names two records (%s@%g and %s@%g)", rec.spec, prev.obs.App.Name, prev.obs.SizeGB, app.Name, size)
				}
				seen[rec.spec] = rec
			}
		}
	}
	if want := 2 * len(workloads.Training()); len(seen) != want || c.specs != want {
		t.Fatalf("%d spec ids over %d handed out, want %d", len(seen), c.specs, want)
	}
}
