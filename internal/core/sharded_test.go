package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/power"
	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// shardedResult captures every externally observable artifact of one
// fully instrumented sharded run: per-shard exports concatenated in
// shard order (the deterministic merge order the CLI uses too).
type shardedResult struct {
	makespan, energy uint64 // float bits
	perShard         []equivResult
	steals           int
	completed        int

	// stats is how the run drove its shards (barriers vs windows). Not
	// part of export equality — the elision property tests read it to
	// prove both cadences were actually exercised.
	stats BarrierStats

	// sched and trace are the run's control plane and span tracer, for
	// tests that inspect more than the exports above.
	sched *ShardedScheduler
	trace *tracing.Tracer
}

// runSharded drives one fully instrumented sharded run. submit feeds
// the stream; the control plane gets one registry, one audit log and
// one tracer (the CLI path), and every shard's tuner is LkT behind
// MemoSTP — the chain testdata/ws4_online.golden pins at one shard.
func runSharded(t *testing.T, nodes int, cfg ShardedConfig, submit func(c *ShardedScheduler)) shardedResult {
	return runShardedMode(t, nodes, cfg, false, submit)
}

// runShardedMode is runSharded with the drive cadence explicit: full
// true drives every event time as a barrier (driveFullBarriers) — the
// full cadence the elision goldens diff against.
func runShardedMode(t *testing.T, nodes int, cfg ShardedConfig, full bool, submit func(c *ShardedScheduler)) shardedResult {
	t.Helper()
	fixture(t)
	prof := NewProfiler(fix.model, sim.NewRNG(99))
	c, err := NewShardedScheduler(fix.model, fix.db, prof,
		func() STP { return NewMemoSTP(fix.lkt, nil) }, nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.SetMetrics(reg)
	ts := tracing.New()
	c.SetTracer(ts)
	aud := audit.NewLog(audit.DriftConfig{})
	c.SetAudit(aud)
	submit(c)
	if full {
		driveFullBarriers(c)
	}
	mk, en, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	out := shardedResult{
		makespan:  math.Float64bits(mk),
		energy:    math.Float64bits(en),
		steals:    c.Steals(),
		completed: len(c.Completed()),
		stats:     c.BarrierStats(),
		sched:     c,
		trace:     ts,
	}
	all := reg.Snapshot(false)
	for i := 0; i < cfg.Shards; i++ {
		var snap, tl, dec bytes.Buffer
		if err := all.Shard(i).WriteText(&snap); err != nil {
			t.Fatal(err)
		}
		if err := tracing.WriteTimeline(&tl, shardSpans(ts, i)); err != nil {
			t.Fatal(err)
		}
		if err := aud.Shard(i).WriteJSONL(&dec); err != nil {
			t.Fatal(err)
		}
		out.perShard = append(out.perShard, equivResult{
			snapshot:  snap.String(),
			timeline:  tl.String(),
			decisions: dec.String(),
		})
	}
	return out
}

// submitWS4 feeds the equivRun stream: the WS4 scenario, one job every
// 40 s.
func submitWS4(t *testing.T) func(c *ShardedScheduler) {
	wl, err := Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	return func(c *ShardedScheduler) {
		for i, j := range wl.Jobs {
			c.Submit(j.App, j.SizeGB, float64(i)*40)
		}
	}
}

// TestShardedSingleShardEquivalence: a 1-shard run reproduces the
// unsharded reference in testdata/ws4_online.golden byte for byte —
// makespan and energy bits, metrics snapshot, span timeline, decision
// JSONL — under every control-plane setting that has no effect with a
// single shard: the steal pass (no neighbor to claim from) and the full
// barrier cadence, at GOMAXPROCS 1 and 4.
// The router profiles serially at submission instead of inside arrival
// events, so this also proves the profiling-order contract
// (nondecreasing arrivals ⇒ identical sampler draws) on every path.
func TestShardedSingleShardEquivalence(t *testing.T) {
	want, err := os.ReadFile("testdata/ws4_online.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  ShardedConfig
		full bool
	}{
		{"steal", ShardedConfig{Shards: 1, Steal: true}, false},
		{"full", ShardedConfig{Shards: 1}, true},
		{"steal+full", ShardedConfig{Shards: 1, Steal: true}, true},
	} {
		for _, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			r := runShardedMode(t, 2, tc.cfg, tc.full, submitWS4(t))
			runtime.GOMAXPROCS(old)
			if r.steals != 0 {
				t.Fatalf("%s GOMAXPROCS=%d: a lone shard stole %d jobs", tc.name, procs, r.steals)
			}
			out := r.perShard[0]
			out.makespan, out.energy = r.makespan, r.energy
			if got := out.encode(); !bytes.Equal(got, want) {
				t.Fatalf("%s GOMAXPROCS=%d: run diverged from testdata/ws4_online.golden:\n%s", tc.name, procs, firstDiff(got, want))
			}
		}
	}
}

// shardedExportsEqual compares two instrumented runs artifact by
// artifact.
func shardedExportsEqual(t *testing.T, label string, a, b shardedResult) {
	t.Helper()
	if a.makespan != b.makespan || a.energy != b.energy || a.steals != b.steals || a.completed != b.completed {
		t.Fatalf("%s: scalar divergence: makespan %x/%x energy %x/%x steals %d/%d completed %d/%d",
			label, a.makespan, b.makespan, a.energy, b.energy, a.steals, b.steals, a.completed, b.completed)
	}
	if a.stats != b.stats {
		t.Fatalf("%s: drive cadence diverged: %+v vs %+v", label, a.stats, b.stats)
	}
	for i := range a.perShard {
		if a.perShard[i] != b.perShard[i] {
			t.Fatalf("%s: shard %d exports diverged", label, i)
		}
	}
}

// skewedStream sends `jobs` copies of one application, which all hash
// to a single home shard — the adversarial input for work stealing.
func skewedStream(t *testing.T, jobs int, gap float64) func(c *ShardedScheduler) {
	app := workloads.MustLookup("wc")
	return func(c *ShardedScheduler) {
		for i := 0; i < jobs; i++ {
			c.Submit(app, 5, float64(i)*gap)
		}
	}
}

// TestShardedGOMAXPROCSInvariance proves the one-engine drive makes
// every export a pure function of the stream at any GOMAXPROCS — with
// stealing off (balanced WS4 stream) and on (skewed single-tenant
// stream, where the steal pass must actually fire) — and that so is the
// allocation count of a sink-free run.
func TestShardedGOMAXPROCSInvariance(t *testing.T) {
	cases := []struct {
		name   string
		cfg    ShardedConfig
		stream func(c *ShardedScheduler)
		steals bool
	}{
		{"steal-off", ShardedConfig{Shards: 4}, submitWS4(t), false},
		{"steal-on", ShardedConfig{Shards: 4, Steal: true}, skewedStream(t, 48, 10), true},
	}
	for _, tc := range cases {
		var base shardedResult
		for i, procs := range []int{1, 4} {
			old := runtime.GOMAXPROCS(procs)
			got := runSharded(t, 8, tc.cfg, tc.stream)
			runtime.GOMAXPROCS(old)
			if tc.steals && got.steals == 0 {
				t.Fatalf("%s: steal pass never fired — the invariance case is vacuous", tc.name)
			}
			if i == 0 {
				base = got
				continue
			}
			shardedExportsEqual(t, tc.name, base, got)
		}
	}

	// Mallocs around Run on the benchmarks' sink-free stream (steal on,
	// ProfileMemo), after one warm-up run has built the
	// shared lazy caches. The runtime counts its own bookkeeping (an OS
	// thread started for a GC worker, a per-P timer heap growing) as
	// heap objects at unpredictable moments, so the collector is off
	// while Run is measured and each side keeps its least of three runs:
	// runtime noise only ever adds.
	runMallocs := func() uint64 {
		c := newBenchSharded(t, 256, 2000, 16, 1536.0/256)
		var before, after runtime.MemStats
		gc := debug.SetGCPercent(-1)
		runtime.ReadMemStats(&before)
		_, _, err := c.Run()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		return after.Mallocs - before.Mallocs
	}
	runMallocs()
	var mallocs [2]uint64
	for i, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		mallocs[i] = min(runMallocs(), runMallocs(), runMallocs())
		runtime.GOMAXPROCS(old)
	}
	if mallocs[0] != mallocs[1] {
		t.Fatalf("Run allocated %d objects at GOMAXPROCS 1 but %d at 4", mallocs[0], mallocs[1])
	}
}

// panicSTP is a tuner whose every pair prediction panics.
type panicSTP struct{}

func (panicSTP) Name() string { return "panic" }

func (panicSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	panic("panicSTP: pair prediction")
}

// TestShardedRunRecoversShardPanic: a panic inside a shard event — the
// pair tune of a shard other than 0 — comes back as Run's error,
// carrying the panic value, instead of crashing the process.
func TestShardedRunRecoversShardPanic(t *testing.T) {
	fixture(t)
	const shards = 4
	var app workloads.ID
	bad := 0
	for _, a := range workloads.TrainingIDs() {
		if bad = routeShard(a.Name(), shards); bad != 0 {
			app = a
			break
		}
	}
	if bad == 0 {
		t.Fatal("every training app routes to shard 0")
	}
	built := 0
	newTuner := func() STP {
		built++
		if built-1 == bad {
			return panicSTP{}
		}
		return NewMemoSTP(fix.lkt, nil)
	}
	c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(99)),
		newTuner, 8, ShardedConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	// Four same-tenant jobs at once on a two-node shard: the second one
	// lands beside a resident, so the shard pair-tunes.
	for i := 0; i < 4; i++ {
		c.Submit(app, 5, 0)
	}
	_, _, err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "panicSTP: pair prediction") {
		t.Fatalf("Run error = %v, want the shard %d panic value", err, bad)
	}
}

// TestShardedRunRecoversFinisherPanic: a panic on Run's finishing
// helper (DESIGN.md §45) — here a profiler without a sampler, which
// Submit's solve never reads and the helper's noise does — comes back
// as Run's error, raised in the drive at the first arrival it waits
// for, instead of crashing the process or leaving the drive waiting.
// Nothing is delivered.
func TestShardedRunRecoversFinisherPanic(t *testing.T) {
	fixture(t)
	c, err := NewShardedScheduler(fix.model, fix.db, &Profiler{Model: fix.model},
		func() STP { return NewMemoSTP(fix.lkt, nil) }, 8, ShardedConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		c.Submit(workloads.MustLookup("wc"), 5, float64(i))
	}
	if c.err != nil {
		t.Fatal(c.err)
	}
	_, _, err = c.Run()
	if err == nil || !strings.Contains(err.Error(), "record finisher") {
		t.Fatalf("Run error = %v, want the finisher's panic", err)
	}
	if n := len(c.Completed()); n != 0 {
		t.Fatalf("Run completed %d jobs after the finisher panicked", n)
	}
}

// offGridSTP answers every pair with a frequency no DVFS level has, so
// the steady solve that follows rejects the resident's configuration.
type offGridSTP struct{}

func (offGridSTP) Name() string { return "off-grid" }

func (offGridSTP) cfg() mapreduce.Config { return mapreduce.Config{Freq: 1.7, Block: 128, Mappers: 2} }

func (s offGridSTP) PredictBest(a, b Observation) ([2]mapreduce.Config, error) {
	return [2]mapreduce.Config{s.cfg(), s.cfg()}, nil
}

// TestShardedRunReturnsEventError: an error an event hits — here the
// steady solve's validation of a pair-tuned configuration — stops the
// drive, and Run returns that error wrapped, so the chain reaches it,
// where a recovered panic would carry only its text.
func TestShardedRunReturnsEventError(t *testing.T) {
	fixture(t)
	c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(99)),
		func() STP { return offGridSTP{} }, 1, ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the second job pair-tunes beside the first
		c.Submit(workloads.MustLookup("wc"), 5, float64(i))
	}
	_, _, err = c.Run()
	want := offGridSTP{}.cfg().Validate(fix.model.Spec.Cores)
	if cause := errors.Unwrap(err); cause == nil || cause.Error() != want.Error() {
		t.Fatalf("Run error = %v (cause %v), want the steady solve's %q wrapped", err, cause, want)
	}
	if !strings.HasPrefix(err.Error(), "core: sharded scheduler: mapreduce: config") {
		t.Fatalf("Run error = %q", err)
	}
	if done := c.Completed(); len(done) != 0 {
		t.Fatalf("the drive went on past the failed event: %d completions", len(done))
	}
}

// TestShardedShardCountInvariance is the global golden: for a
// steal-free, temporally non-overlapping stream (every job finishes
// before the next arrives, so pairing and queueing never couple jobs),
// the makespan is bit-identical at every shard count and the energy
// agrees to 1e-9 relative (per-shard summation reassociates the float
// adds). Overlapping streams do diverge across shard counts — routing
// changes who pairs with whom — which is why the contract is scoped to
// steal-free, non-interacting runs (DESIGN.md §14).
func TestShardedShardCountInvariance(t *testing.T) {
	fixture(t)
	wl, err := Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	const nodes, jobs = 16, 12
	const gap = 5e4 // comfortably above any solo 5 GB runtime
	type runOut struct {
		mk     uint64
		en     float64
		phases [3]float64
		comp   []CompletedJob
	}
	var runs []runOut
	for _, shards := range []int{1, 2, 4, 8, 16} {
		prof := NewProfiler(fix.model, sim.NewRNG(99))
		c, err := NewShardedScheduler(fix.model, fix.db, prof,
			func() STP { return NewMemoSTP(fix.lkt, nil) }, nodes, ShardedConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < jobs; i++ {
			j := wl.Jobs[i%len(wl.Jobs)]
			c.Submit(j.App, j.SizeGB, float64(i)*gap)
		}
		mk, en, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		p := c.Phases()
		runs = append(runs, runOut{
			mk:     math.Float64bits(mk),
			en:     en,
			phases: [3]float64{p.IdleJ, p.SoloJ, p.CoJ},
			comp:   c.Completed(),
		})
	}
	// The premise: jobs must not overlap in time, or the contract does
	// not apply. Verified on the 1-shard run.
	comp := append([]CompletedJob(nil), runs[0].comp...)
	sort.Slice(comp, func(i, j int) bool { return comp[i].Started < comp[j].Started })
	for i := 1; i < len(comp); i++ {
		if comp[i].Started < comp[i-1].Finished {
			t.Fatalf("stream not temporally disjoint: job %d starts %.0f before job %d finishes %.0f — widen gap",
				comp[i].ID, comp[i].Started, comp[i-1].ID, comp[i-1].Finished)
		}
	}
	relDiff := func(a, b float64) float64 {
		if a == b {
			return 0
		}
		return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].mk != runs[0].mk {
			t.Fatalf("makespan diverged across shard counts: %x (S variant %d) != %x (S=1)", runs[i].mk, i, runs[0].mk)
		}
		if d := relDiff(runs[i].en, runs[0].en); d > 1e-9 {
			t.Fatalf("energy diverged across shard counts: rel %g (%.6f vs %.6f)", d, runs[i].en, runs[0].en)
		}
		for p := 0; p < 3; p++ {
			if d := relDiff(runs[i].phases[p], runs[0].phases[p]); d > 1e-9 {
				t.Fatalf("phase %d energy diverged: rel %g", p, d)
			}
		}
		if len(runs[i].comp) != jobs {
			t.Fatalf("variant %d completed %d jobs, want %d", i, len(runs[i].comp), jobs)
		}
		// Same jobs finish at the same times (node ids legitimately
		// differ — routing owns placement).
		for k := range runs[i].comp {
			a, b := runs[i].comp[k], runs[0].comp[k]
			if a.ID != b.ID || math.Float64bits(a.Finished) != math.Float64bits(b.Finished) {
				t.Fatalf("variant %d: completion %d = job %d @%v, S=1 has job %d @%v",
					i, k, a.ID, a.Finished, b.ID, b.Finished)
			}
		}
	}
}

// TestShardedStealEffectiveness documents both halves of the stealing
// contract on a skewed single-tenant stream: with stealing on, starved
// shards absorb the overload (strictly smaller makespan than steal-off,
// all jobs complete) — and the moment steals fire, the run diverges
// from the steal-free golden (the bounded-divergence caveat in
// DESIGN.md §14). Two steal-on runs must still be identical to each
// other: steals are a function of sim time, not goroutine timing.
func TestShardedStealEffectiveness(t *testing.T) {
	fixture(t)
	const nodes, jobs = 8, 48
	run := func(steal bool) (float64, float64, int) {
		prof := NewProfiler(fix.model, sim.NewRNG(99))
		c, err := NewShardedScheduler(fix.model, fix.db, prof,
			func() STP { return NewMemoSTP(fix.lkt, nil) }, nodes,
			ShardedConfig{Shards: 4, Steal: steal})
		if err != nil {
			t.Fatal(err)
		}
		skewedStream(t, jobs, 10)(c)
		mk, en, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(c.Completed()); got != jobs {
			t.Fatalf("steal=%v: completed %d, want %d", steal, got, jobs)
		}
		return mk, en, c.Steals()
	}
	mkOff, _, stealsOff := run(false)
	mkOn, _, stealsOn := run(true)
	mkOn2, _, stealsOn2 := run(true)
	if stealsOff != 0 {
		t.Fatalf("steal-off run recorded %d steals", stealsOff)
	}
	if stealsOn == 0 {
		t.Fatal("skewed stream never triggered a steal")
	}
	if mkOn >= mkOff {
		t.Fatalf("stealing did not help: makespan %v (on) vs %v (off)", mkOn, mkOff)
	}
	if math.Float64bits(mkOn) == math.Float64bits(mkOff) {
		t.Fatal("steal-on run identical to steal-off — divergence documentation is vacuous")
	}
	if math.Float64bits(mkOn) != math.Float64bits(mkOn2) || stealsOn != stealsOn2 {
		t.Fatalf("steal-on runs nondeterministic: makespan %v/%v steals %d/%d", mkOn, mkOn2, stealsOn, stealsOn2)
	}
	t.Logf("skewed stream: makespan %.0f s (steal off) → %.0f s (steal on, %d steals)", mkOff, mkOn, stealsOn)
}

// TestAccrualMatchesNodeWalk checks the shard's phase-sum accrual
// against the observer's per-node bills, the reference since the walk
// over every node left the shard (DESIGN.md §36). With a tracer
// attached, each node's occupancy span carries that node's draw times
// the span's length, billed once (DESIGN.md §39), and named by its
// phase; summed by phase, the spans must match Phases() and EnergyJ()
// within 1e-9 relative, the reassociation tolerance. Every idle span
// must carry IdlePower() × (End − Start) bit for bit: one write per
// span. The nodes idle at 15.3 W, not the Atom's 16 W, whose power of
// two would scale a sum of per-event pieces exactly. It runs the 400-job
// WS4 stream on 64 nodes under one shard and under 16 stealing shards,
// and checks that a traced and audited run bills bit-identically to a
// bare one, and that an audited run without a tracer (ecost-sim's
// -quality-report) records bit-identical per-job energy.
func TestAccrualMatchesNodeWalk(t *testing.T) {
	fixture(t)
	wl, err := Scenario("WS4")
	if err != nil {
		t.Fatal(err)
	}
	spec := fix.model.Spec
	spec.IdleWatts = 15.3
	model := mapreduce.NewModel(spec)
	run := func(cfg ShardedConfig, tr *tracing.Tracer, aud *audit.Log) *ShardedScheduler {
		c, err := NewShardedScheduler(model, fix.db, NewProfiler(fix.model, sim.NewRNG(17)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 64, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.SetTracer(tr)
		c.SetAudit(aud)
		rng := sim.NewRNG(18)
		at := 0.0
		for i := 0; i < 400; i++ {
			j := wl.Jobs[i%len(wl.Jobs)]
			c.Submit(j.App, j.SizeGB, at)
			at += rng.Exp(20)
		}
		if _, _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, cfg := range []ShardedConfig{{Shards: 1}, {Shards: 16, Steal: true}} {
		tr, aud := tracing.New(), audit.NewLog(audit.DriftConfig{})
		c := run(cfg, tr, aud)
		if cfg.Steal && c.Steals() == 0 {
			t.Fatalf("%d shards: no steal fired", cfg.Shards)
		}
		var walk power.PhaseAccumulator
		idle := 0
		for _, sp := range tr.Spans() {
			if sp.Kind != tracing.KindNode {
				continue
			}
			if !walk.AddNamed(sp.Name, sp.EnergyJ) {
				t.Fatalf("node span %d has no phase name: %q", sp.ID, sp.Name)
			}
			if sp.Name != power.PhaseName(0) {
				continue
			}
			idle++
			if want := model.IdlePower() * (sp.End - sp.Start); math.Float64bits(sp.EnergyJ) != math.Float64bits(want) {
				t.Fatalf("%d shards: idle span %d over [%v, %v] carries %v J, want IdlePower × length = %v J",
					cfg.Shards, sp.ID, sp.Start, sp.End, sp.EnergyJ, want)
			}
		}
		if idle == 0 {
			t.Fatalf("%d shards: no idle occupancy span", cfg.Shards)
		}
		ph := c.Phases()
		for _, p := range []struct {
			name      string
			walk, got float64
		}{
			{"idle", walk.IdleJ, ph.IdleJ},
			{"solo", walk.SoloJ, ph.SoloJ},
			{"co-located", walk.CoJ, ph.CoJ},
			{"total", walk.TotalJ(), c.EnergyJ()},
		} {
			if p.walk <= 0 {
				t.Fatalf("%d shards: the node spans billed no %s energy", cfg.Shards, p.name)
			}
			if e := relErr(p.got, p.walk); e > 1e-9 {
				t.Errorf("%d shards: %s energy %v, node spans %v (rel %.2e)", cfg.Shards, p.name, p.got, p.walk, e)
			}
		}
		// The observer bills apart and never writes the shard's bill, so
		// a bare run bills bit-identically.
		bare := run(cfg, nil, nil)
		if math.Float64bits(bare.EnergyJ()) != math.Float64bits(c.EnergyJ()) || bare.Phases() != ph {
			t.Errorf("%d shards: observed run billed %v %+v, bare %v %+v",
				cfg.Shards, c.EnergyJ(), ph, bare.EnergyJ(), bare.Phases())
		}
		if a, b := bare.Completed(), c.Completed(); !slices.Equal(a, b) {
			t.Errorf("%d shards: observed run's completions differ from the bare run's", cfg.Shards)
		}
		// Without a tracer the audit takes the same shares.
		audOnly := audit.NewLog(audit.DriftConfig{})
		run(cfg, nil, audOnly)
		for i := 0; i < cfg.Shards; i++ {
			want, got := aud.Shard(i).Decisions(), audOnly.Shard(i).Decisions()
			if len(got) != len(want) {
				t.Fatalf("%d shards: shard %d audit-only run recorded %d decisions, traced run %d", cfg.Shards, i, len(got), len(want))
			}
			for k := range want {
				if math.Float64bits(got[k].EnergyJ) != math.Float64bits(want[k].EnergyJ) {
					t.Errorf("%d shards: job %d audit-only energy %v, traced %v", cfg.Shards, want[k].Job, got[k].EnergyJ, want[k].EnergyJ)
				}
			}
		}
	}
}

// TestCompletedAllocatesNothing checks that Completed on a drained
// plane allocates nothing: the log is already in order and is the
// result, so Completed only clips it.
func TestCompletedAllocatesNothing(t *testing.T) {
	fixture(t)
	c := oneShard(t, NewMemoSTP(fix.lkt, nil), NewProfiler(fix.model, sim.NewRNG(17)), 4)
	submitWS4(t)(c)
	if _, _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.Completed()) == 0 {
		t.Fatal("no job completed")
	}
	if allocs := testing.AllocsPerRun(20, func() { c.Completed() }); allocs != 0 {
		t.Fatalf("Completed allocates %v times per call; want 0", allocs)
	}
}

// TestRouteShardDeterministic pins the routing hash's properties: it is
// stable call to call, lands in range, and spreads the training tenants
// across shards rather than collapsing onto one.
func TestRouteShardDeterministic(t *testing.T) {
	seen := map[int]bool{}
	for _, app := range workloads.TrainingIDs() {
		s := routeShard(app.Name(), 4)
		if s < 0 || s >= 4 {
			t.Fatalf("routeShard(%q, 4) = %d out of range", app.Name(), s)
		}
		if s2 := routeShard(app.Name(), 4); s2 != s {
			t.Fatalf("routeShard(%q, 4) unstable: %d then %d", app.Name(), s, s2)
		}
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all training tenants routed to one shard: %v", seen)
	}
}

// TestShardedSubmitBadInput: a job the profiler rejects and an
// out-of-order arrival are caller errors, not panics. Submit keeps the
// first one, ignores every later submission, and Run returns it naming
// the cause without driving anything. A NaN, infinite or 1e300-GB size
// gives a profiling run of no finite length, which the solve Submit
// keeps rejects.
func TestShardedSubmitBadInput(t *testing.T) {
	fixture(t)
	app := workloads.MustLookup("wc")
	type submitCase struct {
		name   string
		submit func(c *ShardedScheduler)
		want   string
	}
	cases := []submitCase{
		{"negative size", func(c *ShardedScheduler) {
			c.Submit(app, 5, 0)
			c.Submit(app, -1, 10)
			c.Submit(app, 5, 20)
		}, "negative data size"},
		{"out of order", func(c *ShardedScheduler) {
			c.Submit(app, 5, 10)
			c.Submit(app, 5, 5)
			c.Submit(app, -1, 20)
		}, "out-of-order submission at 5 after 10"},
	}
	for _, size := range []float64{math.NaN(), math.Inf(1), 1e300} {
		cases = append(cases, submitCase{fmt.Sprintf("size %g", size), func(c *ShardedScheduler) {
			c.Submit(app, 5, 0)
			c.Submit(app, size, 10)
			c.Submit(app, 5, 20)
		}, "non-finite epoch"})
	}
	for _, tc := range cases {
		c, err := NewShardedScheduler(fix.model, fix.db, NewProfiler(fix.model, sim.NewRNG(99)),
			func() STP { return NewMemoSTP(fix.lkt, nil) }, 4, ShardedConfig{Shards: 2, Steal: true})
		if err != nil {
			t.Fatal(err)
		}
		tc.submit(c)
		_, _, err = c.Run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Run error %v, want one naming %q", tc.name, err, tc.want)
		}
		if n := len(c.Completed()); n != 0 {
			t.Fatalf("%s: Run drove %d jobs after a bad submission", tc.name, n)
		}
	}
}
