package core

import (
	"math"
	"sync"
	"testing"

	"ecost/internal/cluster"
	"ecost/internal/mapreduce"
	"ecost/internal/ml"
	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// The fixture is shared across the package's tests: a database over two
// sizes with a coarse config sample keeps the one-time cost low.
var (
	fixOnce sync.Once
	fix     struct {
		model    *mapreduce.Model
		oracle   *Oracle
		profiler *Profiler
		db       *Database
		lkt      *LkTSTP
		rep      *MLMSTP
	}
)

func fixture(t testing.TB) {
	t.Helper()
	fixOnce.Do(func() {
		fix.model = mapreduce.NewModel(cluster.AtomC2758())
		fix.oracle = NewOracle(fix.model)
		fix.profiler = NewProfiler(fix.model, sim.NewRNG(42))
		db, err := BuildDatabase(fix.profiler, fix.oracle, workloads.Training(), BuildOptions{
			Sizes:        []float64{1, 5},
			ConfigStride: 13,
		})
		if err != nil {
			panic(err)
		}
		fix.db = db
		fix.lkt = &LkTSTP{DB: db}
		rep, err := NewMLMSTP("REPTree", db, func() ml.Regressor {
			tr := ml.NewREPTree()
			tr.MinLeaf = 2
			return tr
		})
		if err != nil {
			panic(err)
		}
		fix.rep = rep
	})
}

func obsOf(t *testing.T, name string, size float64) Observation {
	t.Helper()
	o, err := fix.profiler.Observe(workloads.MustByName(name), size)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestClassifierOnAllApps(t *testing.T) {
	fixture(t)
	for _, app := range workloads.Apps() {
		for _, size := range []float64{1, 5} {
			o, err := fix.profiler.Observe(app, size)
			if err != nil {
				t.Fatal(err)
			}
			if got := fix.db.Classifier().Classify(o); got != app.Class {
				t.Errorf("%s@%vGB classified %v, want %v", app.Name, size, got, app.Class)
			}
		}
	}
}

func TestNearestKnownSameClass(t *testing.T) {
	fixture(t)
	for _, app := range workloads.Testing() {
		o, err := fix.profiler.Observe(app, 5)
		if err != nil {
			t.Fatal(err)
		}
		near := fix.db.Classifier().NearestKnown(o)
		if near.App.Class() != app.Class {
			t.Errorf("%s nearest known is %s of class %v, want class %v",
				app.Name, near.App.Name(), near.App.Class(), app.Class)
		}
		if near.SizeGB != 5 {
			t.Errorf("%s matched size %v, want same-size preference", app.Name, near.SizeGB)
		}
	}
}

func TestProfilingConfigValid(t *testing.T) {
	if err := profilingConfig().Validate(8); err != nil {
		t.Fatal(err)
	}
}

func TestObservationReducedWidth(t *testing.T) {
	fixture(t)
	o := obsOf(t, "wc", 5)
	if len(o.Reduced()) != 7 {
		t.Fatalf("reduced features = %d, want 7", len(o.Reduced()))
	}
}

func TestOracleCOLAOIsOptimal(t *testing.T) {
	fixture(t)
	a := workloads.MustLookup("gp")
	b := workloads.MustLookup("st")
	best, err := fix.oracle.COLAO(a, 1024, b, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check alternative configs: none may beat COLAO.
	pcs := mapreduce.PairConfigsCached(8)
	for i := 0; i < len(pcs); i += 513 {
		co, err := fix.oracle.EvalPair(a, 1024, b, 1024, pcs[i])
		if err != nil {
			t.Fatal(err)
		}
		if co.EDP < best.Out.EDP*(1-1e-9) {
			t.Fatalf("config %v beats COLAO: %g < %g", pcs[i], co.EDP, best.Out.EDP)
		}
	}
}

func TestOracleMemoization(t *testing.T) {
	fixture(t)
	a := workloads.MustLookup("wc")
	before := fix.oracle.CachedPairs()
	if _, err := fix.oracle.COLAO(a, 1024, a, 1024); err != nil {
		t.Fatal(err)
	}
	mid := fix.oracle.CachedPairs()
	if _, err := fix.oracle.COLAO(a, 1024, a, 1024); err != nil {
		t.Fatal(err)
	}
	if fix.oracle.CachedPairs() != mid || mid < before {
		t.Fatal("COLAO memoization broken")
	}
}

func TestOracleSymmetry(t *testing.T) {
	fixture(t)
	a := workloads.MustLookup("wc")
	b := workloads.MustLookup("fp")
	ab, err := fix.oracle.COLAO(a, 1024, b, 5120)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := fix.oracle.COLAO(b, 5120, a, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Out.EDP != ba.Out.EDP {
		t.Fatalf("COLAO not symmetric: %g vs %g", ab.Out.EDP, ba.Out.EDP)
	}
	if ab.Cfg[0] != ba.Cfg[1] || ab.Cfg[1] != ba.Cfg[0] {
		t.Fatalf("COLAO configs not mirrored: %v vs %v", ab.Cfg, ba.Cfg)
	}
}

func TestILAOFormula(t *testing.T) {
	fixture(t)
	a := workloads.MustLookup("wc")
	b := workloads.MustLookup("st")
	edp, cfgs, err := fix.oracle.ILAO(a, 1024, b, 1024)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := fix.oracle.BestSolo(a, 1024)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := fix.oracle.BestSolo(b, 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := (sa.Out.EnergyJ + sb.Out.EnergyJ) * (sa.Out.Makespan + sb.Out.Makespan)
	if edp != want {
		t.Fatalf("ILAO EDP = %g, want %g", edp, want)
	}
	if cfgs[0] != sa.Cfg || cfgs[1] != sb.Cfg {
		t.Fatal("ILAO configs are not the solo-optimal ones")
	}
}

func TestDatabaseShape(t *testing.T) {
	fixture(t)
	// 5 training apps × 2 sizes = 10 observations → 55 unordered pairs.
	if got := len(fix.db.Entries); got != 55 {
		t.Fatalf("database entries = %d, want 55", got)
	}
	all, err := fix.db.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no training rows")
	}
	for cp, rows := range all {
		for _, r := range rows {
			if len(r.X) != len(configRow(1, 1, [2]mapreduce.Config{{Freq: 1.2, Block: 64, Mappers: 1}, {Freq: 1.2, Block: 64, Mappers: 1}})) {
				t.Fatalf("%v row width %d inconsistent", cp, len(r.X))
			}
			if r.EDP <= 0 || r.RelEDP <= 0 {
				t.Fatalf("%v row has non-positive EDP", cp)
			}
		}
	}
}

func TestPriorityRankingShape(t *testing.T) {
	fixture(t)
	ranking := fix.db.PriorityRanking()
	if len(ranking) != 10 {
		t.Fatalf("ranking has %d class pairs, want 10", len(ranking))
	}
	if got := ranking[0].Pair; got != (ClassPair{workloads.IOBound, workloads.IOBound}) {
		t.Errorf("top-ranked pair = %v, want I-I (paper Fig. 5)", got)
	}
	last := ranking[len(ranking)-1].Pair
	if last.A != workloads.MemBound && last.B != workloads.MemBound {
		t.Errorf("lowest-ranked pair = %v, want an M pair", last)
	}
	for i := 1; i < len(ranking); i++ {
		if ranking[i].Benefit > ranking[i-1].Benefit {
			t.Fatal("ranking not sorted by benefit")
		}
	}
}

func TestPartnerPriorityIncludesAllClasses(t *testing.T) {
	fixture(t)
	for _, c := range workloads.Classes() {
		order := fix.db.PartnerPriority(c)
		if len(order) != 4 {
			t.Fatalf("PartnerPriority(%v) = %v, want all 4 classes", c, order)
		}
		// M must never be the preferred partner (paper: M-X ranks last).
		if order[0] == workloads.MemBound {
			t.Errorf("PartnerPriority(%v) prefers M first: %v", c, order)
		}
	}
}

func TestLookupBestReturnsStoredOptimum(t *testing.T) {
	fixture(t)
	// A known application must map to itself and return its own entry.
	o, err := fix.profiler.ObserveExact(workloads.MustByName("st"), 5)
	if err != nil {
		t.Fatal(err)
	}
	best, err := fix.db.LookupBest(o, o)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fix.oracle.COLAO(workloads.MustLookup("st"), 5120, workloads.MustLookup("st"), 5120)
	if err != nil {
		t.Fatal(err)
	}
	if best.Out.EDP != want.Out.EDP {
		t.Fatalf("lookup for known pair returned EDP %g, want stored optimum %g", best.Out.EDP, want.Out.EDP)
	}
}

func TestSTPConfigsValid(t *testing.T) {
	fixture(t)
	oa := obsOf(t, "nb", 5)
	ob := obsOf(t, "km", 5)
	for _, s := range []STP{fix.lkt, fix.rep} {
		cfg, err := s.PredictBest(oa, ob)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := cfg[0].Validate(8); err != nil {
			t.Errorf("%s slot 0: %v", s.Name(), err)
		}
		if err := cfg[1].Validate(8); err != nil {
			t.Errorf("%s slot 1: %v", s.Name(), err)
		}
		if cfg[0].Mappers+cfg[1].Mappers > 8 {
			t.Errorf("%s overcommits cores: %v", s.Name(), cfg)
		}
	}
}

func TestSTPReasonableVsOracle(t *testing.T) {
	fixture(t)
	oa := obsOf(t, "nb", 5)
	ob := obsOf(t, "cf", 5)
	colao, err := fix.oracle.COLAO(workloads.MustLookup("nb"), 5120, workloads.MustLookup("cf"), 5120)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []STP{fix.lkt, fix.rep} {
		cfg, err := s.PredictBest(oa, ob)
		if err != nil {
			t.Fatal(err)
		}
		out, err := fix.oracle.EvalPair(workloads.MustLookup("nb"), 5120, workloads.MustLookup("cf"), 5120, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if gap := out.EDP / colao.Out.EDP; gap > 2 {
			t.Errorf("%s chose a config %.1fx worse than the oracle", s.Name(), gap)
		}
	}
}

func TestMLMSTPSlotCanonicalization(t *testing.T) {
	fixture(t)
	oa := obsOf(t, "svm", 5) // C
	ob := obsOf(t, "km", 5)  // M
	ab, err := fix.rep.PredictBest(oa, ob)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := fix.rep.PredictBest(ob, oa)
	if err != nil {
		t.Fatal(err)
	}
	if ab[0] != ba[1] || ab[1] != ba[0] {
		t.Fatalf("prediction not order-equivariant: %v vs %v", ab, ba)
	}
}

func TestPredictRowKnownPair(t *testing.T) {
	fixture(t)
	all, err := fix.db.Rows()
	if err != nil {
		t.Fatal(err)
	}
	for cp, rows := range all {
		if len(rows) == 0 {
			continue
		}
		got, err := fix.rep.PredictRow(cp, rows[0])
		if err != nil {
			t.Fatalf("%v: %v", cp, err)
		}
		if got <= 0 {
			t.Fatalf("%v: non-positive RelEDP prediction %g", cp, got)
		}
		break
	}
}

func TestRuleClassifyVectors(t *testing.T) {
	fixture(t)
	vectors := make([]perfctr.Vector, 0, len(workloads.Training()))
	byName := map[string]perfctr.Vector{}
	for _, app := range workloads.Training() {
		o, err := fix.profiler.ObserveExact(app, 5)
		if err != nil {
			t.Fatal(err)
		}
		vectors = append(vectors, o.Features)
		byName[app.Name] = o.Features
	}
	cases := map[string]workloads.Class{
		"wc": workloads.Compute,
		"st": workloads.IOBound,
		"fp": workloads.MemBound,
	}
	for name, want := range cases {
		if got := RuleClassify(byName[name], vectors); got != want {
			t.Errorf("RuleClassify(%s) = %v, want %v", name, got, want)
		}
	}
	// Degenerate reference: classifying against itself lands in the
	// default (Hybrid) branch rather than panicking.
	if got := RuleClassify(byName["wc"], nil); got != workloads.Hybrid {
		t.Errorf("RuleClassify with empty reference = %v, want Hybrid", got)
	}
}

func TestParallelCOLAOMatchesSerialScan(t *testing.T) {
	fixture(t)
	// The parallel search must return the exact argmin of the serial scan
	// (ties broken by configuration index).
	a := workloads.MustLookup("gp")
	b := workloads.MustLookup("km")
	got, err := fix.oracle.COLAO(a, 2048, b, 2048)
	if err != nil {
		t.Fatal(err)
	}
	bestEDP := math.Inf(1)
	var bestIdx int
	pcs := mapreduce.PairConfigsCached(8)
	for i, pc := range pcs {
		co, err := fix.oracle.EvalPair(a, 2048, b, 2048, pc)
		if err != nil {
			t.Fatal(err)
		}
		if co.EDP < bestEDP {
			bestEDP = co.EDP
			bestIdx = i
		}
	}
	if got.Cfg != pcs[bestIdx] {
		t.Fatalf("parallel COLAO chose %v, serial scan %v", got.Cfg, pcs[bestIdx])
	}
	if got.Out.EDP != bestEDP {
		t.Fatalf("parallel COLAO EDP %g, serial %g", got.Out.EDP, bestEDP)
	}
	// The database build's path — one batch on a worker's own evaluator
	// — must agree with the chunked search bit for bit.
	batch, err := fix.oracle.searchPair(fix.model.NewEvaluator(), a, 2048, b, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Cfg != got.Cfg || batch.Out.EDP != got.Out.EDP || batch.Out.EnergyJ != got.Out.EnergyJ || batch.Out.Makespan != got.Out.Makespan {
		t.Fatalf("one-batch search %+v, chunked search %+v", batch, got)
	}
}

func TestParallelCOLAODeterministic(t *testing.T) {
	fixture(t)
	a := workloads.MustLookup("pr")
	b := workloads.MustLookup("hmm")
	first, err := fix.oracle.searchPair(nil, a, 3072, b, 3072)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := fix.oracle.searchPair(nil, a, 3072, b, 3072)
		if err != nil {
			t.Fatal(err)
		}
		if again.Cfg != first.Cfg || again.Out.EDP != first.Out.EDP {
			t.Fatalf("parallel search not deterministic: %v vs %v", again.Cfg, first.Cfg)
		}
	}
}
