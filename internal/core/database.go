package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ecost/internal/mapreduce"
	"ecost/internal/metrics"
	"ecost/internal/workloads"
)

// ClassPair is an unordered pair of behaviour classes, the unit the
// paper's per-class models and priority ranking are organized around.
type ClassPair struct{ A, B workloads.Class }

// NewClassPair returns the canonical (sorted) form.
func NewClassPair(a, b workloads.Class) ClassPair {
	if b < a {
		a, b = b, a
	}
	return ClassPair{a, b}
}

// String renders "C-M" style labels like the paper's tables.
func (p ClassPair) String() string { return p.A.String() + "-" + p.B.String() }

// DBEntry is one database record: the COLAO-optimal configuration for a
// known co-located pair (§6.2 — "the database is populated with the best
// results for various co-located applications").
type DBEntry struct {
	A, B Observation
	Best PairBest
}

// TrainRow is one supervised example for the MLM-STP models: the two
// applications' data sizes plus the joint configuration, and the
// resulting EDP. The application *features* select which class-pair
// model to use (Figure 7, step 3); the model itself is then evaluated
// over "all permutations of tunable parameters" (step 4), so its inputs
// are the permutation — keeping prediction strictly in-distribution
// even for unknown applications.
//
// RelEDP is the pair's EDP at this configuration divided by its EDP at
// the untuned baseline configuration: the models learn the configuration
// *response surface* (which is what the class structure determines)
// rather than the pair's absolute magnitude, and the argmin over
// configurations is unchanged because the baseline is constant per pair.
type TrainRow struct {
	X      []float64 // sizes + knobs + interactions (see configRow)
	EDP    float64
	RelEDP float64
	// FA and FB are the slot observations' reduced feature vectors
	// (shared across the entry's rows). Feature-aware models append them
	// to X so they can distinguish application combinations within a
	// class pair; see NewMLMSTPFeatures.
	FA, FB []float64
}

// baselinePairConfig is the normalization reference for RelEDP: the
// untuned even split.
func baselinePairConfig(cores int) [2]mapreduce.Config {
	return [2]mapreduce.Config{NTConfig(cores / 2), NTConfig(cores / 2)}
}

// Database is the offline knowledge ECoST builds from the training
// applications: per-pair optimal configurations (the lookup table) and
// per-class-pair training matrices for the learning models.
type Database struct {
	Entries []DBEntry
	classer *Classifier
	oracle  *Oracle

	// obs are the observations the entries pair, in pairGrid order, and
	// stride the row sweep's configuration stride: all the training
	// rows are a function of. rowsOnce guards the rows, swept on first
	// use (see Rows); rowsGauge receives the sweep's wall seconds.
	obs       []Observation
	stride    int
	rowsGauge *metrics.Gauge
	rowsOnce  sync.Once
	rows      map[ClassPair][]TrainRow
	rowsErr   error

	// partnerOnce guards the lazily-built PartnerPriority cache. The
	// ranking is a pure function of Entries (which are frozen after
	// build/load), yet the uncached computation re-ran pairBenefits —
	// an ILAO lookup per database entry plus a sort — on every pairing
	// dispatch, ~28% of a large online run. One build serves every
	// class and every shard; the sync.Once makes the first call safe
	// from concurrent shard goroutines.
	partnerOnce sync.Once
	partnerPrio map[workloads.Class][]workloads.Class

	// lktOnce guards the lazily-built LkT lookup index (see lktIndex),
	// a pure function of Entries and the classifier.
	lktOnce sync.Once
	lkt     lktIndex
}

// BuildOptions controls database construction cost.
type BuildOptions struct {
	// Sizes are the per-node data sizes to include (default: the paper's
	// 1, 5, 10 GB).
	Sizes []float64
	// ConfigStride subsamples the joint configuration space when
	// generating ML training rows: every stride-th configuration is
	// evaluated (1 = all 11,200 per pair). Larger strides build faster.
	ConfigStride int
}

// BuildDatabase profiles the training applications and runs the COLAO
// search for every known pair and size combination. The per-class-pair
// training matrices are not swept here: Rows sweeps them on first use,
// so a program that only consults the lookup table never pays for them.
//
// The COLAO entries fan out over pairs through fanOut; each worker runs
// its entries' searches serially on one Evaluator, so the build runs at
// most GOMAXPROCS goroutines and evaluators. Every entry is written to
// its own index in canonical (i, j) pair order, so the entries are
// byte-identical to a serial build at any worker count.
func BuildDatabase(profiler *Profiler, oracle *Oracle, training []workloads.App, opt BuildOptions) (*Database, error) {
	if len(training) == 0 {
		return nil, fmt.Errorf("core: database: no training applications")
	}
	if len(opt.Sizes) == 0 {
		opt.Sizes = workloads.DataSizesGB()
	}

	// Profile every (app, size) once, noise-free: the database stores the
	// asymptotic feature vectors (the paper averages repeated runs).
	var obs []Observation
	for _, app := range training {
		for _, size := range opt.Sizes {
			o, err := profiler.ObserveExact(app, size)
			if err != nil {
				return nil, err
			}
			obs = append(obs, o)
		}
	}
	classer, err := NewClassifier(obs)
	if err != nil {
		return nil, err
	}

	db := &Database{classer: classer, oracle: oracle, obs: obs, stride: opt.ConfigStride}
	grid := pairGrid(len(obs))
	db.Entries = make([]DBEntry, len(grid))
	errs := make([]error, len(grid))
	fanOut(len(grid), oracle.Model.NewEvaluator, func(ev *mapreduce.Evaluator, n int) {
		a, b := obs[grid[n][0]], obs[grid[n][1]]
		db.Entries[n] = DBEntry{A: a, B: b}
		db.Entries[n].Best, errs[n] = oracle.colao(ev, a.App, a.SizeGB*1024, b.App, b.SizeGB*1024)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return db, nil
}

// pairGrid enumerates the pairs of n observations in canonical order,
// (i, j) for i ≤ j: the order of the entries and of every class pair's
// training rows.
func pairGrid(n int) [][2]int {
	grid := make([][2]int, 0, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			grid = append(grid, [2]int{i, j})
		}
	}
	return grid
}

// Rows returns the per-class-pair training matrices, sweeping them on
// the first call; every later call, from any goroutine, sees the same
// map and error. A built and a loaded database sweep the same way, from
// their observations and stride, so the rows are byte-identical either
// way. Callers must treat the map and its rows as read-only.
func (db *Database) Rows() (map[ClassPair][]TrainRow, error) {
	db.rowsOnce.Do(db.sweepRows)
	return db.rows, db.rowsErr
}

// SetRowsGauge makes the row sweep record its wall-clock seconds in g
// when it runs. Call it before the rows' first use.
func (db *Database) SetRowsGauge(g *metrics.Gauge) { db.rowsGauge = g }

// sweepRows fills the training matrices with the strided row sweep of
// every pair of the observations. The rows of each class pair are
// counted first and allocated once; the pairs fan out, each worker
// with its own rowSweeper, and each pair writes its rows straight to
// its pairGrid-order offset in its class pair's matrix.
func (db *Database) sweepRows() {
	if db.oracle == nil {
		db.rowsErr = fmt.Errorf("core: training rows: database has no oracle")
		return
	}
	if len(db.obs) == 0 {
		db.rowsErr = fmt.Errorf("core: training rows: database has no pair grid")
		return
	}
	start := time.Now()
	stride := max(db.stride, 1)
	all := mapreduce.PairConfigsCached(db.oracle.Model.Spec.Cores)
	strided := make([][2]mapreduce.Config, 0, (len(all)+stride-1)/stride)
	for k := 0; k < len(all); k += stride {
		strided = append(strided, all[k])
	}

	grid := pairGrid(len(db.obs))
	classes := make([]ClassPair, len(grid))
	offsets := make([]int, len(grid))
	counts := make(map[ClassPair]int)
	for n, p := range grid {
		cp := NewClassPair(db.obs[p[0]].App.Class(), db.obs[p[1]].App.Class())
		classes[n], offsets[n] = cp, counts[cp]
		counts[cp] += len(strided)
	}
	rows := make(map[ClassPair][]TrainRow, len(counts))
	for cp, c := range counts {
		rows[cp] = make([]TrainRow, c)
	}
	errs := make([]error, len(grid))
	fanOut(len(grid), func() *rowSweeper {
		return &rowSweeper{ev: db.oracle.Model.NewEvaluator(), out: make([]mapreduce.CoMetrics, len(strided))}
	}, func(w *rowSweeper, n int) {
		dst := rows[classes[n]][offsets[n] : offsets[n]+len(strided)]
		errs[n] = w.pairRows(db.oracle.Model.Spec.Cores, db.obs[grid[n][0]], db.obs[grid[n][1]], strided, stride, dst)
	})
	for _, err := range errs {
		if err != nil {
			db.rowsErr = err
			return
		}
	}
	db.rows = rows
	db.rowsGauge.Set(time.Since(start).Seconds())
}

// rowSweeper is one row-sweep worker's state: a reused Evaluator and
// the metric buffer its pairs' batches fill.
type rowSweeper struct {
	ev  *mapreduce.Evaluator
	out []mapreduce.CoMetrics
}

// pairRows fills dst with one pair's training rows, one per strided
// configuration (every stride-th of the pair grid), from one PairBatch
// after the baseline evaluation. Row feature vectors reference the
// shared design matrix where the canonical slot order permits.
func (w *rowSweeper) pairRows(cores int, a, b Observation, strided [][2]mapreduce.Config, stride int, dst []TrainRow) error {
	specA := mapreduce.RunSpec{App: a.App.App(), DataMB: a.SizeGB * 1024}
	specB := mapreduce.RunSpec{App: b.App.App(), DataMB: b.SizeGB * 1024}
	baseCfg := baselinePairConfig(cores)
	specA.Cfg, specB.Cfg = baseCfg[0], baseCfg[1]
	base, err := w.ev.PairMetrics(specA, specB)
	if err != nil {
		return err
	}
	if err := w.ev.PairBatch(specA, specB, strided, w.out); err != nil {
		return err
	}

	swapped := slotLess(b, a)
	caObs, cbObs := a, b
	if swapped {
		caObs, cbObs = b, a
	}
	fa, fb := caObs.Reduced(), cbObs.Reduced()
	dm := designMatrixCached(cores, caObs.SizeGB, cbObs.SizeGB)
	for j, pc := range strided {
		// Canonical slot order so asymmetric class pairs always see the
		// lower class in slot 0 (prediction swaps the same way and swaps
		// the answer back). In the unswapped case the input row IS the
		// shared design-matrix row; only swapped slots materialize one.
		x := dm[j*stride]
		if swapped {
			x = configRow(caObs.SizeGB, cbObs.SizeGB, [2]mapreduce.Config{pc[1], pc[0]})
		}
		dst[j] = TrainRow{
			X:      x,
			EDP:    w.out[j].EDP,
			RelEDP: w.out[j].EDP / base.EDP,
			FA:     fa,
			FB:     fb,
		}
	}
	return nil
}

// pairObservations recovers the observations a database's entries
// pair, in pairGrid order, or nil when the entries are not the full
// canonical pair grid over them (a database that can never have rows).
// Entries are in (i, j) order, so first appearance order is index order.
func pairObservations(entries []DBEntry) []Observation {
	type obsKey struct {
		app  workloads.ID
		size float64
	}
	seen := make(map[obsKey]bool)
	var obs []Observation
	for _, e := range entries {
		for _, o := range []Observation{e.A, e.B} {
			k := obsKey{o.App, o.SizeGB}
			if !seen[k] {
				seen[k] = true
				obs = append(obs, o)
			}
		}
	}
	grid := pairGrid(len(obs))
	if len(grid) != len(entries) {
		return nil
	}
	for n, p := range grid {
		a, b := &obs[p[0]], &obs[p[1]]
		if e := &entries[n]; e.A.App != a.App || e.A.SizeGB != a.SizeGB || e.B.App != b.App || e.B.SizeGB != b.SizeGB {
			return nil
		}
	}
	return obs
}

// configRow assembles the model input for one tunable-parameter
// permutation: both data sizes, the six knobs, and engineered
// interaction terms. The interactions matter most for the linear model:
// without them an OLS argmin over a box always lands on a vertex; with
// the split-count and mapper-product terms it can prefer interior
// mapper splits and block sizes, which is how Weka-era linear models
// were actually used on this kind of tuning data.
func configRow(sizeA, sizeB float64, cfg [2]mapreduce.Config) []float64 {
	return configRowInto(make([]float64, configRowLen), sizeA, sizeB, cfg)
}

// configRowLen is the length of a configRow.
const configRowLen = 20

// configRowInto writes configRow(sizeA, sizeB, cfg) into x[:configRowLen]
// and returns that prefix, with the same arithmetic, so the row is
// bit-identical.
func configRowInto(x []float64, sizeA, sizeB float64, cfg [2]mapreduce.Config) []float64 {
	f1, b1, m1 := float64(cfg[0].Freq), float64(cfg[0].Block), float64(cfg[0].Mappers)
	f2, b2, m2 := float64(cfg[1].Freq), float64(cfg[1].Block), float64(cfg[1].Mappers)
	splitsA := sizeA * 1024 / b1
	splitsB := sizeB * 1024 / b2
	x = x[:configRowLen]
	x[0], x[1] = sizeA, sizeB
	x[2], x[3], x[4], x[5], x[6], x[7] = f1, b1, m1, f2, b2, m2
	x[8], x[9] = m1+m2, m1*m2             // core allocation balance
	x[10], x[11] = 1/m1, 1/m2             // serialization of each slot
	x[12], x[13] = f1*m1, f2*m2           // active dynamic power proxy
	x[14], x[15] = splitsA, splitsB       // task counts
	x[16], x[17] = splitsA/m1, splitsB/m2 // wave counts
	x[18], x[19] = m1*b1, m2*b2           // memory-pressure proxy
	return x
}

// slotLess orders observations into canonical model slots: by class,
// then data size, then application name.
func slotLess(a, b Observation) bool {
	if a.App.Class() != b.App.Class() {
		return a.App.Class() < b.App.Class()
	}
	if a.SizeGB != b.SizeGB {
		return a.SizeGB < b.SizeGB
	}
	return a.App.Name() < b.App.Name()
}

// Classifier returns the classifier trained on the database's
// observations.
func (db *Database) Classifier() *Classifier { return db.classer }

// Oracle returns the oracle used to build the database.
func (db *Database) Oracle() *Oracle { return db.oracle }

// lookupConfig is the LkT-STP lookup of §6.4: the stored optimal
// configuration for the known pair most resembling records (a, b).
// Each slot maps to its nearest known training observation; the entry
// storing that (name, size) pair wins — the first one in slot order,
// else the last one with the slots reversed, whose answer is swapped
// back. It returns the configuration oriented to (a, b) and, without
// copying it, the entry's measured outcome, whose node-level scalars
// do not depend on slot order. It allocates nothing.
func (db *Database) lookupConfig(a, b *profileRec) ([2]mapreduce.Config, *mapreduce.CoOutcome, error) {
	i, swapped, err := db.lookup(a, b)
	if err != nil {
		return [2]mapreduce.Config{}, nil, err
	}
	best := &db.Entries[i].Best
	cfg := best.Cfg
	if swapped {
		cfg[0], cfg[1] = cfg[1], cfg[0]
	}
	return cfg, &best.Out, nil
}

// lookup resolves (a, b) to the index of the entry lookupConfig
// answers from and whether that entry's slots are reversed.
func (db *Database) lookup(a, b *profileRec) (int, bool, error) {
	if len(db.Entries) == 0 {
		return 0, false, fmt.Errorf("core: lookup: empty database")
	}
	db.lktOnce.Do(db.buildLkTIndex)
	ia, ib := db.nearest(a), db.nearest(b)
	ix := &db.lkt
	m := ix.match[int(ix.keys[ia])*ix.n+int(ix.keys[ib])]
	switch {
	case m.direct >= 0:
		return int(m.direct), false, nil
	case m.reverse >= 0:
		return int(m.reverse), true, nil
	}
	return 0, false, fmt.Errorf("core: lookup: no entry for %s/%s",
		db.classer.training[ia].App.Name(), db.classer.training[ib].App.Name())
}

// nearest is r's nearest-known training index: the one r caches if
// this database's classifier gave it (DESIGN.md §35), else a scan.
func (db *Database) nearest(r *profileRec) int {
	if r.by == db.classer.id {
		return int(r.near)
	}
	_, near := db.classer.answer(&r.obs)
	return near
}

// lktIndex answers the LkT lookup by table instead of a scan over the
// entries. Entries match on (application name, data size) — the same
// == comparisons the scan made — so every distinct pair of those among
// the classifier's training observations gets a key id: keys[i] is the
// id of training observation i, and match[ka*n+kb] is the lookup's
// answer for a nearest-known pair with key ids (ka, kb).
type lktIndex struct {
	keys  []int32
	n     int
	match []lktMatch
}

// lktMatch holds the scan's "first direct wins, else last reverse"
// candidates for one key pair: the first entry whose slots are (ka,
// kb) and the last whose slots are (kb, ka); -1 when there is none.
type lktMatch struct{ direct, reverse int32 }

// buildLkTIndex builds the index in one pass over the entries. Entries
// are frozen after build/load, so one build serves every lookup.
func (db *Database) buildLkTIndex() {
	type appSize struct {
		app  workloads.ID
		size float64
	}
	train := db.classer.training
	ids := make(map[appSize]int32, len(train))
	keys := make([]int32, len(train))
	for i := range train {
		k := appSize{train[i].App, train[i].SizeGB}
		id, ok := ids[k]
		if !ok {
			id = int32(len(ids))
			ids[k] = id
		}
		keys[i] = id
	}
	n := len(ids)
	match := make([]lktMatch, n*n)
	for i := range match {
		match[i] = lktMatch{-1, -1}
	}
	for i := range db.Entries {
		e := &db.Entries[i]
		ka, okA := ids[appSize{e.A.App, e.A.SizeGB}]
		kb, okB := ids[appSize{e.B.App, e.B.SizeGB}]
		if !okA || !okB {
			continue // no nearest-known pair can match it
		}
		if m := &match[int(ka)*n+int(kb)]; m.direct < 0 {
			m.direct = int32(i)
		}
		match[int(kb)*n+int(ka)].reverse = int32(i)
	}
	db.lkt = lktIndex{keys: keys, n: n, match: match}
}

// pairBenefits computes, per class pair, the mean co-location benefit
// across the database: ILAO EDP ÷ COLAO EDP. The paper ranks class pairs
// by the lowest pair EDP across core partitionings (Figure 5); its
// applications have comparable standalone weight, so absolute EDP works
// there. Our calibrated applications differ in intrinsic heaviness, so
// the ranking normalizes each pair by its own ILAO baseline — the same
// ordering signal (how much does co-locating this class combination
// help) without the per-application weight.
func (db *Database) pairBenefits() map[ClassPair]float64 {
	sums := map[ClassPair]float64{}
	counts := map[ClassPair]int{}
	for _, e := range db.Entries {
		ilao, _, err := db.oracle.ILAO(e.A.App, e.A.SizeGB*1024, e.B.App, e.B.SizeGB*1024)
		if err != nil || e.Best.Out.EDP <= 0 {
			continue
		}
		cp := NewClassPair(e.A.App.Class(), e.B.App.Class())
		sums[cp] += ilao / e.Best.Out.EDP
		counts[cp]++
	}
	out := map[ClassPair]float64{}
	for cp, s := range sums {
		out[cp] = s / float64(counts[cp])
	}
	return out
}

// PriorityRanking derives the class-pair ranking of Figure 5: class
// pairs ordered by co-location benefit, descending. I-I ranks first;
// M-M last.
func (db *Database) PriorityRanking() []RankedPair {
	var out []RankedPair
	for cp, b := range db.pairBenefits() {
		out = append(out, RankedPair{Pair: cp, Benefit: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Benefit != out[j].Benefit {
			return out[i].Benefit > out[j].Benefit
		}
		return out[i].Pair.String() < out[j].Pair.String()
	})
	return out
}

// RankedPair is one row of the Figure-5 ranking.
type RankedPair struct {
	Pair ClassPair
	// Benefit is the mean ILAO/COLAO EDP ratio for the class pair:
	// >1 means co-locating this combination beats running it serially.
	Benefit float64
}

// PartnerPriority distils the ranking into the scheduler's decision
// order: given a running application's class, which partner class to
// prefer from the wait queue (the paper reads I first, then H/C, then M
// off Figure 5; here the order falls out of the database). The returned
// slice is cached and shared — callers must treat it as read-only.
func (db *Database) PartnerPriority(running workloads.Class) []workloads.Class {
	db.partnerOnce.Do(db.buildPartnerPriority)
	return db.partnerPrio[running]
}

// buildPartnerPriority materializes the decision order for every class
// in one pass. The per-class loop, tie-break, and underlying
// pairBenefits iteration are identical to the previous per-call
// computation, so the cached orders are the exact slices the uncached
// path produced.
func (db *Database) buildPartnerPriority() {
	benefits := db.pairBenefits()
	db.partnerPrio = make(map[workloads.Class][]workloads.Class, len(workloads.Classes()))
	type score struct {
		c workloads.Class
		b float64
	}
	for _, running := range workloads.Classes() {
		var scores []score
		for _, c := range workloads.Classes() {
			if b, ok := benefits[NewClassPair(running, c)]; ok {
				scores = append(scores, score{c, b})
			}
		}
		sort.Slice(scores, func(i, j int) bool {
			if scores[i].b != scores[j].b {
				return scores[i].b > scores[j].b
			}
			return scores[i].c < scores[j].c
		})
		out := make([]workloads.Class, len(scores))
		for i, s := range scores {
			out[i] = s.c
		}
		db.partnerPrio[running] = out
	}
}
