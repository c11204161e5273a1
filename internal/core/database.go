package core

import (
	"fmt"
	"sort"
	"sync"

	"ecost/internal/mapreduce"
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
	X      []float64 // sizes + knobs + interactions (see ConfigRow)
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
	Rows    map[ClassPair][]TrainRow
	classer *Classifier
	oracle  *Oracle

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

// BuildDatabase profiles the training applications, runs the COLAO
// search for every known pair and size combination, and assembles the
// per-class-pair training matrices.
//
// The COLAO entries fan out over pairs through fanOut, then the same
// row sweep RebuildRows runs fills the training matrices. Both write
// index-addressed results and merge them in canonical (i, j) pair
// order, so the entries, the training rows and everything trained from
// them are byte-identical to a serial build at any worker count.
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

	db := &Database{classer: classer, oracle: oracle}
	grid := pairGrid(len(obs))
	db.Entries = make([]DBEntry, len(grid))
	errs := make([]error, len(grid))
	fanOut(len(grid), func() struct{} { return struct{}{} }, func(_ struct{}, n int) {
		a, b := obs[grid[n][0]], obs[grid[n][1]]
		db.Entries[n] = DBEntry{A: a, B: b}
		db.Entries[n].Best, errs[n] = oracle.COLAO(a.App, a.SizeGB*1024, b.App, b.SizeGB*1024)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := db.sweepRows(obs, opt.ConfigStride); err != nil {
		return nil, err
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

// sweepRows replaces the training matrices with the strided row sweep
// of every pair of obs. The pairs fan out, each worker with its own
// reused evaluator, and merge in pairGrid order.
func (db *Database) sweepRows(obs []Observation, stride int) error {
	if stride < 1 {
		stride = 1
	}
	grid := pairGrid(len(obs))
	type pairSweep struct {
		cp   ClassPair
		rows []TrainRow
		err  error
	}
	results := make([]pairSweep, len(grid))
	fanOut(len(grid), db.oracle.Model.NewEvaluator, func(ev *mapreduce.Evaluator, n int) {
		r := &results[n]
		r.cp, r.rows, r.err = pairRows(db.oracle, ev, obs[grid[n][0]], obs[grid[n][1]], stride)
	})
	rows := make(map[ClassPair][]TrainRow)
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
		rows[r.cp] = append(rows[r.cp], r.rows...)
	}
	db.Rows = rows
	return nil
}

// pairRows runs the strided training-row sweep for one pair. The
// evaluator is reused across configurations (zero allocations per
// point); row feature vectors reference the shared design matrix where
// the canonical slot order permits.
func pairRows(oracle *Oracle, ev *mapreduce.Evaluator, a, b Observation, stride int) (ClassPair, []TrainRow, error) {
	cores := oracle.Model.Spec.Cores
	specA := mapreduce.RunSpec{App: a.App.App(), DataMB: a.SizeGB * 1024}
	specB := mapreduce.RunSpec{App: b.App.App(), DataMB: b.SizeGB * 1024}
	baseCfg := baselinePairConfig(cores)
	specA.Cfg, specB.Cfg = baseCfg[0], baseCfg[1]
	base, err := ev.PairMetrics(specA, specB)
	if err != nil {
		return ClassPair{}, nil, err
	}

	cp := NewClassPair(a.App.Class(), b.App.Class())
	swapped := slotLess(b, a)
	caObs, cbObs := a, b
	if swapped {
		caObs, cbObs = b, a
	}
	fa, fb := caObs.Reduced(), cbObs.Reduced()
	configs := mapreduce.PairConfigsCached(cores)
	dm := DesignMatrixCached(cores, caObs.SizeGB, cbObs.SizeGB)
	rows := make([]TrainRow, 0, (len(configs)+stride-1)/stride)
	for k := 0; k < len(configs); k += stride {
		pc := configs[k]
		specA.Cfg, specB.Cfg = pc[0], pc[1]
		co, err := ev.PairMetrics(specA, specB)
		if err != nil {
			return ClassPair{}, nil, err
		}
		// Canonical slot order so asymmetric class pairs always see the
		// lower class in slot 0 (prediction swaps the same way and swaps
		// the answer back). In the unswapped case the input row IS the
		// shared design-matrix row; only swapped slots materialize one.
		x := dm[k]
		if swapped {
			x = ConfigRow(caObs.SizeGB, cbObs.SizeGB, [2]mapreduce.Config{pc[1], pc[0]})
		}
		rows = append(rows, TrainRow{
			X:      x,
			EDP:    co.EDP,
			RelEDP: co.EDP / base.EDP,
			FA:     fa,
			FB:     fb,
		})
	}
	return cp, rows, nil
}

// HasRows reports whether the training matrices are populated. A
// database loaded from disk carries entries only (rows are too large to
// persist at full stride); RebuildRows restores them.
func (db *Database) HasRows() bool {
	for _, rows := range db.Rows {
		if len(rows) > 0 {
			return true
		}
	}
	return false
}

// RebuildRows regenerates the per-class-pair training matrices from the
// entries' stored observations: BuildDatabase's row sweep, skipping the
// COLAO searches the entries already hold. The sweep is a pure function
// of the observations, so the rebuilt rows are byte-identical to the
// original build's.
func (db *Database) RebuildRows(opt BuildOptions) error {
	if db.oracle == nil {
		return fmt.Errorf("core: rebuild rows: database has no oracle")
	}
	// Recover the unique observation list in build order: entries are in
	// canonical (i, j) order, so first appearance order is index order.
	type obsKey struct {
		app  workloads.ID
		size float64
	}
	seen := make(map[obsKey]bool)
	var obs []Observation
	for _, e := range db.Entries {
		for _, o := range []Observation{e.A, e.B} {
			k := obsKey{o.App, o.SizeGB}
			if !seen[k] {
				seen[k] = true
				obs = append(obs, o)
			}
		}
	}
	if n := len(obs); len(db.Entries) != n*(n+1)/2 {
		return fmt.Errorf("core: rebuild rows: %d entries do not form a full pair grid over %d observations", len(db.Entries), n)
	}
	return db.sweepRows(obs, opt.ConfigStride)
}

// ConfigRow assembles the model input for one tunable-parameter
// permutation: both data sizes, the six knobs, and engineered
// interaction terms. The interactions matter most for the linear model:
// without them an OLS argmin over a box always lands on a vertex; with
// the split-count and mapper-product terms it can prefer interior
// mapper splits and block sizes, which is how Weka-era linear models
// were actually used on this kind of tuning data.
func ConfigRow(sizeA, sizeB float64, cfg [2]mapreduce.Config) []float64 {
	f1, b1, m1 := float64(cfg[0].Freq), float64(cfg[0].Block), float64(cfg[0].Mappers)
	f2, b2, m2 := float64(cfg[1].Freq), float64(cfg[1].Block), float64(cfg[1].Mappers)
	splitsA := sizeA * 1024 / b1
	splitsB := sizeB * 1024 / b2
	return []float64{
		sizeA, sizeB,
		f1, b1, m1, f2, b2, m2,
		m1 + m2, m1 * m2, // core allocation balance
		1 / m1, 1 / m2, // serialization of each slot
		f1 * m1, f2 * m2, // active dynamic power proxy
		splitsA, splitsB, // task counts
		splitsA / m1, splitsB / m2, // wave counts
		m1 * b1, m2 * b2, // memory-pressure proxy
	}
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
