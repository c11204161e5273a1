package experiments

import (
	"fmt"

	"ecost/internal/core"
	"ecost/internal/mapreduce"
	"ecost/internal/perfctr"
	"ecost/internal/sim"
	"ecost/internal/workloads"
)

// This file holds the ablation studies DESIGN.md §7 calls out — they are
// not paper artifacts but probe the design decisions the paper asserts:
// that decoupling pairing from tuning is nearly free, that the
// class-priority decision tree beats arbitrary pairing, and that the
// whole pipeline tolerates measurement noise.

// AblationDecouplingData compares pairing/tuning combinations.
type AblationDecouplingData struct {
	// EDP per variant, normalized to the jointly-optimal UB.
	TreePairingTuned float64 // ECoST: decision-tree pairing + STP tuning
	ArrivalPairTuned float64 // arrival-order pairing + STP tuning
	TreePairingNT    float64 // decision-tree pairing, untuned
	ArrivalPairNT    float64 // arrival-order pairing, untuned (CBM)
}

// AblationDecoupling quantifies what each half of ECoST contributes on a
// mixed scenario: pairing choice (decision tree vs arrival order) and
// tuning (STP vs stock configuration).
func AblationDecoupling(env *Env, scenario string, nodes int) (Table, AblationDecouplingData, error) {
	var data AblationDecouplingData
	wl, err := core.Scenario(scenario)
	if err != nil {
		return Table{}, data, err
	}
	// The LkT tuner isolates the pairing question: its accuracy does not
	// depend on database coverage, so the comparison measures pairing
	// and tuning contributions rather than model-fit artifacts.
	runner := &core.PolicyRunner{Oracle: env.Oracle, DB: env.DB, Tuner: env.LkT, Profiler: env.Profiler}

	ub, err := runner.Run(core.UB, wl, nodes)
	if err != nil {
		return Table{}, data, err
	}
	ecost, err := runner.Run(core.ECoST, wl, nodes)
	if err != nil {
		return Table{}, data, err
	}
	cbm, err := runner.Run(core.CBM, wl, nodes)
	if err != nil {
		return Table{}, data, err
	}

	// Arrival-order pairing + STP tuning: pair (0,1), (2,3), … but tune
	// each pair with the predictor.
	arrTuned, err := arrivalPairTuned(env, wl, nodes)
	if err != nil {
		return Table{}, data, err
	}
	// Decision-tree pairing, untuned: pair via the class tree but run at
	// the stock configuration with an even core split.
	treeNT, err := treePairUntuned(env, wl, nodes)
	if err != nil {
		return Table{}, data, err
	}

	data.TreePairingTuned = ecost.EDP / ub.EDP
	data.ArrivalPairTuned = arrTuned / ub.EDP
	data.TreePairingNT = treeNT / ub.EDP
	data.ArrivalPairNT = cbm.EDP / ub.EDP

	tbl := Table{
		Title:  fmt.Sprintf("Ablation: pairing × tuning on %s, %d node(s), EDP normalized to UB", scenario, nodes),
		Header: []string{"pairing", "tuning", "EDP/UB"},
	}
	tbl.AddRow("decision tree", "STP (ECoST)", data.TreePairingTuned)
	tbl.AddRow("arrival order", "STP", data.ArrivalPairTuned)
	tbl.AddRow("decision tree", "none", data.TreePairingNT)
	tbl.AddRow("arrival order", "none (CBM)", data.ArrivalPairNT)
	tbl.Notes = append(tbl.Notes,
		"tuning contributes most; the decision tree recovers the rest of the gap to UB")
	return tbl, data, nil
}

// arrivalPairTuned pairs jobs in arrival order and tunes each pair with
// the environment's STP technique.
func arrivalPairTuned(env *Env, wl core.Workload, nodes int) (float64, error) {
	lanes := make([][]abUnit, nodes)
	li := 0
	for i := 0; i+1 < len(wl.Jobs); i += 2 {
		a, b := wl.Jobs[i], wl.Jobs[i+1]
		oa, err := env.Observe(a.App, a.SizeGB)
		if err != nil {
			return 0, err
		}
		ob, err := env.Observe(b.App, b.SizeGB)
		if err != nil {
			return 0, err
		}
		cfg, err := env.LkT.PredictBest(oa, ob)
		if err != nil {
			return 0, err
		}
		out, err := env.Oracle.EvalPair(a.App, a.SizeGB*1024, b.App, b.SizeGB*1024, cfg)
		if err != nil {
			return 0, err
		}
		lanes[li%nodes] = append(lanes[li%nodes], abUnit{out.Makespan, out.EnergyJ})
		li++
	}
	return lanesEDP(lanes, env.Model.Spec.IdleWatts), nil
}

// treePairUntuned pairs jobs with the class decision tree but runs each
// pair untuned at an even core split.
func treePairUntuned(env *Env, wl core.Workload, nodes int) (float64, error) {
	q := core.NewWaitQueue()
	for i, j := range wl.Jobs {
		obs, err := env.Observe(j.App, j.SizeGB)
		if err != nil {
			return 0, err
		}
		q.Push(&core.Job{ID: i, Obs: &obs, Class: env.DB.Classifier().Classify(obs), EstTime: j.SizeGB})
	}
	half := env.Model.Spec.Cores / 2
	lanes := make([][]abUnit, nodes)
	li := 0
	for q.Len() > 0 {
		a := q.PopHead()
		partner := q.SelectPartner(a.Class, env.DB.PartnerPriority(a.Class))
		if partner == nil {
			co, err := env.Model.CoLocate([]mapreduce.RunSpec{{
				App: a.Obs.App.App(), DataMB: a.Obs.SizeGB * 1024, Cfg: core.NTConfig(env.Model.Spec.Cores),
			}})
			if err != nil {
				return 0, err
			}
			lanes[li%nodes] = append(lanes[li%nodes], abUnit{co.Makespan, co.EnergyJ})
			li++
			continue
		}
		b, err := q.Take(partner.ID)
		if err != nil {
			return 0, err
		}
		out, err := env.Oracle.EvalPair(
			a.Obs.App, a.Obs.SizeGB*1024, b.Obs.App, b.Obs.SizeGB*1024,
			[2]mapreduce.Config{core.NTConfig(half), core.NTConfig(half)},
		)
		if err != nil {
			return 0, err
		}
		lanes[li%nodes] = append(lanes[li%nodes], abUnit{out.Makespan, out.EnergyJ})
		li++
	}
	return lanesEDP(lanes, env.Model.Spec.IdleWatts), nil
}

// abUnit is one scheduled pair/solo execution in the ablation runners.
type abUnit struct{ time, energy float64 }

// lanesEDP aggregates per-node unit lists the same way PolicyRunner does.
func lanesEDP(lanes [][]abUnit, idleW float64) float64 {
	var makespan float64
	busy := make([]float64, len(lanes))
	for i, lane := range lanes {
		for _, u := range lane {
			busy[i] += u.time
		}
		if busy[i] > makespan {
			makespan = busy[i]
		}
	}
	var energy float64
	for i, lane := range lanes {
		for _, u := range lane {
			energy += u.energy
		}
		energy += idleW * (makespan - busy[i])
	}
	return energy * makespan
}

// AblationNoiseData records pipeline robustness to measurement noise.
type AblationNoiseData struct {
	// Scale lists the noise multipliers; Misclassified the classifier
	// error count (of total Observations), MeanErr the LkT tuning error
	// at that noise level.
	Scale         []float64
	Misclassified []int
	Total         int
	MeanErrPct    []float64
}

// AblationNoise injects increasing PMU/monitor noise into the profiling
// path and measures classification and tuning degradation — the failure
// injection study of DESIGN.md §7.
func AblationNoise(env *Env, scales []float64) (Table, AblationNoiseData, error) {
	if len(scales) == 0 {
		scales = []float64{0, 1, 10, 30}
	}
	data := AblationNoiseData{Scale: scales}
	pairs := []TestPair{
		{"nb", 5, "cf", 5}, {"svm", 5, "pr", 5}, {"hmm", 1, "km", 1},
	}
	tbl := Table{
		Title:  "Ablation: measurement-noise sensitivity of classification and LkT tuning",
		Header: []string{"noise x", "misclassified", "LkT mean err %"},
	}
	for _, scale := range scales {
		sampler := perfctr.NewSampler(sim.NewRNG(env.Seed + int64(scale*100)))
		sampler.BaseNoise *= scale
		sampler.MuxNoise *= scale
		prof := &core.Profiler{Model: env.Model, Sampler: sampler}

		mis := 0
		total := 0
		var errSum float64
		for _, app := range workloads.Testing() {
			o, err := prof.Observe(app, 5)
			if err != nil {
				return Table{}, data, err
			}
			total++
			if env.DB.Classifier().Classify(o) != app.Class {
				mis++
			}
		}
		for _, tp := range pairs {
			a := workloads.MustLookup(tp.NameA)
			b := workloads.MustLookup(tp.NameB)
			oa, err := prof.Observe(*a.App(), tp.SizeA)
			if err != nil {
				return Table{}, data, err
			}
			ob, err := prof.Observe(*b.App(), tp.SizeB)
			if err != nil {
				return Table{}, data, err
			}
			cfg, err := env.LkT.PredictBest(oa, ob)
			if err != nil {
				return Table{}, data, err
			}
			out, err := env.Oracle.EvalPair(a, tp.SizeA*1024, b, tp.SizeB*1024, cfg)
			if err != nil {
				return Table{}, data, err
			}
			colao, err := env.Oracle.COLAO(a, tp.SizeA*1024, b, tp.SizeB*1024)
			if err != nil {
				return Table{}, data, err
			}
			errSum += 100 * (out.EDP - colao.Out.EDP) / colao.Out.EDP
		}
		data.Misclassified = append(data.Misclassified, mis)
		data.Total = total
		mean := errSum / float64(len(pairs))
		data.MeanErrPct = append(data.MeanErrPct, mean)
		tbl.AddRow(scale, fmt.Sprintf("%d/%d", mis, total), mean)
	}
	tbl.Notes = append(tbl.Notes,
		"the paper's 3-run averaging keeps single-digit noise harmless; classification degrades first")
	return tbl, data, nil
}

// AblationBeyondTwoData records EDP per co-location degree.
type AblationBeyondTwoData struct {
	Degree []int
	// RelEDP is the per-unit-of-work EDP normalized to the 2-way run.
	RelEDP []float64
}

// AblationBeyondTwo reproduces the §4.2 observation that co-locating
// more than two applications per node degrades energy efficiency: the
// same total work (eight sort+terasort jobs) is run 2-, 4- and 8-way
// co-located and scored per unit of work.
func AblationBeyondTwo(env *Env) (Table, AblationBeyondTwoData, error) {
	var data AblationBeyondTwoData
	apps := []string{"st", "ts"}
	mk := func(degree int) ([]mapreduce.RunSpec, error) {
		mappers := env.Model.Spec.Cores / degree
		if mappers < 1 {
			return nil, fmt.Errorf("degree %d exceeds cores", degree)
		}
		var specs []mapreduce.RunSpec
		for i := 0; i < degree; i++ {
			specs = append(specs, mapreduce.RunSpec{
				App:    workloads.MustLookup(apps[i%2]).App(),
				DataMB: 10240,
				Cfg:    mapreduce.Config{Freq: 2.0, Block: 256, Mappers: mappers},
			})
		}
		return specs, nil
	}
	tbl := Table{
		Title:  "Ablation: co-locating beyond two applications per node (EDP per unit work, 2-way = 1)",
		Header: []string{"co-located apps", "EDP per unit work (norm.)"},
	}
	var base float64
	for _, degree := range []int{2, 4, 8} {
		specs, err := mk(degree)
		if err != nil {
			return Table{}, data, err
		}
		co, err := env.Model.CoLocate(specs)
		if err != nil {
			return Table{}, data, err
		}
		// Per unit of work: a k-way run does k/2 times the work of the
		// 2-way run; serialized 2-way batches would scale EDP by (k/2)².
		factor := float64(degree) / 2
		perWork := co.EDP / (factor * factor)
		if degree == 2 {
			base = perWork
		}
		rel := perWork / base
		data.Degree = append(data.Degree, degree)
		data.RelEDP = append(data.RelEDP, rel)
		tbl.AddRow(degree, rel)
	}
	tbl.Notes = append(tbl.Notes,
		"paper §4.2: co-locating 4+ applications degrades EDP significantly; 2 is the sweet spot")
	return tbl, data, nil
}

// AblationSizeAwareData compares class-only pairing against the
// size-aware extension on size-mixed workloads.
type AblationSizeAwareData struct {
	// EDP/UB per scenario for the class-only and size-aware variants.
	ClassOnly map[string]float64
	SizeAware map[string]float64
}

// AblationSizeAware evaluates the size-aware pairing extension: on
// workloads whose jobs mix 1/5/10 GB inputs, preferring duration-matched
// partners within the best class should close part of the gap to UB
// (which optimizes the matching globally). On uniform-size workloads the
// extension is a no-op by construction.
func AblationSizeAware(env *Env, nodes int) (Table, AblationSizeAwareData, error) {
	data := AblationSizeAwareData{
		ClassOnly: map[string]float64{},
		SizeAware: map[string]float64{},
	}
	tbl := Table{
		Title:  "Ablation: size-aware pairing on size-mixed workloads (EDP normalized to UB)",
		Header: []string{"scenario", "class-only", "size-aware"},
	}
	for _, name := range []string{"WS3", "WS4", "WS6"} {
		wl, err := core.ScenarioMixed(name, []float64{5, 10, 1})
		if err != nil {
			return Table{}, data, err
		}
		base := &core.PolicyRunner{Oracle: env.Oracle, DB: env.DB, Tuner: env.LkT, Profiler: env.Profiler}
		ub, err := base.Run(core.UB, wl, nodes)
		if err != nil {
			return Table{}, data, err
		}
		classOnly, err := base.Run(core.ECoST, wl, nodes)
		if err != nil {
			return Table{}, data, err
		}
		sized := &core.PolicyRunner{Oracle: env.Oracle, DB: env.DB, Tuner: env.LkT, Profiler: env.Profiler, SizeAware: true}
		withSize, err := sized.Run(core.ECoST, wl, nodes)
		if err != nil {
			return Table{}, data, err
		}
		data.ClassOnly[name] = classOnly.EDP / ub.EDP
		data.SizeAware[name] = withSize.EDP / ub.EDP
		tbl.AddRow(name, data.ClassOnly[name], data.SizeAware[name])
	}
	tbl.Notes = append(tbl.Notes,
		"the paper's decision tree considers class only; on size-mixed workloads the duration tie-breaker",
		"closes a large part of the remaining gap to the brute-force matching")
	return tbl, data, nil
}
