package experiments

import (
	"fmt"

	"ecost/internal/core"
	"ecost/internal/workloads"
)

// TestPair names one co-located testing workload (unknown applications).
type TestPair struct {
	NameA string
	SizeA float64
	NameB string
	SizeB float64
}

// DefaultTestPairs mirrors Table 2's subset of studied testing
// workloads: a spread of class combinations built from the unknown
// applications (NB, CF, SVM, PR, HMM, KM).
func DefaultTestPairs() []TestPair {
	return []TestPair{
		{"pr", 5, "pr", 5},    // H-H
		{"svm", 5, "km", 5},   // C-M
		{"nb", 5, "cf", 5},    // C-M (paper lists several M rows)
		{"pr", 10, "km", 10},  // H-M
		{"pr", 5, "hmm", 5},   // H-C
		{"pr", 10, "pr", 10},  // H-H
		{"hmm", 10, "cf", 10}, // C-M
		{"cf", 5, "km", 5},    // M-M
		{"nb", 1, "svm", 1},   // C-C
		{"svm", 10, "pr", 10}, // C-H
	}
}

// Table2Data holds the error of every STP technique against the COLAO
// oracle on the testing pairs.
type Table2Data struct {
	// Err[technique] lists per-pair EDP error percentages (chosen config
	// vs brute-force optimum).
	Err map[string][]float64
	// Mean[technique] is the average error — §7.1 reports LkT 8.09%,
	// LR 20.37%, REPTree 3.84%, MLP 3.43%.
	Mean map[string]float64
	// Worst[technique] is the maximum error (paper: 16% worst case for
	// REPTree/MLP).
	Worst map[string]float64
}

// Table2PredictedConfigs reproduces Table 2: for each testing pair, the
// configuration chosen by COLAO (oracle) and by each STP technique, and
// the relative EDP error of the technique's choice.
func Table2PredictedConfigs(env *Env) (Table, Table2Data, error) {
	return Table2On(env, DefaultTestPairs())
}

// Table2On runs the Table-2 comparison on a custom set of pairs.
func Table2On(env *Env, pairs []TestPair) (Table, Table2Data, error) {
	data := Table2Data{
		Err:   map[string][]float64{},
		Mean:  map[string]float64{},
		Worst: map[string]float64{},
	}
	stps := env.STPs()
	tbl := Table{
		Title: "Table 2: predicted configurations and EDP error vs COLAO (testing pairs)",
		Header: []string{"pair", "classes", "COLAO (f,h,m|f,h,m)",
			"LkT", "LR", "REPTree", "MLP",
			"LkT err%", "LR err%", "REPTree err%", "MLP err%"},
	}
	for _, tp := range pairs {
		a, err := workloads.Lookup(tp.NameA)
		if err != nil {
			return Table{}, data, err
		}
		b, err := workloads.Lookup(tp.NameB)
		if err != nil {
			return Table{}, data, err
		}
		oa, err := env.Observe(a, tp.SizeA)
		if err != nil {
			return Table{}, data, err
		}
		ob, err := env.Observe(b, tp.SizeB)
		if err != nil {
			return Table{}, data, err
		}
		colao, err := env.Oracle.COLAO(a, tp.SizeA*1024, b, tp.SizeB*1024)
		if err != nil {
			return Table{}, data, err
		}
		cells := []any{
			fmt.Sprintf("%s(%g)+%s(%g)", a.Name(), tp.SizeA, b.Name(), tp.SizeB),
			core.NewClassPair(a.Class(), b.Class()).String(),
			colao.Cfg[0].String() + "|" + colao.Cfg[1].String(),
		}
		var errs []any
		for _, s := range stps {
			cfg, err := s.PredictBest(oa, ob)
			if err != nil {
				return Table{}, data, err
			}
			out, err := env.Oracle.EvalPair(a, tp.SizeA*1024, b, tp.SizeB*1024, cfg)
			if err != nil {
				return Table{}, data, err
			}
			errPct := 100 * (out.EDP - colao.Out.EDP) / colao.Out.EDP
			data.Err[s.Name()] = append(data.Err[s.Name()], errPct)
			cells = append(cells, cfg[0].String()+"|"+cfg[1].String())
			errs = append(errs, errPct)
		}
		cells = append(cells, errs...)
		tbl.AddRow(cells...)
	}
	for name, errs := range data.Err {
		var sum, worst float64
		for _, e := range errs {
			sum += e
			if e > worst {
				worst = e
			}
		}
		data.Mean[name] = sum / float64(len(errs))
		data.Worst[name] = worst
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("mean error: LkT %.2f%%, LR %.2f%%, REPTree %.2f%%, MLP %.2f%% (paper §7.1: 8.09 / 20.37 / 3.84 / 3.43)",
			data.Mean["LkT"], data.Mean["LR"], data.Mean["REPTree"], data.Mean["MLP"]),
		fmt.Sprintf("worst case: LkT %.1f%%, LR %.1f%%, REPTree %.1f%%, MLP %.1f%%",
			data.Worst["LkT"], data.Worst["LR"], data.Worst["REPTree"], data.Worst["MLP"]))
	return tbl, data, nil
}
