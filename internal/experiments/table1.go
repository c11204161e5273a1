package experiments

import (
	"fmt"
	"math"
	"sort"

	"ecost/internal/core"
	"ecost/internal/ml"
)

// Table1Data holds the per-class-pair absolute percentage error of the
// three learning models on the training applications.
type Table1Data struct {
	// APE[pair][model] in percent; models keyed "LR", "REPTree", "MLP".
	APE map[core.ClassPair]map[string]float64
	// Average APE per model.
	Average map[string]float64
}

// Table1ModelAPE reproduces Table 1: the absolute percentage error of
// LR, REPTree and MLP when predicting the EDP of the training
// applications across all explored tuning-parameter combinations.
//
// Following the paper, this is training-set accuracy: the models are
// fitted and evaluated on the database rows of the known applications;
// the generalization question is Table 2's.
func Table1ModelAPE(env *Env) (Table, Table1Data, error) {
	all, err := env.DB.Rows()
	if err != nil {
		return Table{}, Table1Data{}, err
	}
	data := Table1Data{
		APE:     map[core.ClassPair]map[string]float64{},
		Average: map[string]float64{},
	}
	models := []*core.MLMSTP{env.LR, env.REPTree, env.MLP}

	for cp, rows := range all {
		data.APE[cp] = map[string]float64{}
		for _, m := range models {
			var sum float64
			n := 0
			for _, r := range rows {
				pred, err := m.PredictRow(cp, r)
				if err != nil {
					return Table{}, data, err
				}
				sum += ml.APE(pred, r.RelEDP)
				n++
			}
			if n > 0 {
				data.APE[cp][m.Name()] = sum / float64(n)
			}
		}
	}
	for _, m := range models {
		var sum float64
		n := 0
		for _, per := range data.APE {
			if v, ok := per[m.Name()]; ok && !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		if n > 0 {
			data.Average[m.Name()] = sum / float64(n)
		}
	}

	tbl := Table{
		Title:  "Table 1: Absolute Percentage Error (%) of training applications",
		Header: []string{"pair", "LR", "REPTree", "MLP"},
	}
	var pairs []core.ClassPair
	for cp := range data.APE {
		pairs = append(pairs, cp)
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].String() < pairs[j].String() })
	for _, cp := range pairs {
		tbl.AddRow(cp.String(), data.APE[cp]["LR"], data.APE[cp]["REPTree"], data.APE[cp]["MLP"])
	}
	tbl.AddRow("Average", data.Average["LR"], data.Average["REPTree"], data.Average["MLP"])
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("paper averages: LR 55.20%%, REPTree 4.38%%, MLP 0.77%%"))
	return tbl, data, nil
}
