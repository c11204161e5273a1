package experiments

import (
	"fmt"
	"sort"

	"ecost/internal/core"
	"ecost/internal/workloads"
)

// Fig3Data summarizes the COLAO-vs-ILAO comparison per class pair.
type Fig3Data struct {
	// Ratio maps each class pair to the mean ILAO/COLAO EDP ratio over
	// the training-application pairs at equal input sizes (>1 means
	// co-located tuning wins).
	Ratio map[core.ClassPair]float64
	// MaxRatio is the largest single-pair ratio observed (the paper
	// reports up to 4.52× for I-I).
	MaxRatio     float64
	MaxRatioPair string
}

// Fig3ColaoVsIlao reproduces Figure 3: for every pair of training
// applications with the same input data size, the EDP of COLAO
// (co-located, jointly brute-force tuned) normalized to ILAO (each app
// tuned alone and run serially).
func Fig3ColaoVsIlao(env *Env) (Table, Fig3Data, error) {
	data := Fig3Data{Ratio: map[core.ClassPair]float64{}}
	counts := map[core.ClassPair]int{}

	tbl := Table{
		Title:  "Figure 3: EDP of ILAO relative to COLAO, training pairs, equal input sizes",
		Header: []string{"pair", "size", "classes", "ILAO EDP", "COLAO EDP", "ILAO/COLAO"},
	}
	training := workloads.TrainingIDs()
	for i, a := range training {
		for _, b := range training[i:] {
			for _, size := range workloads.DataSizesGB() {
				dataMB := size * 1024
				ilao, _, err := env.Oracle.ILAO(a, dataMB, b, dataMB)
				if err != nil {
					return Table{}, data, err
				}
				colao, err := env.Oracle.COLAO(a, dataMB, b, dataMB)
				if err != nil {
					return Table{}, data, err
				}
				ratio := ilao / colao.Out.EDP
				cp := core.NewClassPair(a.Class(), b.Class())
				data.Ratio[cp] += ratio
				counts[cp]++
				if ratio > data.MaxRatio {
					data.MaxRatio = ratio
					data.MaxRatioPair = fmt.Sprintf("%s+%s@%gGB (%v)", a.Name(), b.Name(), size, cp)
				}
				tbl.AddRow(a.Name()+"+"+b.Name(), fmt.Sprintf("%gGB", size), cp.String(),
					ilao, colao.Out.EDP, ratio)
			}
		}
	}
	for cp := range data.Ratio {
		data.Ratio[cp] /= float64(counts[cp])
	}

	// Per-class summary, best ratio first.
	type row struct {
		cp core.ClassPair
		r  float64
	}
	var rows []row
	for cp, r := range data.Ratio {
		rows = append(rows, row{cp, r})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].r > rows[j].r })
	for _, r := range rows {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("class mean %v: ILAO/COLAO = %.2f", r.cp, r.r))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("largest gap: %.2fx at %s (paper: up to 4.52x at I-I)", data.MaxRatio, data.MaxRatioPair))
	return tbl, data, nil
}
