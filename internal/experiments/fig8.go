package experiments

import (
	"fmt"
	"time"

	"ecost/internal/mapreduce"
	"ecost/internal/workloads"
)

// Fig8Data holds the measured STP overheads.
type Fig8Data struct {
	// TrainTime per technique. For LkT, "training" is the brute-force
	// population of the lookup table (the COLAO searches of the database
	// build), which is what the paper charges it with.
	TrainTime map[string]time.Duration
	// PredictTime is the mean per-decision latency of PredictBest.
	PredictTime map[string]time.Duration
}

// Fig8Overheads reproduces Figure 8: training time and prediction time
// of the studied STP techniques, measured on this machine.
func Fig8Overheads(env *Env) (Table, Fig8Data, error) {
	data := Fig8Data{
		TrainTime:   map[string]time.Duration{},
		PredictTime: map[string]time.Duration{},
	}
	// Training time: the MLM models record theirs, each one serial fit.
	// LkT's is the COLAO population of its table. Each BuildDatabase
	// worker searches its entries' joint grids serially on one
	// evaluator, so one such search on a representative entry, scaled
	// to the entry count, is the table's serial build time, measured the
	// way the fits are.
	ev := env.Model.NewEvaluator()
	pcs := mapreduce.PairConfigsCached(env.Model.Spec.Cores)
	a := mapreduce.RunSpec{App: workloads.MustLookup("wc").App(), DataMB: 5 * 1024}
	b := mapreduce.RunSpec{App: workloads.MustLookup("ts").App(), DataMB: 5 * 1024}
	start := time.Now()
	if _, _, err := ev.PairArgmin(a, b, pcs); err != nil {
		return Table{}, data, err
	}
	perEntry := time.Since(start)
	data.TrainTime["LkT"] = perEntry * time.Duration(len(env.DB.Entries))
	data.TrainTime["LR"] = env.LR.TrainTime()
	data.TrainTime["REPTree"] = env.REPTree.TrainTime()
	data.TrainTime["MLP"] = env.MLP.TrainTime()

	// Prediction time: average over a handful of unknown pairs.
	pairs := DefaultTestPairs()
	if len(pairs) > 4 {
		pairs = pairs[:4]
	}
	for _, s := range env.STPs() {
		var total time.Duration
		n := 0
		for _, tp := range pairs {
			appA := workloads.MustLookup(tp.NameA)
			appB := workloads.MustLookup(tp.NameB)
			oa, err := env.Observe(appA, tp.SizeA)
			if err != nil {
				return Table{}, data, err
			}
			ob, err := env.Observe(appB, tp.SizeB)
			if err != nil {
				return Table{}, data, err
			}
			t0 := time.Now()
			if _, err := s.PredictBest(oa, ob); err != nil {
				return Table{}, data, err
			}
			total += time.Since(t0)
			n++
		}
		data.PredictTime[s.Name()] = total / time.Duration(n)
	}

	tbl := Table{
		Title:  "Figure 8: (a) training and (b) prediction time of the STP techniques",
		Header: []string{"technique", "training", "prediction"},
	}
	for _, name := range []string{"LkT", "LR", "REPTree", "MLP"} {
		tbl.AddRow(name, data.TrainTime[name].Round(time.Millisecond).String(),
			data.PredictTime[name].Round(time.Microsecond).String())
	}
	tbl.Notes = append(tbl.Notes,
		"paper (on the study machine): training LR 0.13s, REPTree 0.06s, LkT 15s, MLP 77.8s;"+
			" prediction: LkT fastest, MLP slowest",
		fmt.Sprintf("LkT training = %d COLAO searches (brute-force table population)", len(env.DB.Entries)))
	return tbl, data, nil
}
