package experiments

import (
	"fmt"
	"math"

	"ecost/internal/cluster"
	"ecost/internal/hdfs"
	"ecost/internal/mapreduce"
	"ecost/internal/workloads"
)

// Fig2Data holds the Figure-2 series: per mapper count, the EDP
// improvement over the (64 MB, 1.2 GHz) baseline when tuning the HDFS
// block size alone, the frequency alone, and both concurrently —
// averaged across the studied applications at the large input size.
type Fig2Data struct {
	Mappers []int
	// BlockOnly / FreqOnly / Concurrent are improvement percentages
	// (0–100) per mapper count.
	BlockOnly  []float64
	FreqOnly   []float64
	Concurrent []float64
	// ConcurrentVsIndividual is the extra improvement of concurrent over
	// the best individual knob, per mapper count; Min/Max give the range
	// across applications and mapper counts (the paper reports
	// 3.73%–87.39%).
	ConcurrentVsIndividual []float64
	RangeMin, RangeMax     float64
}

// Fig2EDPImprovement reproduces Figure 2: EDP improvement from tuning
// HDFS block size and frequency individually and concurrently, as a
// function of the number of mappers.
func Fig2EDPImprovement(env *Env) (Table, Fig2Data, error) {
	const dataMB = 10 * 1024
	apps := workloads.IDs()
	cores := env.Model.Spec.Cores

	var data Fig2Data
	data.RangeMin = math.Inf(1)

	eval := func(app workloads.ID, cfg mapreduce.Config) (float64, error) {
		_, co, err := env.Model.Solo(mapreduce.RunSpec{App: app.App(), DataMB: dataMB, Cfg: cfg})
		return co.EDP, err
	}

	tbl := Table{
		Title:  "Figure 2: EDP improvement vs (64MB, 1.2GHz) baseline, by #mappers (mean over 11 apps, 10GB)",
		Header: []string{"mappers", "block-only %", "freq-only %", "concurrent %", "concurrent vs best individual %"},
	}
	for m := 1; m <= cores; m++ {
		var sumB, sumF, sumC, sumCvI float64
		for _, app := range apps {
			base, err := eval(app, mapreduce.Baseline(m))
			if err != nil {
				return Table{}, data, err
			}
			bestB := math.Inf(1) // block sweep at min frequency
			for _, b := range hdfs.BlockSizes() {
				e, err := eval(app, mapreduce.Config{Freq: cluster.MinFreq, Block: b, Mappers: m})
				if err != nil {
					return Table{}, data, err
				}
				bestB = math.Min(bestB, e)
			}
			bestF := math.Inf(1) // frequency sweep at 64MB
			for _, f := range cluster.Frequencies() {
				e, err := eval(app, mapreduce.Config{Freq: f, Block: hdfs.Block64, Mappers: m})
				if err != nil {
					return Table{}, data, err
				}
				bestF = math.Min(bestF, e)
			}
			bestC := math.Inf(1) // joint sweep
			for _, f := range cluster.Frequencies() {
				for _, b := range hdfs.BlockSizes() {
					e, err := eval(app, mapreduce.Config{Freq: f, Block: b, Mappers: m})
					if err != nil {
						return Table{}, data, err
					}
					bestC = math.Min(bestC, e)
				}
			}
			sumB += 100 * (1 - bestB/base)
			sumF += 100 * (1 - bestF/base)
			sumC += 100 * (1 - bestC/base)
			bestInd := math.Min(bestB, bestF)
			cvi := 100 * (1 - bestC/bestInd)
			sumCvI += cvi
			data.RangeMin = math.Min(data.RangeMin, cvi)
			data.RangeMax = math.Max(data.RangeMax, cvi)
		}
		n := float64(len(apps))
		data.Mappers = append(data.Mappers, m)
		data.BlockOnly = append(data.BlockOnly, sumB/n)
		data.FreqOnly = append(data.FreqOnly, sumF/n)
		data.Concurrent = append(data.Concurrent, sumC/n)
		data.ConcurrentVsIndividual = append(data.ConcurrentVsIndividual, sumCvI/n)
		tbl.AddRow(m, sumB/n, sumF/n, sumC/n, sumCvI/n)
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("concurrent-vs-individual range across apps and mappers: %.2f%%–%.2f%% (paper: 3.73%%–87.39%%)",
			data.RangeMin, data.RangeMax),
		"sensitivity shrinks as mappers increase (paper §4.1 remark)",
	)
	return tbl, data, nil
}
