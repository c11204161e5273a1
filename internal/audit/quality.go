package audit

import (
	"fmt"
	"io"
	"sort"
)

// Oracle supplies lazily-computed reference EDPs for the quality
// report: the solo-optimal baseline (interference ratios) and the
// co-location oracle COLAO (regret). Implemented in internal/core by an
// adapter over the memoizing Oracle, so repeated reports stay cheap. A
// nil Oracle skips both sections.
type Oracle interface {
	// SoloBestEDP is the app's solo-optimal EDP at the given input size.
	SoloBestEDP(app string, sizeGB float64) (float64, error)
	// PairBestEDP is COLAO's optimal pair EDP for the two apps.
	PairBestEDP(appA string, sizeAGB float64, appB string, sizeBGB float64) (float64, error)
}

// ErrBuckets are the per-class relative-error histogram edges in
// percent (a bucket counts errors ≤ its edge; the last bucket is +Inf).
var ErrBuckets = []float64{5, 10, 20, 40, 80, 160, 320, 640, 1280}

// ErrHist is one class's relative-error distribution over ErrBuckets.
type ErrHist struct {
	Class   string  `json:"class"`
	Counts  []int   `json:"counts"` // len(ErrBuckets)+1, last = overflow
	Count   int     `json:"count"`
	MeanPct float64 `json:"mean_pct"`
	MaxPct  float64 `json:"max_pct"`
}

// InterferenceRow is one co-located job's realized EDP against its
// solo-optimal baseline: the ratio is the price of sharing the node.
type InterferenceRow struct {
	Job         int     `json:"job"`
	App         string  `json:"app"`
	Class       string  `json:"class"`
	Partner     int     `json:"partner"`
	RealEDP     float64 `json:"real_edp"`
	SoloBestEDP float64 `json:"solo_best_edp"`
	Ratio       float64 `json:"ratio"`
}

// RegretRow is one realized pairing against COLAO's optimum for the
// same two applications: how much EDP the online decision left on the
// table relative to the brute-force oracle.
type RegretRow struct {
	Resident  int     `json:"resident"`
	Incoming  int     `json:"incoming"`
	Apps      string  `json:"apps"`
	RealEDP   float64 `json:"real_edp"`
	OracleEDP float64 `json:"oracle_edp"`
	RegretPct float64 `json:"regret_pct"`
}

// ConfusionCell is one (true class, predicted class) count.
type ConfusionCell struct {
	True string `json:"true"`
	Pred string `json:"pred"`
	N    int    `json:"n"`
}

// DriftSummary is the detector's configuration and current state.
type DriftSummary struct {
	Config  DriftConfig `json:"config"`
	Samples int         `json:"samples"` // since last reset
	Mean    float64     `json:"mean"`
	Stat    float64     `json:"stat"`
	Alerts  []Alert     `json:"alerts"`
}

// QualityReport aggregates the audit log into decision-quality views:
// classifier confusion, per-class STP error histograms, co-location
// interference, oracle regret, and drift state.
type QualityReport struct {
	Jobs      int `json:"jobs"`
	Completed int `json:"completed"`
	Joined    int `json:"joined"`

	Classes   []string        `json:"classes"`
	Confusion []ConfusionCell `json:"confusion"` // only non-zero cells
	Accuracy  float64         `json:"accuracy"`  // fraction of jobs classified to truth

	Hist []ErrHist `json:"hist"`

	Interference []InterferenceRow `json:"interference"`
	Regret       []RegretRow       `json:"regret"`
	// OracleErrors counts reference lookups that failed (rows skipped).
	OracleErrors int `json:"oracle_errors,omitempty"`

	Drift DriftSummary `json:"drift"`
}

// Quality builds the report from the log's current state. With a nil
// oracle the interference and regret sections stay empty. Safe on a
// nil log (returns the zero report).
func (l *Log) Quality(o Oracle) QualityReport {
	var r QualityReport
	if l == nil {
		return r
	}
	decisions := l.Decisions()
	joins := l.Joins()
	pairings := l.Pairings()

	l.mu.Lock()
	n, mean, stat := l.detector.state()
	r.Drift = DriftSummary{
		Config:  l.detector.cfg,
		Samples: n, Mean: mean, Stat: stat,
		Alerts: append([]Alert(nil), l.alerts...),
	}
	l.mu.Unlock()

	// Classifier confusion over every submitted job.
	classSet := map[string]bool{}
	cells := map[[2]string]int{}
	right := 0
	for _, d := range decisions {
		r.Jobs++
		if d.Done {
			r.Completed++
		}
		classSet[d.TrueClass] = true
		classSet[d.PredClass] = true
		cells[[2]string{d.TrueClass, d.PredClass}]++
		if d.TrueClass == d.PredClass {
			right++
		}
	}
	for c := range classSet {
		r.Classes = append(r.Classes, c)
	}
	sort.Strings(r.Classes)
	for _, t := range r.Classes {
		for _, p := range r.Classes {
			if n := cells[[2]string{t, p}]; n > 0 {
				r.Confusion = append(r.Confusion, ConfusionCell{True: t, Pred: p, N: n})
			}
		}
	}
	if r.Jobs > 0 {
		r.Accuracy = float64(right) / float64(r.Jobs)
	}

	// Per-class relative-error histograms over all joins.
	r.Joined = len(joins)
	hists := map[string]*ErrHist{}
	for _, j := range joins {
		h := hists[j.Class]
		if h == nil {
			h = &ErrHist{Class: j.Class, Counts: make([]int, len(ErrBuckets)+1)}
			hists[j.Class] = h
		}
		i := sort.SearchFloat64s(ErrBuckets, j.RelErrPct)
		h.Counts[i]++
		h.Count++
		h.MeanPct += (j.RelErrPct - h.MeanPct) / float64(h.Count)
		if j.RelErrPct > h.MaxPct {
			h.MaxPct = j.RelErrPct
		}
	}
	classes := make([]string, 0, len(hists))
	for c := range hists {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		r.Hist = append(r.Hist, *hists[c])
	}

	if o == nil {
		return r
	}

	// Interference: realized EDP of each completed co-located job over
	// its solo-optimal baseline.
	for _, d := range decisions {
		if !d.Done || !d.Colocated || d.EDP <= 0 {
			continue
		}
		solo, err := o.SoloBestEDP(d.App, d.SizeGB)
		if err != nil || solo <= 0 {
			r.OracleErrors++
			continue
		}
		r.Interference = append(r.Interference, InterferenceRow{
			Job: d.Job, App: d.App, Class: d.PredClass, Partner: d.Partner,
			RealEDP: d.EDP, SoloBestEDP: solo, Ratio: d.EDP / solo,
		})
	}

	// Regret: each realized pairing against COLAO for the same apps.
	byID := map[int]Decision{}
	for _, d := range decisions {
		byID[d.Job] = d
	}
	for _, p := range pairings {
		if p.RealEDP <= 0 {
			continue
		}
		a, okA := byID[p.Resident]
		b, okB := byID[p.Incoming]
		if !okA || !okB {
			continue
		}
		oracle, err := o.PairBestEDP(a.App, a.SizeGB, b.App, b.SizeGB)
		if err != nil || oracle <= 0 {
			r.OracleErrors++
			continue
		}
		r.Regret = append(r.Regret, RegretRow{
			Resident: p.Resident, Incoming: p.Incoming,
			Apps:    a.App + "+" + b.App,
			RealEDP: p.RealEDP, OracleEDP: oracle,
			RegretPct: 100 * (p.RealEDP - oracle) / oracle,
		})
	}
	return r
}

// WriteText renders the report deterministically (fixed precision, no
// maps iterated directly) — golden-tested byte-identical across
// same-seed runs at any GOMAXPROCS.
func (r QualityReport) WriteText(w io.Writer) error {
	var werr error
	p := func(format string, args ...any) {
		if werr == nil {
			_, werr = fmt.Fprintf(w, format, args...)
		}
	}
	p("decision quality: %d jobs, %d completed, %d prediction joins\n",
		r.Jobs, r.Completed, r.Joined)

	p("\nclassifier confusion (true class rows × predicted class columns, accuracy %.1f%%):\n",
		100*r.Accuracy)
	cells := map[[2]string]int{}
	for _, c := range r.Confusion {
		cells[[2]string{c.True, c.Pred}] = c.N
	}
	p("  %-5s", "")
	for _, c := range r.Classes {
		p(" %5s", c)
	}
	p("\n")
	for _, t := range r.Classes {
		p("  %-5s", t)
		for _, c := range r.Classes {
			p(" %5d", cells[[2]string{t, c}])
		}
		p("\n")
	}

	p("\nSTP relative error by predicted class (%% of realized EDP):\n")
	if len(r.Hist) == 0 {
		p("  (no joined predictions)\n")
	}
	for _, h := range r.Hist {
		p("  class %-2s n=%-3d mean=%.1f%% max=%.1f%%  |", h.Class, h.Count, h.MeanPct, h.MaxPct)
		for i, n := range h.Counts {
			if i < len(ErrBuckets) {
				p(" ≤%g:%d", ErrBuckets[i], n)
			} else {
				p(" >%g:%d", ErrBuckets[len(ErrBuckets)-1], n)
			}
		}
		p("\n")
	}

	p("\nco-location interference (realized job EDP ÷ solo-optimal EDP):\n")
	if len(r.Interference) == 0 {
		p("  (no completed co-located jobs, or no oracle)\n")
	}
	for _, row := range r.Interference {
		p("  job %-3d %-5s class %-2s partner %-3d  %11.4g / %11.4g = %6.2fx\n",
			row.Job, row.App, row.Class, row.Partner, row.RealEDP, row.SoloBestEDP, row.Ratio)
	}

	p("\noracle regret (realized pair EDP vs COLAO optimum):\n")
	if len(r.Regret) == 0 {
		p("  (no realized pairings, or no oracle)\n")
	}
	for _, row := range r.Regret {
		p("  pair %d+%-3d %-11s %11.4g vs %11.4g  regret %+.1f%%\n",
			row.Resident, row.Incoming, row.Apps, row.RealEDP, row.OracleEDP, row.RegretPct)
	}
	if r.OracleErrors > 0 {
		p("  (%d rows skipped: oracle lookups failed)\n", r.OracleErrors)
	}

	p("\ndrift (CUSUM over join relative error, δ=%g λ=%g warmup=%d):\n",
		r.Drift.Config.Delta, r.Drift.Config.Lambda, r.Drift.Config.MinSamples)
	p("  samples=%d mean=%.1f%% stat=%.1f alerts=%d\n",
		r.Drift.Samples, r.Drift.Mean, r.Drift.Stat, len(r.Drift.Alerts))
	for _, a := range r.Drift.Alerts {
		p("  ALERT at t=%.0fs job=%d sample=%d stat=%.1f mean=%.1f%%\n",
			a.AtS, a.Job, a.Sample, a.Stat, a.Mean)
	}
	return werr
}
