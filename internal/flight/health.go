package flight

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// This file derives the shard-health observables from the recorder's
// aggregates and renders the deterministic /health report.

// jain computes Jain's fairness index J(x) = (Σx)² / (n·Σx²): 1 when
// every shard carries equal load, 1/n when one shard carries it all.
// An idle cluster (Σx == 0) is perfectly fair.
func jain(x []float64) float64 {
	var sum, sq float64
	for _, v := range x {
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(x)) * sq)
}

// jainStats is the instantaneous index over queued+active jobs.
func jainStats(stats []ShardStat) float64 {
	x := make([]float64, len(stats))
	for i, st := range stats {
		x[i] = float64(st.Queue + st.Active)
	}
	return jain(x)
}

// slope fits q = a + b·t by least squares and returns b (queued jobs
// per simulated second), 0 when the window is degenerate (fewer than
// two points, or zero time spread).
func slope(t, q []float64) float64 {
	n := float64(len(t))
	if n < 2 {
		return 0
	}
	var tm, qm float64
	for i := range t {
		tm += t[i]
		qm += q[i]
	}
	tm /= n
	qm /= n
	var num, den float64
	for i := range t {
		dt := t[i] - tm
		num += dt * (q[i] - qm)
		den += dt * dt
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// powerSkew is max/mean of the shards' per-node cumulative energy
// (normalized by each shard's node count; nil weighs shards equally): 1 when power is perfectly balanced, rising
// as one shard's nodes burn disproportionately.
func powerSkew(last []ShardStat, nodes []int) float64 {
	var sum, max float64
	for i, st := range last {
		w := 1.0
		if i < len(nodes) && nodes[i] > 0 {
			w = float64(nodes[i])
		}
		v := st.EnergyJ / w
		sum += v
		if v > max {
			max = v
		}
	}
	mean := sum / float64(len(last))
	if mean == 0 {
		return 1
	}
	return max / mean
}

// ShardHealth is one shard's row in the health report: the latest
// epoch state plus the run-cumulative aggregates.
type ShardHealth struct {
	Shard      int     `json:"shard"`
	Nodes      int     `json:"nodes,omitempty"`
	Queue      int     `json:"queue"`
	Free       int     `json:"free"`
	Active     int     `json:"active"`
	EnergyJ    float64 `json:"energy_j"`
	TuneHits   int64   `json:"tune_hits"`
	TuneMisses int64   `json:"tune_misses"`
	Joins      int64   `json:"joins"`
	ErrMeanPct float64 `json:"err_mean_pct"`
	Drifts     int64   `json:"drifts"`
	LoadJobS   float64 `json:"load_job_s"`
	StealsIn   int64   `json:"steals_in"`
	StealsOut  int64   `json:"steals_out"`
}

// HealthReport aggregates the recorder into the shard-health
// observables. Build with Recorder.Health; render with WriteText.
type HealthReport struct {
	Shards        int           `json:"shards"`
	Epochs        int           `json:"epochs"`
	RingLen       int           `json:"ring_len"`
	RingCap       int           `json:"ring_cap"`
	Dropped       int           `json:"dropped"`
	AtS           float64       `json:"at_s"`
	Steals        int64         `json:"steals"`
	Flow          [][]int64     `json:"steal_flow"`
	FairnessQueue float64       `json:"fairness_queue"`
	FairnessLoad  float64       `json:"fairness_load"`
	QueueSlope    float64       `json:"queue_slope_jobs_per_s"`
	SlopeWindow   int           `json:"slope_window"`
	PowerSkew     float64       `json:"power_skew"`
	PerShard      []ShardHealth `json:"per_shard"`
	Triggers      []Trigger     `json:"triggers,omitempty"`
	TriggersTotal int           `json:"triggers_total"`
	Dumps         int           `json:"dumps"`
}

// Health derives the current shard-health report. On a nil recorder it
// returns the zero report (Shards == 0).
func (r *Recorder) Health() HealthReport {
	if r == nil {
		return HealthReport{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := len(r.cur)
	h := HealthReport{
		Shards:        s,
		Epochs:        r.epochs,
		RingLen:       r.count,
		RingCap:       cap(r.ring),
		Dropped:       r.dropped,
		AtS:           r.lastT,
		Flow:          make([][]int64, s),
		FairnessQueue: r.fairLast,
		FairnessLoad:  jain(r.loadJobS),
		QueueSlope:    r.slope,
		SlopeWindow:   queueSlopeWindow,
		PowerSkew:     powerSkew(r.last, r.nodes),
		Triggers:      append([]Trigger(nil), r.triggers...),
		TriggersTotal: r.triggersTotal,
		Dumps:         len(r.dumps),
	}
	var stealsIn, stealsOut []int64 = make([]int64, s), make([]int64, s)
	for i, row := range r.flow {
		h.Flow[i] = append([]int64(nil), row...)
		for j, n := range row {
			stealsOut[i] += n
			stealsIn[j] += n
			h.Steals += n
		}
	}
	for i := 0; i < s; i++ {
		sh := ShardHealth{
			Shard:      i,
			Nodes:      r.nodes[i],
			Queue:      r.last[i].Queue,
			Free:       r.last[i].Free,
			Active:     r.last[i].Active,
			EnergyJ:    r.last[i].EnergyJ,
			TuneHits:   r.last[i].TuneHits,
			TuneMisses: r.last[i].TuneMisses,
			Joins:      r.joins[i],
			Drifts:     r.drifts[i],
			LoadJobS:   r.loadJobS[i],
			StealsIn:   stealsIn[i],
			StealsOut:  stealsOut[i],
		}
		if r.joins[i] > 0 {
			sh.ErrMeanPct = r.errSum[i] / float64(r.joins[i])
		}
		h.PerShard = append(h.PerShard, sh)
	}
	return h
}

// fm renders a float at six significant digits — deterministic (a pure
// function of the value) and short enough that the health report stays
// readable; exact values live in the JSON exports, not this text view.
func fm(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// WriteText renders the report as a deterministic text exposition (the
// /health endpoint and -health-report output).
func (h HealthReport) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# shard health")
	fmt.Fprintf(bw, "shards %d, epochs %d (ring %d/%d, dropped %d), sim-time %s s\n",
		h.Shards, h.Epochs, h.RingLen, h.RingCap, h.Dropped, fm(h.AtS))
	fmt.Fprintf(bw, "steals %d total\n", h.Steals)
	fmt.Fprintf(bw, "fairness (Jain) queue %s, load %s\n", fm(h.FairnessQueue), fm(h.FairnessLoad))
	fmt.Fprintf(bw, "queue growth %s jobs/s (window %d)\n", fm(h.QueueSlope), h.SlopeWindow)
	fmt.Fprintf(bw, "power skew %s (max/mean per-node J)\n", fm(h.PowerSkew))
	fmt.Fprintf(bw, "\n%5s %5s %6s %6s %6s %14s %9s %9s %6s %8s %5s %5s %5s\n",
		"shard", "nodes", "queue", "free", "active", "energy_j", "tune_hit", "tune_miss", "joins", "err%", "drift", "in", "out")
	for _, s := range h.PerShard {
		fmt.Fprintf(bw, "%5d %5d %6d %6d %6d %14.6g %9d %9d %6d %8.2f %5d %5d %5d\n",
			s.Shard, s.Nodes, s.Queue, s.Free, s.Active, s.EnergyJ,
			s.TuneHits, s.TuneMisses, s.Joins, s.ErrMeanPct, s.Drifts, s.StealsIn, s.StealsOut)
	}
	if h.Steals > 0 {
		fmt.Fprintf(bw, "\nsteal-flow matrix (row=from, col=to):\n%6s", "")
		for j := range h.Flow {
			fmt.Fprintf(bw, " %5d", j)
		}
		fmt.Fprintln(bw)
		for i, row := range h.Flow {
			fmt.Fprintf(bw, "%6d", i)
			for _, n := range row {
				if n == 0 {
					fmt.Fprintf(bw, " %5s", ".")
				} else {
					fmt.Fprintf(bw, " %5d", n)
				}
			}
			fmt.Fprintln(bw)
		}
	}
	fmt.Fprintf(bw, "\ntriggers %d (%d dumped, %d kept)\n", h.TriggersTotal, h.Dumps, len(h.Triggers))
	for _, tr := range h.Triggers {
		fmt.Fprintf(bw, "  [epoch %d] %s at %s s: value %s vs bound %s; shards %v; tenants %v\n",
			tr.Epoch, tr.Kind, fm(tr.AtS), fm(tr.Value), fm(tr.Bound), tr.Shards, tr.Tenants)
	}
	return bw.Flush()
}
