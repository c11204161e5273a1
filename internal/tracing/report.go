package tracing

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"ecost/internal/power"
)

// The EDP attribution report rolls the span table up into the view the
// paper argues from: per-job and per-class Energy × Delay products,
// plus the cluster energy split by node-occupancy phase. Delay here is
// the job's residency (placement → completion); energy is the node
// power integrated over that residency and shared among residents, so
// the per-job joules sum exactly to the solo+co-located share of the
// cluster bill (the idle remainder is reported separately).

// JobReport is one job's attribution row.
type JobReport struct {
	Job     int
	App     string
	Class   string
	SizeGB  float64
	Node    int
	Config  string
	Partner string

	SubmitS float64
	WaitS   float64
	RunS    float64
	MapS    float64
	ReduceS float64

	EnergyJ float64
	// EDP is the job-level Energy × Delay product (joule-seconds) with
	// the residency as the delay.
	EDP float64
}

// ClassReport aggregates one application class.
type ClassReport struct {
	Class   string
	Jobs    int
	WaitS   float64 // summed
	RunS    float64 // summed
	EnergyJ float64
	EDP     float64 // summed job EDPs
}

// Report is the rolled-up attribution.
type Report struct {
	Jobs    []JobReport
	Classes []ClassReport
	// Phases re-integrates the per-node occupancy spans; TotalJ matches
	// the scheduler's EnergyJ() to float precision.
	Phases power.PhaseAccumulator
	// AttributedJ is the energy carried by job run spans (= solo +
	// co-located); the idle remainder has no job to bill.
	AttributedJ float64
}

// BuildReport rolls a span snapshot (Tracer.Spans order) into the
// attribution report.
func BuildReport(spans []Span) Report {
	byJob := map[int]*JobReport{}
	job := func(id int) *JobReport {
		r, ok := byJob[id]
		if !ok {
			r = &JobReport{Job: id, Node: -1}
			byJob[id] = r
		}
		return r
	}
	var rep Report
	for _, s := range spans {
		switch s.Kind {
		case KindJob:
			r := job(s.Attrs.Job)
			r.App = s.Attrs.App
			r.Class = s.Attrs.Class
			r.SizeGB = s.Attrs.SizeGB
			r.SubmitS = s.Start
		case KindWait:
			job(s.Attrs.Job).WaitS = s.Dur()
		case KindRun:
			r := job(s.Attrs.Job)
			r.Node = s.Attrs.Node
			r.Config = s.Attrs.Config
			r.Partner = s.Attrs.Partner
			r.RunS = s.Dur()
			r.EnergyJ += s.EnergyJ
			rep.AttributedJ += s.EnergyJ
		case KindMap:
			job(s.Attrs.Job).MapS += s.Dur()
		case KindReduce:
			job(s.Attrs.Job).ReduceS += s.Dur()
		case KindNode:
			rep.Phases.AddNamed(s.Name, s.EnergyJ)
		}
	}
	for _, r := range byJob {
		r.EDP = r.EnergyJ * r.RunS
		rep.Jobs = append(rep.Jobs, *r)
	}
	sort.Slice(rep.Jobs, func(i, j int) bool { return rep.Jobs[i].Job < rep.Jobs[j].Job })

	byClass := map[string]*ClassReport{}
	for _, r := range rep.Jobs {
		c, ok := byClass[r.Class]
		if !ok {
			c = &ClassReport{Class: r.Class}
			byClass[r.Class] = c
		}
		c.Jobs++
		c.WaitS += r.WaitS
		c.RunS += r.RunS
		c.EnergyJ += r.EnergyJ
		c.EDP += r.EDP
	}
	for _, c := range byClass {
		rep.Classes = append(rep.Classes, *c)
	}
	sort.Slice(rep.Classes, func(i, j int) bool { return rep.Classes[i].Class < rep.Classes[j].Class })
	return rep
}

// Report builds the attribution from the tracer's current spans — across
// every shard, in the merged order.
func (t *Tracer) Report() Report { return BuildReport(t.Spans()) }

// WriteText renders the report as aligned text tables. Deterministic
// for same-seed runs (all inputs are simulated quantities).
func (r Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "# ecost EDP attribution")
	fmt.Fprintf(bw, "%-4s %-6s %-6s %6s %4s %9s %9s %9s %9s %12s %14s  %-14s %s\n",
		"job", "app", "class", "size", "node", "wait_s", "run_s", "map_s", "reduce_s",
		"energy_j", "edp_js", "config", "partner")
	for _, j := range r.Jobs {
		fmt.Fprintf(bw, "%-4d %-6s %-6s %5.0fG %4d %9.1f %9.1f %9.1f %9.1f %12.1f %14.4g  %-14s %s\n",
			j.Job, j.App, j.Class, j.SizeGB, j.Node, j.WaitS, j.RunS, j.MapS, j.ReduceS,
			j.EnergyJ, j.EDP, j.Config, j.Partner)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "%-6s %5s %11s %11s %13s %15s\n",
		"class", "jobs", "wait_s", "run_s", "energy_j", "edp_js")
	for _, c := range r.Classes {
		fmt.Fprintf(bw, "%-6s %5d %11.1f %11.1f %13.1f %15.4g\n",
			c.Class, c.Jobs, c.WaitS, c.RunS, c.EnergyJ, c.EDP)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "cluster energy by occupancy phase: idle %.1f J, solo %.1f J, co-located %.1f J (total %.1f J)\n",
		r.Phases.IdleJ, r.Phases.SoloJ, r.Phases.CoJ, r.Phases.TotalJ())
	fmt.Fprintf(bw, "attributed to jobs: %.1f J (%.1f%% of total)\n",
		r.AttributedJ, pct(r.AttributedJ, r.Phases.TotalJ()))
	return bw.Flush()
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
