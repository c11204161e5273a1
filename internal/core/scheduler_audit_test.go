package core

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"ecost/internal/audit"
	"ecost/internal/metrics"
	"ecost/internal/sim"
	"ecost/internal/tracing"
	"ecost/internal/workloads"
)

// auditedRun drives one fully-instrumented online simulation (same
// workload and seed as tracedRun/metricsRun) with the audit log,
// metrics registry, and tracer all attached.
func auditedRun(t *testing.T) (*audit.Log, *metrics.Registry, *tracing.Tracer, *ShardedScheduler) {
	t.Helper()
	fixture(t)
	s := oneShard(t, fix.lkt, NewProfiler(fix.model, sim.NewRNG(99)), 2)
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	aud := audit.NewLog(audit.DriftConfig{})
	s.SetAudit(aud)
	tr := tracing.New()
	s.SetTracer(tr)
	apps := []string{"nb", "pr", "km", "svm", "cf", "hmm", "st", "ts"}
	for i, name := range apps {
		s.Submit(workloads.MustLookup(name), 5, float64(i)*40)
	}
	if _, _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return aud, reg, tr, s
}

// TestSchedulerAuditBranches cross-checks the audit log's recorded
// decision-tree branches against the scheduler's own metrics counters.
func TestSchedulerAuditBranches(t *testing.T) {
	aud, reg, _, _ := auditedRun(t)
	decisions := aud.Decisions()
	if len(decisions) != 8 {
		t.Fatalf("decisions = %d, want 8", len(decisions))
	}
	counts := map[audit.Branch]int{}
	for _, d := range decisions {
		if !d.Done {
			t.Errorf("job %d not marked done", d.Job)
		}
		if d.Node < 0 || d.Branch == audit.BranchNone {
			t.Errorf("job %d never placed: %+v", d.Job, d)
		}
		counts[d.Branch]++
		if d.Branch == audit.BranchPairLeap && d.LeapOver < 0 {
			t.Errorf("job %d leapt but records no head: %+v", d.Job, d)
		}
		if d.Branch != audit.BranchPairLeap && d.LeapOver != -1 {
			t.Errorf("job %d did not leap but records leap_over=%d", d.Job, d.LeapOver)
		}
		if d.Method != fix.lkt.Name() {
			t.Errorf("job %d method %q, want %q", d.Job, d.Method, fix.lkt.Name())
		}
		if d.Config == "" || d.Path == audit.TuneNone {
			t.Errorf("job %d has no tuning record: %+v", d.Job, d)
		}
	}
	if counts[audit.BranchReserve] == 0 {
		t.Error("no reserve placements recorded")
	}
	pairs := counts[audit.BranchPairHead] + counts[audit.BranchPairLeap]
	if pairs == 0 {
		t.Error("no pairings recorded")
	}
	if got := int(reg.Counter("sched.reservations").Value()); got != counts[audit.BranchReserve] {
		t.Errorf("reservations counter %d != audit reserve branches %d", got, counts[audit.BranchReserve])
	}
	if got := int(reg.Counter("sched.pairings").Value()); got != pairs {
		t.Errorf("pairings counter %d != audit pair branches %d", got, pairs)
	}
	if got := int(reg.Counter("sched.leaps").Value()); got != counts[audit.BranchPairLeap] {
		t.Errorf("leaps counter %d != audit leap branches %d", got, counts[audit.BranchPairLeap])
	}
	if got := len(aud.Pairings()); got != pairs {
		t.Errorf("pairing records %d != pair placements %d", got, pairs)
	}
	// Every pairing marked both partners and carried the pair forecast
	// when the pair tuning path fired.
	byID := map[int]audit.Decision{}
	for _, d := range decisions {
		byID[d.Job] = d
	}
	for _, p := range aud.Pairings() {
		r, in := byID[p.Resident], byID[p.Incoming]
		if !r.Colocated || !in.Colocated {
			t.Errorf("pairing %d+%d members not marked colocated", p.Resident, p.Incoming)
		}
		if in.Path == audit.TunePair && p.Pred.EDP <= 0 {
			t.Errorf("pair-tuned pairing %d+%d has no forecast", p.Resident, p.Incoming)
		}
		if in.Path == audit.TunePair && r.Retune == "" {
			t.Errorf("pair-tuned pairing %d+%d did not retune the resident", p.Resident, p.Incoming)
		}
	}
}

// TestSchedulerAuditLeapForward crafts a guaranteed leap-forward: one
// node runs two same-class jobs; two more queue behind them, the head
// from the class the partner-priority order ranks last, behind it one
// from the class it ranks first. When a slot opens the decision tree
// must leap the later job past the reserved head — and the audit log
// must say so.
func TestSchedulerAuditLeapForward(t *testing.T) {
	fixture(t)
	// Pick the apps by what the fixture database actually ranks.
	base := workloads.MustLookup("nb") // Compute
	prio := fix.db.PartnerPriority(base.Class())
	appOf := map[workloads.Class]string{}
	for _, a := range workloads.IDs() {
		if _, ok := appOf[a.Class()]; !ok {
			appOf[a.Class()] = a.Name()
		}
	}
	headApp := workloads.MustLookup(appOf[prio[len(prio)-1]])
	leapApp := workloads.MustLookup(appOf[prio[0]])
	if headApp.Class() == leapApp.Class() {
		t.Fatalf("degenerate priority order %v", prio)
	}

	s := oneShard(t, fix.lkt, NewProfiler(fix.model, sim.NewRNG(99)), 1)
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	aud := audit.NewLog(audit.DriftConfig{})
	s.SetAudit(aud)

	s.Submit(base, 5, 0)    // job 0: reserve (empty node)
	s.Submit(base, 5, 1)    // job 1: pair with the head's reservation intact
	s.Submit(headApp, 5, 2) // job 2: queues as head — node is full
	s.Submit(leapApp, 5, 3) // job 3: queues behind, better partner class
	if _, _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	byID := map[int]audit.Decision{}
	for _, d := range aud.Decisions() {
		byID[d.Job] = d
	}
	if b := byID[0].Branch; b != audit.BranchReserve {
		t.Errorf("job 0 branch %v, want reserve", b)
	}
	if b := byID[1].Branch; b != audit.BranchPairHead {
		t.Errorf("job 1 branch %v, want pair_head", b)
	}
	leap := byID[3]
	if leap.Branch != audit.BranchPairLeap {
		t.Fatalf("job 3 branch %v, want pair_leap (decisions: %+v)", leap.Branch, aud.Decisions())
	}
	if leap.LeapOver != 2 {
		t.Errorf("job 3 leapt over %d, want head job 2", leap.LeapOver)
	}
	if got := int(reg.Counter("sched.leaps").Value()); got < 1 {
		t.Errorf("leaps counter %d, want >= 1", got)
	}
	var leapEvents int
	for _, e := range reg.Events() {
		if e.Kind == metrics.EvLeap && e.Job == 3 {
			leapEvents++
			if !strings.Contains(e.Detail, "over=2") {
				t.Errorf("leap event detail %q does not name the head", e.Detail)
			}
		}
	}
	if leapEvents == 0 {
		t.Error("no EvLeap event for the leaping job")
	}
	// The leapt-over head still completes, placed by a later branch.
	if head := byID[2]; !head.Done || head.Branch == audit.BranchNone {
		t.Errorf("leapt-over head never placed/completed: %+v", head)
	}
}

// TestSchedulerAuditRealizedMatchesTracing asserts the audit log's
// realized energy join is bit-identical to the tracer's span-attributed
// job report: both views bill the same equal-share division of the same
// accrual intervals, so the float64s must be exactly equal.
func TestSchedulerAuditRealizedMatchesTracing(t *testing.T) {
	aud, _, tr, _ := auditedRun(t)
	byID := map[int]audit.Decision{}
	for _, d := range aud.Decisions() {
		byID[d.Job] = d
	}
	rep := tr.Report()
	if len(rep.Jobs) != len(byID) {
		t.Fatalf("report jobs %d != audit decisions %d", len(rep.Jobs), len(byID))
	}
	for _, j := range rep.Jobs {
		d, ok := byID[j.Job]
		if !ok {
			t.Fatalf("report job %d missing from audit log", j.Job)
		}
		if d.EnergyJ != j.EnergyJ {
			t.Errorf("job %d audit energy %v != trace energy %v", j.Job, d.EnergyJ, j.EnergyJ)
		}
		if d.RunS != j.RunS {
			t.Errorf("job %d audit run %v != trace run %v", j.Job, d.RunS, j.RunS)
		}
		if d.EDP != j.EDP {
			t.Errorf("job %d audit EDP %v != trace EDP %v", j.Job, d.EDP, j.EDP)
		}
		if j.EnergyJ <= 0 || j.EDP <= 0 {
			t.Errorf("job %d has degenerate attribution: %+v", j.Job, j)
		}
	}
}

// TestSchedulerAuditQualityPopulated is the tentpole acceptance check:
// a seeded online run must yield a populated confusion matrix,
// per-class STP error histograms, at least one oracle-regret row — and
// no drift alerts under the default detector configuration.
func TestSchedulerAuditQualityPopulated(t *testing.T) {
	aud, reg, _, _ := auditedRun(t)
	r := aud.Quality(NewAuditOracle(fix.oracle))
	if r.Jobs != 8 || r.Completed != 8 {
		t.Fatalf("jobs %d completed %d, want 8/8", r.Jobs, r.Completed)
	}
	if len(r.Confusion) == 0 || len(r.Classes) == 0 {
		t.Fatal("confusion matrix empty")
	}
	var diag int
	for _, c := range r.Confusion {
		diag += c.N
	}
	if diag != r.Jobs {
		t.Errorf("confusion cells sum to %d, want %d", diag, r.Jobs)
	}
	if r.Accuracy <= 0 {
		t.Error("zero classifier accuracy on a workload the classifier handles")
	}
	if r.Joined == 0 || len(r.Hist) == 0 {
		t.Fatalf("no prediction joins (joined=%d hist=%d)", r.Joined, len(r.Hist))
	}
	for _, h := range r.Hist {
		if h.Count == 0 {
			t.Errorf("class %s histogram empty", h.Class)
		}
	}
	if len(r.Interference) == 0 {
		t.Error("no interference rows for a workload that pairs")
	}
	for _, row := range r.Interference {
		if row.Ratio <= 0 {
			t.Errorf("interference row %+v has non-positive ratio", row)
		}
	}
	if len(r.Regret) == 0 {
		t.Error("no oracle regret rows for a workload that pairs")
	}
	for _, row := range r.Regret {
		if row.OracleEDP <= 0 || row.RealEDP <= 0 {
			t.Errorf("regret row %+v has non-positive EDP", row)
		}
	}
	if r.OracleErrors != 0 {
		t.Errorf("oracle errors = %d, want 0", r.OracleErrors)
	}
	// Healthy run: the default CUSUM stays quiet, and the mirrored
	// instruments agree.
	if len(r.Drift.Alerts) != 0 {
		t.Errorf("drift alerts on a healthy run: %+v", r.Drift.Alerts)
	}
	if v := reg.Gauge("stp.drift_alert").Value(); v != 0 {
		t.Errorf("stp.drift_alert = %v, want 0", v)
	}
	if v := reg.Counter("audit.drift_alerts").Value(); v != 0 {
		t.Errorf("audit.drift_alerts = %d, want 0", v)
	}
	// Joins were mirrored into per-class histograms.
	var mirrored int64
	for _, h := range r.Hist {
		mirrored += reg.Histogram("audit.rel_err_pct."+h.Class, nil).Count()
	}
	if mirrored != int64(r.Joined) {
		t.Errorf("mirrored rel-err observations = %d, want %d", mirrored, r.Joined)
	}
}

// auditRenders renders the two -serve/-quality exports from one run.
func auditRenders(t *testing.T, aud *audit.Log) (jsonl, quality string) {
	t.Helper()
	var b1, b2 bytes.Buffer
	if err := aud.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := aud.Quality(NewAuditOracle(fix.oracle)).WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	return b1.String(), b2.String()
}

// TestSchedulerAuditGoldenAcrossGOMAXPROCS is the determinism
// acceptance golden: /decisions (JSONL) and /quality (text) must be
// byte-identical between a single-threaded and a multi-threaded run of
// the same seed.
func TestSchedulerAuditGoldenAcrossGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(1)
	aud1, _, _, _ := auditedRun(t)
	jsonl1, quality1 := auditRenders(t, aud1)
	runtime.GOMAXPROCS(4)
	aud4, _, _, _ := auditedRun(t)
	runtime.GOMAXPROCS(old)
	jsonl4, quality4 := auditRenders(t, aud4)
	if jsonl1 != jsonl4 {
		t.Errorf("decision JSONL diverged across GOMAXPROCS:\n--- 1 ---\n%s\n--- 4 ---\n%s", jsonl1, jsonl4)
	}
	if quality1 != quality4 {
		t.Errorf("quality report diverged across GOMAXPROCS:\n--- 1 ---\n%s\n--- 4 ---\n%s", quality1, quality4)
	}
	// And stable across renders of the same log.
	j, q := auditRenders(t, aud1)
	if j != jsonl1 || q != quality1 {
		t.Error("renders not byte-stable")
	}
}

// TestDriftAlertStaleDatabase is the injected-staleness acceptance
// scenario: train the STP database on small inputs only, then run much
// larger jobs through it. The size-extrapolation error must trip the
// drift detector at its default configuration, latch the gauge, and
// land EvDrift events in the metrics log.
func TestDriftAlertStaleDatabase(t *testing.T) {
	fixture(t)
	prof := NewProfiler(fix.model, sim.NewRNG(7))
	stale, err := BuildDatabase(prof, fix.oracle, workloads.Training(), BuildOptions{
		Sizes:        []float64{1},
		ConfigStride: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewShardedScheduler(fix.model, stale, NewProfiler(fix.model, sim.NewRNG(99)),
		func() STP { return &LkTSTP{DB: stale} }, 2, ShardedConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	s.SetMetrics(reg)
	aud := audit.NewLog(audit.DriftConfig{})
	s.SetAudit(aud)
	apps := []string{"nb", "pr", "km", "svm", "cf", "hmm", "st", "ts"}
	for i, name := range apps {
		s.Submit(workloads.MustLookup(name), 12, float64(i)*40)
	}
	if _, _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	alerts := aud.Alerts()
	if len(alerts) == 0 {
		t.Fatalf("stale database tripped no drift alert (joins: %+v)", aud.Joins())
	}
	if v := reg.Gauge("stp.drift_alert").Value(); v != 1 {
		t.Errorf("stp.drift_alert = %v, want latched 1", v)
	}
	if got := reg.Counter("audit.drift_alerts").Value(); got != int64(len(alerts)) {
		t.Errorf("audit.drift_alerts = %d, want %d", got, len(alerts))
	}
	var drifts int
	for _, e := range reg.Events() {
		if e.Kind == metrics.EvDrift {
			drifts++
			if !strings.Contains(e.Detail, "cusum stat=") {
				t.Errorf("drift event detail %q", e.Detail)
			}
		}
	}
	if drifts != len(alerts) {
		t.Errorf("EvDrift events = %d, want %d", drifts, len(alerts))
	}
	r := aud.Quality(nil)
	if len(r.Drift.Alerts) != len(alerts) {
		t.Errorf("quality report alerts = %d, want %d", len(r.Drift.Alerts), len(alerts))
	}
}
