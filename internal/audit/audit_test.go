package audit

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// fakeOracle serves fixed references: solo EDP 100 for every app, pair
// EDP 1000 for every pair, with one app name that always errors.
type fakeOracle struct{}

func (fakeOracle) SoloBestEDP(app string, sizeGB float64) (float64, error) {
	if app == "broken" {
		return 0, fmt.Errorf("no such app")
	}
	return 100, nil
}

func (fakeOracle) PairBestEDP(a string, sa float64, b string, sb float64) (float64, error) {
	if a == "broken" || b == "broken" {
		return 0, fmt.Errorf("no such app")
	}
	return 1000, nil
}

// drive records a tiny deterministic scenario: job 0 solo-placed and
// never co-located, jobs 1 and 2 paired (2 leaps over head 3).
func drive(l *Log) {
	l.Submit(0, "nb", 5, "C", "C", 0)
	l.Place(0, 0, 1, BranchReserve, -1)
	l.Tune(0, "LkT", "cfg0", TuneSolo, Expectation{EDP: 500, TimeS: 10, PowerW: 50})

	l.Submit(1, "pr", 5, "H", "H", 2)
	l.Place(1, 1, 3, BranchReserve, -1)
	l.Tune(1, "LkT", "cfg1", TuneSolo, Expectation{EDP: 800})

	l.Submit(3, "st", 5, "I", "M", 4) // misclassified, stays queued (head)
	l.Submit(2, "km", 5, "I", "I", 4)
	l.Place(2, 1, 5, BranchPairLeap, 3)
	l.Tune(2, "LkT", "cfg2", TunePair, Expectation{EDP: 2000})
	l.Retune(1, "cfg1'")
	l.Paired(1, 2, 1, 5, BranchPairLeap, Expectation{EDP: 2000})

	// Energy: job 0 solo 10 J; jobs 1+2 get 30 J and 20 J.
	l.AddEnergy(0, 10)
	l.AddEnergy(1, 30)
	l.AddEnergy(2, 20)
}

func TestLogJoinsAndRecords(t *testing.T) {
	l := NewLog(DriftConfig{})
	drive(l)

	// Job 0 completes at t=11: solo join, realized EDP = 10 J × 10 s.
	joins, alerts := l.Complete(0, 11)
	if len(alerts) != 0 {
		t.Fatalf("unexpected alerts: %v", alerts)
	}
	if len(joins) != 1 {
		t.Fatalf("want 1 solo join, got %v", joins)
	}
	j := joins[0]
	wantReal := 10.0 * 10
	if j.Pair || j.Job != 0 || j.Class != "C" || j.RealEDP != wantReal {
		t.Fatalf("bad solo join: %+v", j)
	}
	wantErr := 100 * math.Abs(500-wantReal) / wantReal
	if j.RelErrPct != wantErr {
		t.Fatalf("rel err = %g, want %g", j.RelErrPct, wantErr)
	}

	// Job 1 completes at t=9; pairing not realized until job 2 is done.
	joins, _ = l.Complete(1, 9)
	if len(joins) != 0 {
		t.Fatalf("pair joined early: %v", joins)
	}

	// Job 2 completes at t=15: pair join over the union window [3,15]
	// with 30+20 J.
	joins, _ = l.Complete(2, 15)
	if len(joins) != 1 || !joins[0].Pair {
		t.Fatalf("want 1 pair join, got %v", joins)
	}
	wantPair := (30.0 + 20.0) * (15 - 3)
	if joins[0].RealEDP != wantPair || joins[0].Class != "I" || joins[0].Job != 2 {
		t.Fatalf("bad pair join: %+v (want real %g)", joins[0], wantPair)
	}

	ds := l.Decisions()
	if len(ds) != 4 {
		t.Fatalf("want 4 decisions, got %d", len(ds))
	}
	d0, d1, d2, d3 := ds[0], ds[1], ds[2], ds[3]
	if d0.Colocated || d0.Partner != -1 || d0.Branch != BranchReserve {
		t.Fatalf("job 0: %+v", d0)
	}
	if !d1.Colocated || d1.Partner != 2 || d1.Retune != "cfg1'" {
		t.Fatalf("job 1: %+v", d1)
	}
	if d2.Branch != BranchPairLeap || d2.LeapOver != 3 || d2.Path != TunePair {
		t.Fatalf("job 2: %+v", d2)
	}
	if d3.Done || d3.Branch != BranchNone || d3.TrueClass != "I" || d3.PredClass != "M" {
		t.Fatalf("job 3: %+v", d3)
	}
	if d0.EDP != wantReal || d0.RelErrPct != wantErr {
		t.Fatalf("job 0 realized: %+v", d0)
	}

	ps := l.Pairings()
	if len(ps) != 1 || ps[0].RealEDP != wantPair || ps[0].Resident != 1 || ps[0].Incoming != 2 {
		t.Fatalf("pairings: %+v", ps)
	}
}

func TestQualityReport(t *testing.T) {
	l := NewLog(DriftConfig{})
	drive(l)
	l.Complete(0, 11)
	l.Complete(1, 9)
	l.Complete(2, 15)

	r := l.Quality(fakeOracle{})
	if r.Jobs != 4 || r.Completed != 3 || r.Joined != 2 {
		t.Fatalf("counts: %+v", r)
	}
	// Confusion: C→C, H→H, I→I, I→M; accuracy 3/4.
	if r.Accuracy != 0.75 {
		t.Fatalf("accuracy = %g", r.Accuracy)
	}
	cells := map[string]int{}
	for _, c := range r.Confusion {
		cells[c.True+">"+c.Pred] = c.N
	}
	if cells["I>M"] != 1 || cells["I>I"] != 1 || cells["C>C"] != 1 || cells["H>H"] != 1 {
		t.Fatalf("confusion: %v", cells)
	}
	// Histograms keyed by predicted class of the joined job.
	if len(r.Hist) != 2 || r.Hist[0].Class != "C" || r.Hist[1].Class != "I" {
		t.Fatalf("hist classes: %+v", r.Hist)
	}
	// Interference only for co-located completed jobs (1 and 2).
	if len(r.Interference) != 2 {
		t.Fatalf("interference: %+v", r.Interference)
	}
	if r.Interference[0].Job != 1 || r.Interference[0].Ratio != (30.0*6)/100 {
		t.Fatalf("interference row 0: %+v", r.Interference[0])
	}
	// Regret for the one realized pairing vs the fake oracle's 1000.
	if len(r.Regret) != 1 {
		t.Fatalf("regret: %+v", r.Regret)
	}
	wantRegret := 100 * (600.0 - 1000) / 1000
	if r.Regret[0].RegretPct != wantRegret || r.Regret[0].Apps != "pr+km" {
		t.Fatalf("regret row: %+v", r.Regret[0])
	}

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"accuracy 75.0%", "pr+km", "drift", "class C"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}

	// Without an oracle the reference sections stay empty.
	r2 := l.Quality(nil)
	if len(r2.Interference) != 0 || len(r2.Regret) != 0 {
		t.Fatalf("nil oracle produced reference rows: %+v", r2)
	}
}

func TestQualityOracleErrors(t *testing.T) {
	l := NewLog(DriftConfig{})
	l.Submit(0, "broken", 5, "C", "C", 0)
	l.Submit(1, "broken", 5, "C", "C", 0)
	l.Place(0, 0, 0, BranchReserve, -1)
	l.Place(1, 0, 0, BranchPairHead, -1)
	l.Paired(0, 1, 0, 0, BranchPairHead, Expectation{EDP: 1})
	l.AddEnergy(0, 5)
	l.AddEnergy(1, 5)
	l.Complete(0, 10)
	l.Complete(1, 10)
	r := l.Quality(fakeOracle{})
	if r.OracleErrors != 3 { // 2 interference rows + 1 regret row skipped
		t.Fatalf("oracle errors = %d, want 3", r.OracleErrors)
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	render := func() string {
		l := NewLog(DriftConfig{})
		drive(l)
		l.Complete(0, 11)
		l.Complete(1, 9)
		l.Complete(2, 15)
		var buf bytes.Buffer
		if err := l.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("JSONL not deterministic:\n%s\nvs\n%s", a, b)
	}
	if n := strings.Count(a, "\n"); n != 4 {
		t.Fatalf("want 4 JSONL lines, got %d", n)
	}
	if !strings.Contains(a, `"branch":"pair_leap"`) || !strings.Contains(a, `"leap_over":3`) {
		t.Fatalf("JSONL missing branch fields:\n%s", a)
	}
}

func TestNilLogIsSafe(t *testing.T) {
	var l *Log
	if l.Enabled() {
		t.Fatal("nil log enabled")
	}
	l.Submit(0, "nb", 5, "C", "C", 0)
	l.Place(0, 0, 0, BranchReserve, -1)
	l.Tune(0, "LkT", "cfg", TuneSolo, Expectation{})
	l.Retune(0, "cfg")
	l.Paired(0, 1, 0, 0, BranchPairHead, Expectation{})
	l.AddEnergy(0, 1)
	if joins, alerts := l.Complete(0, 1); joins != nil || alerts != nil {
		t.Fatal("nil log returned joins")
	}
	if l.Decisions() != nil || l.Pairings() != nil || l.Joins() != nil || l.Alerts() != nil {
		t.Fatal("nil log returned records")
	}
	r := l.Quality(fakeOracle{})
	if r.Jobs != 0 {
		t.Fatal("nil log produced a report")
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil log wrote JSONL")
	}
	if l.Shard(3) != nil {
		t.Fatal("nil log has a non-nil shard")
	}
}

// TestLogShards checks that shards of one log keep their own records
// and drift detectors: a stolen job's submit-only record at its home
// shard and its full record at the thief are two records, and only the
// shard whose joins drift alarms.
func TestLogShards(t *testing.T) {
	l := NewLog(DriftConfig{Delta: 10, Lambda: 5, MinSamples: 1})
	home, thief := l, l.Shard(1)
	home.Submit(7, "nb", 5, "C", "C", 0)
	thief.Submit(7, "nb", 5, "C", "C", 0)
	thief.Place(7, 4, 10, BranchReserve, -1)
	thief.Tune(7, "LkT", "cfg", TuneSolo, Expectation{EDP: 100})
	thief.AddEnergy(7, 50)
	joins, alerts := thief.Complete(7, 20)
	if len(joins) != 1 || len(alerts) != 1 {
		t.Fatalf("thief joins %d alerts %d, want 1 and 1", len(joins), len(alerts))
	}
	if d := home.Decisions(); len(d) != 1 || d[0].Done || d[0].Node != -1 {
		t.Fatalf("home shard records = %+v, want one submit-only record", d)
	}
	if d := l.Shard(1).Decisions(); len(d) != 1 || !d[0].Done || d[0].Node != 4 {
		t.Fatalf("thief shard records = %+v, want one completed record on node 4", d)
	}
	if len(home.Joins()) != 0 || len(home.Alerts()) != 0 || home.Quality(nil).Drift.Samples != 0 {
		t.Fatal("the thief's join reached the home shard's detector")
	}
	if q := thief.Quality(nil); q.Jobs != 1 || q.Drift.Samples != 0 || len(q.Drift.Alerts) != 1 {
		t.Fatalf("thief quality = %+v, want one job and one alert (detector reset)", q)
	}
	if l.Shard(0).records != home.records {
		t.Fatal("Shard(0) is not the log NewLog returned")
	}
}

func TestUnknownJobIgnored(t *testing.T) {
	l := NewLog(DriftConfig{})
	l.Place(99, 0, 0, BranchReserve, -1)
	l.Tune(99, "LkT", "cfg", TuneSolo, Expectation{})
	l.AddEnergy(99, 1)
	if joins, _ := l.Complete(99, 1); joins != nil {
		t.Fatal("unknown job joined")
	}
	if len(l.Decisions()) != 0 {
		t.Fatal("unknown job created a record")
	}
}

func TestEnumStrings(t *testing.T) {
	for want, got := range map[string]string{
		"none": BranchNone.String(), "reserve": BranchReserve.String(),
		"pair_head": BranchPairHead.String(), "pair_leap": BranchPairLeap.String(),
		"unknown": Branch(99).String(),
	} {
		if got != want {
			t.Fatalf("branch: got %q want %q", got, want)
		}
	}
	if TuneNone.String() != "none" || TunePair.String() != "pair" ||
		TuneSolo.String() != "solo" || TunePath(99).String() != "unknown" {
		t.Fatal("tune path strings")
	}
}

// BenchmarkDisabledAudit proves the nil-log fast path is a single
// branch: ≤1 ns/op, zero allocations (the acceptance bar shared with
// the nil tracer and nil registry).
func BenchmarkDisabledAudit(b *testing.B) {
	var l *Log
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.AddEnergy(i, 1.5)
	}
}

// pairUp records jobs a and b placed together on node 0 at time at,
// b the incoming partner, each with 1 J of energy.
func pairUp(l *Log, a, b int, at float64) {
	for _, j := range []int{a, b} {
		l.Submit(j, "wc", 5, "C", "C", at)
		l.Place(j, 0, at, BranchPairHead, -1)
		l.AddEnergy(j, 1)
	}
	l.Paired(a, b, 0, at, BranchPairHead, Expectation{EDP: 4})
}

// TestCompleteVisitsOpenPairingsOnly pins the join index: a completion
// visits only its own job's open pairings, in decision order, and a
// pairing leaves the index once both members finished — so the cost of
// a completion does not grow with the pairings closed before it.
func TestCompleteVisitsOpenPairingsOnly(t *testing.T) {
	l := NewLog(DriftConfig{})
	// Resident 0 outlives partners 1..3: their pairings wait for it,
	// then join in decision order at its completion.
	for b := 1; b <= 3; b++ {
		pairUp(l, 0, b, float64(b))
		if joins, _ := l.Complete(b, float64(b)+1); len(joins) != 0 {
			t.Fatalf("pair (0,%d) joined before the resident finished: %v", b, joins)
		}
	}
	if n := len(l.open[0]); n != 3 {
		t.Fatalf("resident holds %d open pairings, want 3", n)
	}
	joins, _ := l.Complete(0, 10)
	if len(joins) != 3 || joins[0].Job != 1 || joins[1].Job != 2 || joins[2].Job != 3 {
		t.Fatalf("resident's joins %+v, want partners 1, 2, 3 in decision order", joins)
	}
	// Thousands of closed pairings leave nothing behind in the index.
	for i := 0; i < 5000; i++ {
		a, b := 10+2*i, 11+2*i
		pairUp(l, a, b, 20)
		l.Complete(a, 21)
		l.Complete(b, 22)
	}
	if len(l.open) != 0 {
		t.Fatalf("%d jobs still index open pairings after every pair closed", len(l.open))
	}
	pairUp(l, 1e6, 1e6+1, 30)
	if n := len(l.open[1e6]); n != 1 {
		t.Fatalf("a fresh pair's job indexes %d pairings, want 1", n)
	}
	l.Complete(1e6, 31)
	if joins, _ := l.Complete(1e6+1, 32); len(joins) != 1 || !joins[0].Pair {
		t.Fatalf("fresh pair joins %+v, want its one pair join", joins)
	}
	if got := len(l.Pairings()); got != 5004 {
		t.Fatalf("log keeps %d pairings, want all 5004", got)
	}
}

// BenchmarkCompletePaired times one co-located pair's life — submit,
// place and pair both jobs, complete both — on a log that keeps every
// earlier pair: ns/op stays flat as b.N grows.
func BenchmarkCompletePaired(b *testing.B) {
	l := NewLog(DriftConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pairUp(l, 2*i, 2*i+1, float64(i))
		l.Complete(2*i, float64(i)+1)
		l.Complete(2*i+1, float64(i)+2)
	}
}
