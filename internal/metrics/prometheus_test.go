package metrics

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promSample is one parsed exposition sample.
type promSample struct {
	name   string
	labels string
	value  float64
}

// promFamily is one parsed metric family.
type promFamily struct {
	name    string
	typ     string
	samples []promSample
}

var (
	promMetricRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (\S+)$`)
)

// parsePromText is a strict parser for the subset of the text
// exposition format 0.0.4 the renderer emits. It rejects any line that
// is not a well-formed HELP, TYPE, or sample line, samples appearing
// outside their family, duplicate families, and duplicate samples. The
// non-fatal error form lets the fuzz target report the exposition that
// broke it alongside the parse error.
func parsePromText(text string) ([]promFamily, error) {
	var fams []promFamily
	var cur *promFamily
	helpSeen := map[string]bool{}
	seen := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !promMetricRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: malformed HELP: %q", ln+1, line)
			}
			if helpSeen[name] {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helpSeen[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !promMetricRe.MatchString(fields[0]) {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch fields[1] {
			case "counter", "gauge", "summary", "histogram", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown type %q", ln+1, fields[1])
			}
			if !helpSeen[fields[0]] {
				return nil, fmt.Errorf("line %d: TYPE for %s without preceding HELP", ln+1, fields[0])
			}
			fams = append(fams, promFamily{name: fields[0], typ: fields[1]})
			cur = &fams[len(fams)-1]
		case strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("line %d: unexpected comment %q", ln+1, line)
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				return nil, fmt.Errorf("line %d: malformed sample: %q", ln+1, line)
			}
			name, labels, raw := m[1], m[2], m[3]
			v, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q: %v", ln+1, raw, err)
			}
			if cur == nil {
				return nil, fmt.Errorf("line %d: sample %q before any TYPE", ln+1, name)
			}
			base := cur.name
			if name != base && name != base+"_sum" && name != base+"_count" {
				return nil, fmt.Errorf("line %d: sample %q outside family %q", ln+1, name, base)
			}
			if (name == base+"_sum" || name == base+"_count") && cur.typ != "summary" && cur.typ != "histogram" {
				return nil, fmt.Errorf("line %d: %s sample in %s family", ln+1, name, cur.typ)
			}
			key := name + labels
			if seen[key] {
				return nil, fmt.Errorf("line %d: duplicate sample %q", ln+1, key)
			}
			seen[key] = true
			cur.samples = append(cur.samples, promSample{name: name, labels: labels, value: v})
		}
	}
	return fams, nil
}

// parsePrometheus is the test-fatal wrapper around parsePromText.
func parsePrometheus(t *testing.T, text string) []promFamily {
	t.Helper()
	fams, err := parsePromText(text)
	if err != nil {
		t.Fatalf("%v\nexposition:\n%s", err, text)
	}
	return fams
}

// promRegistry builds a registry exercising every instrument kind with
// the awkward names the scheduler actually uses.
func promRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("sched.submitted").Add(16)
	reg.Counter("sched.pair.C+C").Add(3)
	reg.Gauge("power.energy_j.idle").Set(331.61)
	reg.Gauge("trace.jobs").Set(16)
	h := reg.Histogram("sched.wait_s.I/O", ExpBuckets(16, 2, 8))
	for _, v := range []float64{12, 40, 95, 300, 1200} {
		h.Observe(v)
	}
	reg.Histogram("stp.predict.evals", ExpBuckets(1, 4, 6)) // empty histogram
	s := reg.Series("sched.queue_depth")
	s.Sample(0, 1)
	s.Sample(10, 4)
	return reg
}

// TestPrometheusRoundTrip renders a representative snapshot and parses
// it back, checking family structure and values survive.
func TestPrometheusRoundTrip(t *testing.T) {
	snap := promRegistry().Snapshot(false)
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parsePrometheus(t, buf.String())
	byName := map[string]promFamily{}
	for _, f := range fams {
		byName[f.name] = f
	}
	want := map[string]string{
		"ecost_sched_submitted":     "counter",
		"ecost_sched_pair_C_C":      "counter",
		"ecost_power_energy_j_idle": "gauge",
		"ecost_trace_jobs":          "gauge",
		"ecost_sched_wait_s_I_O":    "summary",
		"ecost_stp_predict_evals":   "summary",
		"ecost_sched_queue_depth":   "gauge",
	}
	for name, typ := range want {
		f, ok := byName[name]
		if !ok {
			t.Fatalf("family %s missing; exposition:\n%s", name, buf.String())
		}
		if f.typ != typ {
			t.Errorf("family %s has type %s, want %s", name, f.typ, typ)
		}
	}
	// Value fidelity.
	if f := byName["ecost_sched_submitted"]; len(f.samples) != 1 || f.samples[0].value != 16 {
		t.Errorf("counter samples = %+v", f.samples)
	}
	if f := byName["ecost_power_energy_j_idle"]; len(f.samples) != 1 || f.samples[0].value != 331.61 {
		t.Errorf("gauge samples = %+v", f.samples)
	}
	// The populated summary carries three quantiles + sum + count, with
	// non-decreasing quantile values and the exact observation count.
	f := byName["ecost_sched_wait_s_I_O"]
	if len(f.samples) != 5 {
		t.Fatalf("summary samples = %+v", f.samples)
	}
	var qs []float64
	for _, sm := range f.samples {
		switch {
		case strings.HasSuffix(sm.name, "_count"):
			if sm.value != 5 {
				t.Errorf("summary count = %v, want 5", sm.value)
			}
		case strings.HasSuffix(sm.name, "_sum"):
			if sm.value != 12+40+95+300+1200 {
				t.Errorf("summary sum = %v", sm.value)
			}
		default:
			if !strings.Contains(sm.labels, "quantile=") {
				t.Errorf("quantile sample missing label: %+v", sm)
			}
			qs = append(qs, sm.value)
		}
	}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Errorf("quantiles not monotone: %v", qs)
		}
	}
	// The empty summary omits quantiles but keeps sum/count.
	if f := byName["ecost_stp_predict_evals"]; len(f.samples) != 2 {
		t.Errorf("empty summary samples = %+v", f.samples)
	}
	// The series gauge carries the latest sample.
	if f := byName["ecost_sched_queue_depth"]; len(f.samples) != 1 || f.samples[0].value != 4 {
		t.Errorf("series samples = %+v", f.samples)
	}
}

// TestPrometheusShardedRoundTrip renders one registry that two shards
// recorded into, different instruments on each, and parses the merged
// exposition back: one family per instrument, one shard="i" sample per
// shard that holds it, values intact.
func TestPrometheusShardedRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg0, reg1 := reg.Shard(0), reg.Shard(1)
	reg0.Counter("sched.submitted").Add(16)
	reg0.Gauge("power.energy_j.idle").Set(331.61)
	h := reg0.Histogram("sched.wait_s", ExpBuckets(16, 2, 8))
	h.Observe(12)
	h.Observe(40)
	reg0.Series("sched.queue_depth").Sample(0, 3)
	reg1.Counter("sched.submitted").Add(9)
	reg1.Counter("sched.steals_in").Add(4) // only shard 1 has this one
	reg1.Gauge("power.energy_j.idle").Set(120.5)

	var buf bytes.Buffer
	if err := reg.Snapshot(false).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parsePrometheus(t, buf.String())
	byName := map[string]promFamily{}
	for _, f := range fams {
		byName[f.name] = f
	}
	sub, ok := byName["ecost_sched_submitted"]
	if !ok || len(sub.samples) != 2 {
		t.Fatalf("submitted family = %+v\n%s", sub, buf.String())
	}
	if sub.samples[0].labels != `{shard="0"}` || sub.samples[0].value != 16 {
		t.Errorf("shard 0 sample = %+v", sub.samples[0])
	}
	if sub.samples[1].labels != `{shard="1"}` || sub.samples[1].value != 9 {
		t.Errorf("shard 1 sample = %+v", sub.samples[1])
	}
	// The shard-1-only counter has exactly one labeled sample.
	if f := byName["ecost_sched_steals_in"]; len(f.samples) != 1 || f.samples[0].labels != `{shard="1"}` {
		t.Errorf("steals_in samples = %+v", f.samples)
	}
	// The shard-0-only summary: 3 quantiles + sum + count, every label
	// set carrying the shard.
	f := byName["ecost_sched_wait_s"]
	if f.typ != "summary" || len(f.samples) != 5 {
		t.Fatalf("wait_s family = %+v", f)
	}
	for _, sm := range f.samples {
		if !strings.Contains(sm.labels, `shard="0"`) {
			t.Errorf("summary sample missing shard label: %+v", sm)
		}
	}
	// Determinism across renders.
	var again bytes.Buffer
	if err := reg.Snapshot(false).WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if buf.String() != again.String() {
		t.Fatal("sharded exposition not deterministic")
	}
	// One shard's part renders the unlabeled one-shard layout.
	var one bytes.Buffer
	if err := reg.Snapshot(false).Shard(1).WritePrometheus(&one); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(one.String(), "ecost_sched_submitted 9\n") || strings.Contains(one.String(), `shard="`) {
		t.Errorf("shard 1's exposition is not its unlabeled one-shard layout:\n%s", one.String())
	}
}

// TestPrometheusDeterministic renders twice from equal registries.
func TestPrometheusDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		if err := promRegistry().Snapshot(false).WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("prometheus exposition not deterministic:\n%s\n---\n%s", a, b)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"sched.submitted": "ecost_sched_submitted",
		"sched.pair.C+C":  "ecost_sched_pair_C_C",
		"a-b c/d":         "ecost_a_b_c_d",
		"already_ok:x":    "ecost_already_ok:x",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}
