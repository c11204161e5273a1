package metrics

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fuzzSnapshot builds a snapshot that deliberately stresses the
// renderer's naming: the same raw names appear in several sections, a
// gauge squats on the first counter's name plus "_sum", and a second
// histogram squats on the first one's name plus "_count" — the shapes
// that collide after sanitization or through a summary's implicit
// sample suffixes.
func fuzzSnapshot(cname, gname, hname, sname string, v float64) Snapshot {
	return Snapshot{
		Counters: []CounterSnap{
			{Name: cname, Value: 7},
			{Name: gname, Value: 9},
		},
		Gauges: []GaugeSnap{
			{Name: gname, Value: v},
			{Name: cname + "_sum", Value: v},
		},
		Histograms: []HistSnap{
			{Name: hname, Count: 3, Sum: v, P50: v, P95: v, P99: v},
			{Name: hname + "_count", Count: 0},
		},
		Series: []SeriesSnap{
			{Name: sname, Last: v},
		},
	}
}

// twoShards is snap as shards 0 and 1 would both record it.
func twoShards(snap Snapshot) Snapshot {
	var out Snapshot
	for shard := 0; shard < 2; shard++ {
		for _, c := range snap.Counters {
			c.Shard = shard
			out.Counters = append(out.Counters, c)
		}
		for _, g := range snap.Gauges {
			g.Shard = shard
			out.Gauges = append(out.Gauges, g)
		}
		for _, h := range snap.Histograms {
			h.Shard = shard
			out.Histograms = append(out.Histograms, h)
		}
		for _, se := range snap.Series {
			se.Shard = shard
			out.Series = append(out.Series, se)
		}
	}
	return out
}

// FuzzWritePrometheus renders arbitrary instrument names and values and
// round-trips the exposition through the strict parser: whatever the
// registry holds, /metrics must stay well-formed 0.0.4 text with no
// duplicate families or samples.
func FuzzWritePrometheus(f *testing.F) {
	f.Add("sched.submitted", "power.energy_j", "sched.wait_s", "sched.queue_depth", 331.61)
	f.Add("a.b", "a+b", "a/b", "a b", 1.5)                  // all sanitize to a_b
	f.Add("wait_s_sum", "wait_s_count", "wait_s", "x", 0.0) // summary suffix squatting
	f.Add("bad\nname", `quo"te`, "back\\slash", "tab\tname", math.NaN())
	f.Add("温度.測定", "énergie", "μ.ops", "код", math.Inf(1))
	f.Add("", "_", ":", "2leading.digit", math.Inf(-1))
	f.Add("x", "x", "x", "x", -0.0)
	f.Add("x_2", "x", "x.2", "x+2", 1e300)
	f.Fuzz(func(t *testing.T, cname, gname, hname, sname string, v float64) {
		snap := fuzzSnapshot(cname, gname, hname, sname, v)
		var buf bytes.Buffer
		if err := snap.WritePrometheus(&buf); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		fams, err := parsePromText(buf.String())
		if err != nil {
			t.Fatalf("round-trip: %v\nexposition:\n%s", err, buf.String())
		}
		if len(fams) != 7 {
			t.Fatalf("got %d families, want one per instrument (7):\n%s", len(fams), buf.String())
		}
		// 2 counters + 2 gauges + (3 quantiles + sum + count) + (sum +
		// count) + 1 series sample.
		samples := 0
		for _, fam := range fams {
			samples += len(fam.samples)
		}
		if samples != 12 {
			t.Fatalf("got %d samples, want 12:\n%s", samples, buf.String())
		}
		// Rendering is a pure function of the snapshot.
		var again bytes.Buffer
		if err := snap.WritePrometheus(&again); err != nil {
			t.Fatalf("second render: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatal("two renders of the same snapshot differ")
		}
		// The shard-labeled merged form must round-trip too: same 7
		// families, one labeled sample per shard per instrument sample,
		// and no duplicates (the shard label disambiguates).
		both := twoShards(snap)
		var sharded bytes.Buffer
		if err := both.WritePrometheus(&sharded); err != nil {
			t.Fatalf("merged WritePrometheus: %v", err)
		}
		sfams, err := parsePromText(sharded.String())
		if err != nil {
			t.Fatalf("sharded round-trip: %v\nexposition:\n%s", err, sharded.String())
		}
		if len(sfams) != 7 {
			t.Fatalf("sharded: got %d families, want 7:\n%s", len(sfams), sharded.String())
		}
		ssamples := 0
		for _, fam := range sfams {
			for _, sm := range fam.samples {
				if !strings.Contains(sm.labels, `shard="`) {
					t.Fatalf("sharded sample without shard label: %+v\n%s", sm, sharded.String())
				}
				ssamples++
			}
		}
		if ssamples != 24 {
			t.Fatalf("sharded: got %d samples, want 12 per shard x 2:\n%s", ssamples, sharded.String())
		}
		var sagain bytes.Buffer
		if err := both.WritePrometheus(&sagain); err != nil {
			t.Fatalf("second sharded render: %v", err)
		}
		if !bytes.Equal(sharded.Bytes(), sagain.Bytes()) {
			t.Fatal("two sharded renders of the same snapshots differ")
		}
	})
}

// TestPrometheusNameCollisions pins the deterministic disambiguation
// the fuzz target relies on: merged sanitized names and summary-suffix
// squatting each get the next free _N variant, in render order.
func TestPrometheusNameCollisions(t *testing.T) {
	snap := Snapshot{
		Counters: []CounterSnap{
			{Name: "a.b", Value: 1},
			{Name: "a+b", Value: 2},
			{Name: "wait_s_sum", Value: 3},
		},
		Histograms: []HistSnap{
			{Name: "a/b", Count: 1, Sum: 4, P50: 4, P95: 4, P99: 4},
			{Name: "wait_s", Count: 0},
		},
	}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := parsePrometheus(t, buf.String())
	var names []string
	for _, fam := range fams {
		names = append(names, fam.name)
	}
	want := []string{
		"ecost_a_b",        // counter a.b takes the base name
		"ecost_a_b_2",      // counter a+b sanitizes to the same name
		"ecost_wait_s_sum", // counter squatting on the summary's sum
		"ecost_a_b_3",      // histogram a/b is the third a_b claimant
		"ecost_wait_s_2",   // summary renamed so wait_s_sum stays unique
	}
	if len(names) != len(want) {
		t.Fatalf("families = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("family[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

// TestPrometheusNonFiniteValues checks NaN and ±Inf survive the
// exposition round trip as the format's literal tokens.
func TestPrometheusNonFiniteValues(t *testing.T) {
	snap := Snapshot{Gauges: []GaugeSnap{
		{Name: "g.nan", Value: math.NaN()},
		{Name: "g.ninf", Value: math.Inf(-1)},
		{Name: "g.pinf", Value: math.Inf(1)},
	}}
	var buf bytes.Buffer
	if err := snap.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ecost_g_nan NaN", "ecost_g_pinf +Inf", "ecost_g_ninf -Inf"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	fams := parsePrometheus(t, buf.String())
	if len(fams) != 3 {
		t.Fatalf("families = %+v", fams)
	}
	if v := fams[0].samples[0].value; !math.IsNaN(v) {
		t.Errorf("NaN gauge parsed as %v", v)
	}
	if v := fams[1].samples[0].value; !math.IsInf(v, -1) {
		t.Errorf("-Inf gauge parsed as %v", v)
	}
	if v := fams[2].samples[0].value; !math.IsInf(v, 1) {
		t.Errorf("+Inf gauge parsed as %v", v)
	}
}
