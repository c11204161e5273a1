package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"ecost/internal/workloads"
)

// FuzzParseTrace: the JSONL trace reader never panics and either
// rejects with a typed *TraceError or returns a well-formed stream
// (finite non-negative non-decreasing times, known apps, positive
// finite sizes) that round-trips through the canonical writer.
func FuzzParseTrace(f *testing.F) {
	f.Add(`{"at":0,"app":"wc","size_gb":5}`)
	f.Add("{\"at\":0,\"app\":\"wc\",\"size_gb\":5}\n{\"at\":12.5,\"app\":\"st\",\"size_gb\":1}")
	f.Add(`{"at":-1,"app":"wc","size_gb":5}`)
	f.Add(`{"at":1e308,"app":"cf","size_gb":1e-300}`)
	f.Add(`{"at":0,"app":"wc","size_gb":-3}`)
	f.Add("{\"at\":5,\"app\":\"wc\",\"size_gb\":5}\n{\"at\":4,\"app\":\"wc\",\"size_gb\":5}")
	f.Add(`{"at":0,"app":"","size_gb":5}`)
	f.Add("\n\n")
	f.Add(`[1,2,3]`)
	f.Add(`{"at":0,"app":"wc","size_gb":5,"x":1}`)
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadTrace(strings.NewReader(input))
		if err != nil {
			if tr != nil {
				t.Fatalf("error %v returned alongside a stream", err)
			}
			var te *TraceError
			if !errors.As(err, &te) {
				t.Fatalf("error %T is not a *TraceError: %v", err, err)
			}
			return
		}
		prev := 0.0
		for i, a := range tr {
			if math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At < 0 || a.At < prev {
				t.Fatalf("arrival %d at invalid/non-monotone time %v (prev %v)", i, a.At, prev)
			}
			prev = a.At
			if int(a.App) >= len(workloads.IDs()) {
				t.Fatalf("arrival %d has no application", i)
			}
			if !(a.SizeGB > 0) || math.IsInf(a.SizeGB, 0) {
				t.Fatalf("arrival %d has size %v", i, a.SizeGB)
			}
		}
		// Each arrival's id names the table entry its line names.
		var lines []string
		for _, l := range strings.Split(input, "\n") {
			if l = strings.TrimSpace(l); l != "" {
				lines = append(lines, l)
			}
		}
		if len(lines) != len(tr) {
			t.Fatalf("%d arrivals from %d lines", len(tr), len(lines))
		}
		for i, a := range tr {
			var tl traceLine
			if err := json.Unmarshal([]byte(lines[i]), &tl); err != nil {
				t.Fatalf("line %d: %v", i+1, err)
			}
			if want, err := workloads.ByName(tl.App); err != nil || *a.App.App() != want {
				t.Fatalf("arrival %d names %s, its line %q", i, a.App.Name(), tl.App)
			}
		}
		// Accepted input must survive a write→read round trip intact,
		// and the canonical form must rewrite byte for byte.
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			t.Fatalf("re-writing an accepted trace failed: %v", err)
		}
		canon := bytes.Clone(buf.Bytes())
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-reading the canonical form failed: %v", err)
		}
		if render(again) != render(tr) {
			t.Fatal("canonical round trip changed the stream")
		}
		var rewrite bytes.Buffer
		if err := WriteTrace(&rewrite, again); err != nil || !bytes.Equal(rewrite.Bytes(), canon) {
			t.Fatalf("write→read→write changed the bytes (%v):\n%s\n%s", err, canon, rewrite.Bytes())
		}
	})
}

// FuzzParseScenarioSpec: the -scenario grammar never panics; rejects
// are typed *SpecError; accepts generate a well-formed stream, and the
// canonical rendering re-parses to an identical stream (grammar
// round-trip).
func FuzzParseScenarioSpec(f *testing.F) {
	f.Add("gen:jobs=100;arrivals=poisson:60;sizes=pareto:alpha=1.5,min=1;mix=zipf:s=1.1,tenants=16")
	f.Add("jobs=8")
	f.Add("gen:jobs=32;arrivals=mmpp:calm=300,burst=10;mix=cycle:WS4")
	f.Add("gen:jobs=32;arrivals=diurnal:mean=60,amp=0.9,period=3600;sizes=lognormal:mu=2,sigma=1;mix=unknown")
	f.Add("gen:jobs=1;arrivals=all;sizes=fixed:5;mix=uniform")
	f.Add("gen:jobs=nan;arrivals=poisson:NaN")
	f.Add("gen:jobs=10;jobs=10")
	f.Add("gen:jobs=10;sizes=pareto:alpha=-1")
	f.Add("gen:jobs=10;arrivals=poisson:-5")
	f.Add("gen:jobs=10;mix=zipf:s=1,tenants=2.5")
	f.Add(";;;")
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSpec(input)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error %T is not a *SpecError: %v", err, err)
			}
			return
		}
		// An accepted spec must generate; cap the work per input.
		small := spec
		if small.Jobs > 256 {
			small.Jobs = 256
		}
		if small.Mix.Kind == MixZipf && small.Mix.Tenants > 1024 {
			small.Mix.Tenants = 1024
		}
		tr, err := Generate(small)
		if err != nil {
			t.Fatalf("parsed spec %q failed to generate: %v", input, err)
		}
		if len(tr) != small.Jobs {
			t.Fatalf("spec %q generated %d arrivals, want %d", input, len(tr), small.Jobs)
		}
		// Canonical rendering must mean the same stream.
		re, err := ParseSpec(small.String())
		if err != nil {
			t.Fatalf("canonical rendering %q of %q does not re-parse: %v", small.String(), input, err)
		}
		tr2, err := Generate(re)
		if err != nil {
			t.Fatalf("re-parsed spec failed to generate: %v", err)
		}
		if render(tr2) != render(tr) {
			t.Fatalf("spec %q and its canonical rendering %q generate different streams", input, small.String())
		}
	})
}
