package core

import (
	"fmt"

	"ecost/internal/workloads"
)

// JobSpec names one application instance in a workload scenario.
type JobSpec struct {
	App    workloads.ID
	SizeGB float64
}

// Workload is one of the paper's studied workload scenarios (Table 3):
// sixteen applications to be mapped onto the cluster.
type Workload struct {
	Name string
	Jobs []JobSpec
}

// ClassSignature renders the scenario's class string ("[C,C,H,I,…]").
func (w Workload) ClassSignature() string {
	s := "["
	for i, j := range w.Jobs {
		if i > 0 {
			s += ","
		}
		s += j.App.App().Class.String()
	}
	return s + "]"
}

// AppSignature renders the application list the way Table 3 does.
func (w Workload) AppSignature() string {
	s := "["
	for i, j := range w.Jobs {
		if i > 0 {
			s += ", "
		}
		s += j.App.Name()
	}
	return s + "]"
}

// scenarioApps are the Table-3 application sequences. WS2, WS6 and WS7
// are printed with 15 entries in the paper (a typesetting slip against
// the stated 16-application workloads and their 16-class signatures);
// the sixteenth element repeats the scenario's dominant application.
var scenarioApps = map[string][]string{
	"WS1": {"svm", "svm", "wc", "wc", "svm", "wc", "hmm", "wc", "hmm", "hmm", "wc", "wc", "hmm", "wc", "svm", "wc"},
	"WS2": {"ts", "gp", "ts", "ts", "ts", "gp", "ts", "ts", "ts", "gp", "ts", "ts", "gp", "ts", "ts", "ts"},
	"WS3": {"st", "st", "st", "st", "st", "st", "st", "st", "st", "st", "st", "st", "st", "st", "st", "st"},
	"WS4": {"svm", "wc", "ts", "st", "wc", "wc", "ts", "st", "hmm", "svm", "ts", "st", "wc", "wc", "ts", "st"},
	"WS5": {"hmm", "ts", "st", "ts", "wc", "ts", "st", "ts", "svm", "ts", "st", "ts", "hmm", "ts", "st", "ts"},
	"WS6": {"ts", "st", "ts", "st", "ts", "ts", "st", "st", "ts", "st", "ts", "st", "ts", "st", "ts", "st"},
	"WS7": {"cf", "cf", "cf", "st", "cf", "cf", "cf", "st", "cf", "cf", "cf", "cf", "cf", "cf", "st", "cf"},
	"WS8": {"cf", "fp", "ts", "st", "cf", "fp", "ts", "st", "hmm", "svm", "ts", "st", "wc", "wc", "ts", "st"},
}

// DefaultScenarioSizeGB is the per-node input size used for the Table-3
// scenarios (the paper leaves scenario sizes unpinned; the medium 5 GB
// point keeps every policy comparable, and ScenarioMixed exercises
// size diversity).
const DefaultScenarioSizeGB = 5

// Scenario returns one of the eight studied workload scenarios by name
// ("WS1".."WS8"), every job at the medium input size.
func Scenario(name string) (Workload, error) {
	return ScenarioMixed(name, []float64{DefaultScenarioSizeGB})
}

// ScenarioMixed returns a scenario whose positions cycle through the
// given data sizes — the size-diverse variant used by the robustness
// tests and the size-aware-pairing ablation.
func ScenarioMixed(name string, sizeCycle []float64) (Workload, error) {
	names, ok := scenarioApps[name]
	if !ok {
		return Workload{}, fmt.Errorf("core: unknown workload scenario %q", name)
	}
	if len(sizeCycle) == 0 {
		sizeCycle = []float64{DefaultScenarioSizeGB}
	}
	w := Workload{Name: name}
	for i, n := range names {
		app, err := workloads.Lookup(n)
		if err != nil {
			return Workload{}, err
		}
		w.Jobs = append(w.Jobs, JobSpec{App: app, SizeGB: sizeCycle[i%len(sizeCycle)]})
	}
	return w, nil
}

// Scenarios returns all eight scenarios in order.
func Scenarios() []Workload {
	var out []Workload
	for i := 1; i <= 8; i++ {
		w, err := Scenario(fmt.Sprintf("WS%d", i))
		if err != nil {
			panic(err) // static tables; cannot fail
		}
		out = append(out, w)
	}
	return out
}
