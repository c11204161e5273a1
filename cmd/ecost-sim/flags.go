package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"ecost/internal/scenario"
)

// runFlags is the parsed flag set that participates in cross-flag
// validation. Online carries the post-implication value (-metrics and
// gen: scenarios silently enable -online before validation runs);
// ScenarioGen is whether -scenario named a gen: spec rather than a
// WS workload.
type runFlags struct {
	Online          bool
	Nodes           int
	Jobs            int
	Arrival         float64
	ScenarioGen     bool
	Arrivals        string
	TraceRecord     string
	TraceReplay     string
	Metrics         bool
	MetricsJSON     bool
	MetricsVolatile bool
	TraceOut        string
	TimelineOut     string
	EDPReport       bool
	QualityReport   bool
	ServeAddr       string
	FlightOut       string
	HealthReport    bool

	// Shards is the -shards value and ShardsSet whether the user passed
	// the flag at all (the default 1 needs no -online; an explicit
	// -shards is an online request).
	Shards    int
	ShardsSet bool
	Steal     bool
}

// onlineOnly lists the flags that are meaningless without the online
// scheduler, in the order contradictions are reported.
func (f runFlags) onlineOnly() []struct {
	name string
	set  bool
} {
	return []struct {
		name string
		set  bool
	}{
		{"-jobs", f.Jobs > 0},
		{"-arrival", f.Arrival > 0},
		{"-trace-record", f.TraceRecord != ""},
		{"-trace-replay", f.TraceReplay != ""},
		{"-trace-out", f.TraceOut != ""},
		{"-timeline-out", f.TimelineOut != ""},
		{"-edp-report", f.EDPReport},
		{"-quality-report", f.QualityReport},
		{"-serve", f.ServeAddr != ""},
		{"-shards", f.ShardsSet},
		{"-steal", f.Steal},
		{"-flight-out", f.FlightOut != ""},
		{"-health-report", f.HealthReport},
	}
}

// contradiction returns the usage message for the first inconsistent
// flag combination, or "" when the set is coherent. Kept as a pure
// function so every rejection path is table-testable without spawning
// the binary (the caller exits with cliutil.ExitUsage on a non-empty
// result).
func (f runFlags) contradiction() string {
	if f.Nodes < 1 {
		return "-nodes must be a positive cluster size"
	}
	if f.Jobs < 0 {
		return "-jobs cannot be negative; 0 means the scenario as-is"
	}
	if !(f.Arrival >= 0) || math.IsInf(f.Arrival, 1) {
		return "-arrival must be a finite, non-negative mean gap in seconds (0 = all at t=0)"
	}
	if f.Arrival > 0 {
		// A workload stream's arrivals are a poisson process with this
		// mean gap: reject what the scenario grammar rejects before the
		// environment is built.
		if _, err := scenario.ParseArrivals("poisson:" + strconv.FormatFloat(f.Arrival, 'g', -1, 64)); err != nil {
			return "-arrival: " + err.Error()
		}
	}
	if (f.MetricsJSON || f.MetricsVolatile) && !f.Metrics {
		return "-metrics-json and -metrics-volatile shape the -metrics snapshot; pass -metrics as well"
	}
	if f.ShardsSet && f.Shards < 1 {
		return "-shards must be at least 1 (1 = one shard over the whole cluster)"
	}
	if f.Shards > f.Nodes {
		return "-shards cannot exceed -nodes; every shard owns at least one node"
	}
	if f.Steal && f.Shards < 2 {
		return "-steal migrates queued jobs between shards; pass -shards 2 or more"
	}
	if f.TraceReplay != "" {
		// A replayed trace IS the stream; every other stream-shaping
		// flag contradicts it.
		switch {
		case f.ScenarioGen:
			return "-trace-replay plays a recorded stream; drop the gen: -scenario"
		case f.TraceRecord != "":
			return "-trace-replay already has the recording; drop -trace-record"
		case f.Jobs > 0:
			return "-jobs shapes a generated stream; it cannot resize a -trace-replay recording"
		case f.Arrival > 0 || f.Arrivals != "":
			return "arrival times come from the -trace-replay recording; drop -arrival/-arrivals"
		}
	}
	if f.ScenarioGen {
		if f.Jobs > 0 {
			return "-jobs duplicates the jobs= clause of a gen: -scenario"
		}
		if f.Arrival > 0 {
			return "-arrival shapes workload streams; retune a gen: -scenario with -arrivals instead"
		}
	} else if f.Arrivals != "" {
		return "-arrivals retunes a gen: -scenario; use -arrival for workload streams"
	}
	if !f.Online {
		for _, c := range f.onlineOnly() {
			if c.set {
				return c.name + " requires the online scheduler; pass -online"
			}
		}
	}
	return ""
}

// outputPaths lists the flags that write a file at the end of the run,
// in the order unwritable targets are reported.
func (f runFlags) outputPaths() []struct {
	name string
	path string
} {
	return []struct {
		name string
		path string
	}{
		{"-flight-out", f.FlightOut},
		{"-trace-out", f.TraceOut},
		{"-timeline-out", f.TimelineOut},
	}
}

// unwritableOutput probes each set output flag's target directory and
// returns the usage message for the first one that cannot take a file,
// or "". Probing at flag-validation time fails fast with exit 2
// instead of erroring on the first dump after a long run.
func (f runFlags) unwritableOutput() string {
	for _, o := range f.outputPaths() {
		if o.path == "" {
			continue
		}
		if err := probeWritableDir(filepath.Dir(o.path)); err != nil {
			return fmt.Sprintf("%s %s: %v", o.name, o.path, err)
		}
	}
	return ""
}

// probeWritableDir verifies a file can be created in dir by creating
// and removing a temp file there — the only check that catches every
// failure mode (missing directory, not a directory, read-only mount,
// permissions) without racing the end-of-run write.
func probeWritableDir(dir string) error {
	st, err := os.Stat(dir)
	if err != nil {
		return fmt.Errorf("target directory does not exist: %w", err)
	}
	if !st.IsDir() {
		return fmt.Errorf("target directory %s is not a directory", dir)
	}
	tmp, err := os.CreateTemp(dir, ".ecost-probe-*")
	if err != nil {
		return fmt.Errorf("target directory is not writable: %w", err)
	}
	tmp.Close()
	return os.Remove(tmp.Name())
}
