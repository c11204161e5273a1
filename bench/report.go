package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

// setupTimes is the cold NewEnv cost and the split of it that the
// environment's own wall-clock gauges report.
type setupTimes struct {
	totalS, dbBuildS, trainS float64
}

// endToEnd is what a user of the control plane sees. Timings and
// allocation are medians over the untraced measured passes; the sim_*
// values are the same on every pass (failures enforces it).
func endToEnd(r runResult, s setupTimes) []metric {
	sim := r.warm.sim
	return []metric{
		{"jobs_per_s", "jobs/host-s", median(mapPasses(r.measured, pass.jobsPerS))},
		{"setup_s", "s", s.totalS},
		{"alloc_bytes_per_job", "B/job", median(mapPasses(r.measured, func(p pass) float64 {
			return ratio(float64(p.allocBytes), float64(p.jobs))
		}))},
		{"peak_rss_mb", "MB", median(mapPasses(r.measured, func(p pass) float64 { return p.peakRSSMB }))},
		{"sim_active_energy_j", "J", sim.activeJ},
		{"sim_turnaround_p50_s", "sim-s", sim.turnP50},
		{"sim_turnaround_p99_s", "sim-s", sim.turnP99},
	}
}

// simDetail is the rest of what the passes simulated. Makespan, and with
// it total energy and EDP, is set by the last job to finish, so on churn
// it moves with one outlier's tuning from seed to seed; queue waits are
// zero on recurring and churn. They are printed, not bounded.
func simDetail(s simResult) map[string]float64 {
	return map[string]float64{
		"edp_js":     s.energyJ * s.makespanS,
		"energy_j":   s.energyJ,
		"makespan_s": s.makespanS,
		"wait_p50_s": s.waitP50,
		"wait_p99_s": s.waitP99,
	}
}

// perLayer is the ledger, read outside-in from the traced passes: the
// calls into each module are timed from this package, so Run stays one
// span and the drive's self time is Run minus the tune time inside it.
func perLayer(r runResult, s setupTimes) []metric {
	layer := func(f func(p pass) float64) float64 { return median(mapPasses(r.traced, f)) }
	perJob := func(f func(p pass) float64) float64 {
		return layer(func(p pass) float64 { return ratio(f(p), float64(p.jobs)) })
	}
	untraced := median(mapPasses(r.measured, pass.jobsPerS))
	traced := median(mapPasses(r.traced, pass.jobsPerS))
	return []metric{
		{"setup.db_build_s", "s", s.dbBuildS},
		{"setup.train_s", "s", s.trainS},
		{"router.submit_ns_per_job", "ns/job", perJob(func(p pass) float64 { return float64(p.submitNs) })},
		{"tune.calls_per_job", "calls/job", perJob(func(p pass) float64 { return float64(p.tuneCalls) })},
		{"tune.hit_ratio", "ratio", layer(func(p pass) float64 { return ratio(float64(p.hits), float64(p.hits+p.misses)) })},
		{"tune.ns_per_call", "ns/call", layer(func(p pass) float64 { return ratio(float64(p.tuneNs), float64(p.tuneCalls)) })},
		{"tune.lkt_ns_per_call", "ns/call", layer(func(p pass) float64 { return ratio(float64(p.lktNs), float64(p.lktCalls)) })},
		{"tune.memo_ns_per_call", "ns/call", layer(func(p pass) float64 { return ratio(float64(p.tuneNs-p.lktNs), float64(p.tuneCalls)) })},
		{"tune.busy_frac", "ratio", layer(func(p pass) float64 { return ratio(float64(p.tuneNs), float64(p.runNs)) })},
		{"drive.self_ns_per_job", "ns/job", perJob(func(p pass) float64 { return float64(p.runNs - p.tuneNs) })},
		{"drive.barriers_per_job", "1/job", perJob(func(p pass) float64 { return float64(p.barriers.Barriers) })},
		{"drive.elided_ratio", "ratio", layer(func(p pass) float64 { return p.barriers.ElidedRatio() })},
		{"drive.steals_per_job", "1/job", perJob(func(p pass) float64 { return float64(p.steals) })},
		{"merge.ns_per_job", "ns/job", perJob(func(p pass) float64 { return float64(p.mergeNs) })},
		{"runtime.allocs_per_job", "allocs/job", perJob(func(p pass) float64 { return float64(p.mallocs) })},
		{"runtime.gc_cycles_per_pass", "cycles/pass", layer(func(p pass) float64 { return float64(p.gcCycles) })},
		{"runtime.gc_cpu_frac", "ratio", layer(func(p pass) float64 { return ratio(p.gcCPUs, p.cpuS) })},
		{"runtime.heap_live_mb", "MB", layer(func(p pass) float64 { return float64(p.heapLiveBytes) / (1 << 20) })},
		{"load.slot_util", "ratio", r.warm.sim.slotUtil},
		{"trace.overhead_frac", "ratio", 1 - ratio(traced, untraced)},
	}
}

func mapPasses(ps []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median needs at least one value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles computes the three cut points the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), so the
// spread printed here matches the spread a reader computes from it. It
// needs at least two values.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	n := len(xs)
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// machine identifies the host a run measured, so runs from different
// boxes are never compared.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
}

func thisMachine() machine {
	m := machine{
		CPU:        procField("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.Revision = s.Value
			}
		}
	}
	return m
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or
// NaN when /proc does not report it; run refuses to print a NaN.
func peakRSSMB() float64 {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return math.NaN()
	}
	return kb / 1024
}

// resetPeakRSS sets VmHWM back to the current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procField returns the trimmed value of the first "key: value" line of
// a /proc file, or "" when the file or key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
