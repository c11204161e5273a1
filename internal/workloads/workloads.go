// Package workloads defines the eleven Hadoop MapReduce applications of
// the ECoST study — four micro-benchmarks (WordCount, Sort, Grep,
// TeraSort) and seven real-world applications (Naïve Bayes, FP-Growth,
// Collaborative Filtering, SVM, PageRank, HMM, K-Means) — together with
// the calibrated resource profiles that drive the performance, power and
// counter models.
//
// The paper classifies each application as Compute-bound (C), Hybrid (H),
// I/O-bound (I) or Memory-bound (M) from its measured resource and
// micro-architectural behaviour; the class assignments here follow the
// workload-scenario table (Table 3) of the paper: {WC, SVM, HMM, NB} are
// C, {TS, GP, PR} are H, {ST} is I, and {CF, FP, KM} are M.
//
// Profiles are the substitution for the paper's physical testbed (see
// DESIGN.md §2): each field is an observable the real system would expose
// through perf/dstat, with magnitudes set so the relative behaviour across
// classes matches the published characterization.
package workloads

import "fmt"

// Class is the application behaviour class used by the ECoST classifier
// and pairing decision tree.
type Class int

// The four behaviour classes of the paper.
const (
	Compute  Class = iota // C: high CPU user utilization, low iowait
	Hybrid                // H: mixed compute and I/O
	IOBound               // I: high iowait and disk bandwidth
	MemBound              // M: high LLC MPKI and memory bandwidth demand
)

// String returns the single-letter class code used in the paper's figures.
func (c Class) String() string {
	switch c {
	case Compute:
		return "C"
	case Hybrid:
		return "H"
	case IOBound:
		return "I"
	case MemBound:
		return "M"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Classes lists the behaviour classes in the paper's canonical order.
func Classes() []Class { return []Class{Compute, Hybrid, IOBound, MemBound} }

// Profile captures the per-application constants the models consume.
// They correspond to observables of the real system:
//
//   - MapInstrPerByte / ReduceInstrPerByte: dynamic instruction count per
//     input (resp. shuffled) byte, including framework overhead.
//   - BaseIPC: core IPC excluding LLC-miss stall cycles (the miss penalty
//     is added by the model as MPKI × memory latency × frequency, which is
//     what makes memory-bound applications insensitive to DVFS).
//   - ShuffleSel / OutputSel: intermediate and final output bytes per
//     input byte (e.g. Sort and TeraSort move all their input; Grep emits
//     almost nothing).
//   - SpillFactor: extra map-side disk writes per input byte (sort spills).
//   - MemBWPerCoreGBps: memory bandwidth demand of one mapper; the node
//     saturates at Spec.MemBWGBps, throttling memory-bound co-runners.
//   - CacheFootprintMB: working-set pressure one task puts on the shared
//     LLC; a co-runner's footprint inflates this application's LLC MPKI.
//   - LLCMPKI, ICacheMPKI, BranchMissPct: solo-run counter values.
//   - MemFootprintMBPerTask: resident memory per task beyond I/O buffers.
//   - DiskDutyCap: the maximum fraction of wall time one job of this
//     application can keep the disk busy. MapReduce I/O is bursty (reads,
//     spills and merges are separated by compute and phase barriers), so
//     a single job cannot saturate the disk alone; co-located jobs
//     interleave their bursts. This is the mechanism behind the paper's
//     observation that co-locating two I/O-bound applications wins most.
type Profile struct {
	MapInstrPerByte    float64
	ReduceInstrPerByte float64
	BaseIPC            float64

	ShuffleSel  float64
	OutputSel   float64
	SpillFactor float64

	MemBWPerCoreGBps      float64
	CacheFootprintMB      float64
	DiskDutyCap           float64
	LLCMPKI               float64
	ICacheMPKI            float64
	BranchMissPct         float64
	MemFootprintMBPerTask float64
}

// App is one of the eleven studied applications.
type App struct {
	Name    string // short code used in the paper: wc, st, gp, ts, …
	Long    string // human-readable name
	Class   Class
	Known   bool // true if part of the training set (§7 of the paper)
	Profile Profile
}

// The eleven applications. The training/testing split follows §7:
// NB, CF, SVM, PR, HMM and KM are "unknown" testing applications; the
// micro-benchmarks WC, ST, GP, TS and the real-world FP form the training
// set (covering all four classes).
var apps = []App{
	{
		Name: "wc", Long: "WordCount", Class: Compute, Known: true,
		Profile: Profile{
			MapInstrPerByte: 340, ReduceInstrPerByte: 60, BaseIPC: 1.05,
			ShuffleSel: 0.22, OutputSel: 0.05, SpillFactor: 0.10,
			MemBWPerCoreGBps: 0.25, CacheFootprintMB: 0.4, DiskDutyCap: 0.85,
			LLCMPKI: 2.1, ICacheMPKI: 6.0, BranchMissPct: 3.2,
			MemFootprintMBPerTask: 180,
		},
	},
	{
		Name: "st", Long: "Sort", Class: IOBound, Known: true,
		Profile: Profile{
			MapInstrPerByte: 12, ReduceInstrPerByte: 40, BaseIPC: 0.85,
			ShuffleSel: 1.0, OutputSel: 1.0, SpillFactor: 1.0,
			MemBWPerCoreGBps: 0.45, CacheFootprintMB: 1.2, DiskDutyCap: 0.45,
			LLCMPKI: 6.5, ICacheMPKI: 3.5, BranchMissPct: 1.8,
			MemFootprintMBPerTask: 260,
		},
	},
	{
		Name: "gp", Long: "Grep", Class: Hybrid, Known: true,
		Profile: Profile{
			MapInstrPerByte: 15, ReduceInstrPerByte: 25, BaseIPC: 1.0,
			ShuffleSel: 0.02, OutputSel: 0.01, SpillFactor: 0.02,
			MemBWPerCoreGBps: 0.4, CacheFootprintMB: 0.5, DiskDutyCap: 0.7,
			LLCMPKI: 3.0, ICacheMPKI: 4.0, BranchMissPct: 2.5,
			MemFootprintMBPerTask: 140,
		},
	},
	{
		Name: "ts", Long: "TeraSort", Class: Hybrid, Known: true,
		Profile: Profile{
			MapInstrPerByte: 13, ReduceInstrPerByte: 75, BaseIPC: 0.9,
			ShuffleSel: 1.0, OutputSel: 1.0, SpillFactor: 0.7,
			MemBWPerCoreGBps: 0.5, CacheFootprintMB: 1.5, DiskDutyCap: 0.6,
			LLCMPKI: 8.0, ICacheMPKI: 4.5, BranchMissPct: 2.2,
			MemFootprintMBPerTask: 320,
		},
	},
	{
		Name: "nb", Long: "Naive Bayes", Class: Compute, Known: false,
		Profile: Profile{
			MapInstrPerByte: 390, ReduceInstrPerByte: 70, BaseIPC: 1.0,
			ShuffleSel: 0.18, OutputSel: 0.03, SpillFactor: 0.08,
			MemBWPerCoreGBps: 0.28, CacheFootprintMB: 0.6, DiskDutyCap: 0.85,
			LLCMPKI: 2.6, ICacheMPKI: 7.0, BranchMissPct: 3.6,
			MemFootprintMBPerTask: 220,
		},
	},
	{
		Name: "fp", Long: "FP-Growth", Class: MemBound, Known: true,
		Profile: Profile{
			MapInstrPerByte: 140, ReduceInstrPerByte: 140, BaseIPC: 0.95,
			ShuffleSel: 0.35, OutputSel: 0.10, SpillFactor: 0.15,
			MemBWPerCoreGBps: 0.65, CacheFootprintMB: 3.5, DiskDutyCap: 0.8,
			LLCMPKI: 28, ICacheMPKI: 9.0, BranchMissPct: 4.5,
			MemFootprintMBPerTask: 700,
		},
	},
	{
		Name: "cf", Long: "Collaborative Filtering", Class: MemBound, Known: false,
		Profile: Profile{
			MapInstrPerByte: 150, ReduceInstrPerByte: 160, BaseIPC: 0.9,
			ShuffleSel: 0.40, OutputSel: 0.12, SpillFactor: 0.18,
			MemBWPerCoreGBps: 0.7, CacheFootprintMB: 3.8, DiskDutyCap: 0.8,
			LLCMPKI: 32, ICacheMPKI: 8.0, BranchMissPct: 4.2,
			MemFootprintMBPerTask: 760,
		},
	},
	{
		Name: "svm", Long: "Support Vector Machine", Class: Compute, Known: false,
		Profile: Profile{
			MapInstrPerByte: 370, ReduceInstrPerByte: 75, BaseIPC: 1.07,
			ShuffleSel: 0.10, OutputSel: 0.02, SpillFactor: 0.05,
			MemBWPerCoreGBps: 0.22, CacheFootprintMB: 0.7, DiskDutyCap: 0.85,
			LLCMPKI: 3.2, ICacheMPKI: 5.0, BranchMissPct: 2.8,
			MemFootprintMBPerTask: 260,
		},
	},
	{
		Name: "pr", Long: "PageRank", Class: Hybrid, Known: false,
		Profile: Profile{
			MapInstrPerByte: 12, ReduceInstrPerByte: 80, BaseIPC: 0.85,
			ShuffleSel: 0.85, OutputSel: 0.5, SpillFactor: 0.55,
			MemBWPerCoreGBps: 0.45, CacheFootprintMB: 1.8, DiskDutyCap: 0.65,
			LLCMPKI: 10, ICacheMPKI: 6.5, BranchMissPct: 3.0,
			MemFootprintMBPerTask: 380,
		},
	},
	{
		Name: "hmm", Long: "Hidden Markov Model", Class: Compute, Known: false,
		Profile: Profile{
			MapInstrPerByte: 390, ReduceInstrPerByte: 70, BaseIPC: 1.03,
			ShuffleSel: 0.12, OutputSel: 0.04, SpillFactor: 0.06,
			MemBWPerCoreGBps: 0.24, CacheFootprintMB: 0.5, DiskDutyCap: 0.85,
			LLCMPKI: 2.4, ICacheMPKI: 6.5, BranchMissPct: 3.4,
			MemFootprintMBPerTask: 240,
		},
	},
	{
		Name: "km", Long: "K-Means", Class: MemBound, Known: false,
		Profile: Profile{
			MapInstrPerByte: 130, ReduceInstrPerByte: 120, BaseIPC: 0.9,
			ShuffleSel: 0.30, OutputSel: 0.08, SpillFactor: 0.12,
			MemBWPerCoreGBps: 0.62, CacheFootprintMB: 3.2, DiskDutyCap: 0.8,
			LLCMPKI: 25, ICacheMPKI: 7.5, BranchMissPct: 3.8,
			MemFootprintMBPerTask: 680,
		},
	},
}

// Apps returns the eleven studied applications in a fixed order.
// The returned slice is freshly allocated; elements are value copies.
func Apps() []App {
	out := make([]App, len(apps))
	copy(out, apps)
	return out
}

// ID names one of the eleven applications by its index in Apps(): a
// one-byte reference that holds no pointer, so a record carrying one
// is neither a copy of the application nor scanned by the garbage
// collector (DESIGN.md §35).
type ID uint8

// App returns the application id names. The entry is shared by every
// holder of the id: read it, never write through it.
func (id ID) App() *App { return &apps[id] }

// Name returns the application's short code.
func (id ID) Name() string { return apps[id].Name }

// Class returns the application's behaviour class.
func (id ID) Class() Class { return apps[id].Class }

// IDs returns the ids of the eleven applications in Apps() order.
func IDs() []ID {
	out := make([]ID, len(apps))
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// TrainingIDs returns the ids of the known (training-set) applications,
// in Training() order.
func TrainingIDs() []ID { return idsKnown(true) }

// TestingIDs returns the ids of the unknown (testing-set) applications,
// in Testing() order.
func TestingIDs() []ID { return idsKnown(false) }

func idsKnown(known bool) []ID {
	var out []ID
	for _, id := range IDs() {
		if id.App().Known == known {
			out = append(out, id)
		}
	}
	return out
}

// Lookup returns the id of the application with the given short code.
func Lookup(name string) (ID, error) {
	for i := range apps {
		if apps[i].Name == name {
			return ID(i), nil
		}
	}
	return 0, fmt.Errorf("workloads: unknown application %q", name)
}

// MustLookup is Lookup for static application codes; it panics on an
// unknown code.
func MustLookup(name string) ID {
	id, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return id
}

// ID returns the id of the table entry a is a copy of, and an error
// when a is no entry's copy: an unknown name, or a known name with any
// other field changed.
func (a *App) ID() (ID, error) {
	id, err := Lookup(a.Name)
	if err == nil && *id.App() != *a {
		err = fmt.Errorf("workloads: application %q differs from the table's", a.Name)
	}
	return id, err
}

// ByName returns the application with the given short code.
func ByName(name string) (App, error) {
	id, err := Lookup(name)
	if err != nil {
		return App{}, err
	}
	return *id.App(), nil
}

// MustByName is ByName for static application codes; it panics on an
// unknown code.
func MustByName(name string) App {
	a, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Training returns the known (training-set) applications.
func Training() []App {
	var out []App
	for _, a := range apps {
		if a.Known {
			out = append(out, a)
		}
	}
	return out
}

// Testing returns the unknown (testing-set) applications.
func Testing() []App {
	var out []App
	for _, a := range apps {
		if !a.Known {
			out = append(out, a)
		}
	}
	return out
}

// DataSizesGB lists the studied per-node input data sizes: 1, 5 and
// 10 GB, representing small, medium and large datasets.
func DataSizesGB() []float64 { return []float64{1, 5, 10} }

// SizeLabel names a studied data size (small/medium/large).
func SizeLabel(gb float64) string {
	switch gb {
	case 1:
		return "small"
	case 5:
		return "medium"
	case 10:
		return "large"
	default:
		return fmt.Sprintf("%gGB", gb)
	}
}
