package power

import (
	"math"
	"testing"
	"testing/quick"

	"ecost/internal/cluster"
)

func spec() cluster.NodeSpec { return cluster.AtomC2758() }

// activePower is the node's power above idle — the quantity the paper
// reports after subtracting system idle power.
func activePower(s cluster.NodeSpec, act Activity) float64 {
	return NodePower(s, act) - s.IdleWatts
}

func TestIdleNodePower(t *testing.T) {
	s := spec()
	if got := NodePower(s, Activity{}); got != s.IdleWatts {
		t.Fatalf("idle power = %v, want %v", got, s.IdleWatts)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	s := spec()
	prev := 0.0
	for _, f := range cluster.Frequencies() {
		p := NodePower(s, Activity{Loads: []CoreLoad{{Cores: 8, Freq: f, Util: 1}}})
		if p <= prev {
			t.Fatalf("power at %v = %v not above %v", f, p, prev)
		}
		prev = p
	}
}

func TestPowerSuperlinearInFrequency(t *testing.T) {
	// Dynamic power must grow faster than frequency (V² scaling) so that
	// the EDP race-to-idle tradeoff in the paper exists.
	s := spec()
	dyn := func(f cluster.FreqGHz) float64 {
		return activePower(s, Activity{Loads: []CoreLoad{{Cores: 8, Freq: f, Util: 1}}})
	}
	lo, hi := dyn(cluster.Freq1200), dyn(cluster.Freq2400)
	if ratio := hi / lo; ratio <= 2.0 {
		t.Fatalf("dynamic power 2.4/1.2 ratio = %v, want > 2 (superlinear)", ratio)
	}
}

func TestPowerScalesWithCoresAndUtil(t *testing.T) {
	s := spec()
	one := activePower(s, Activity{Loads: []CoreLoad{{Cores: 1, Freq: cluster.MaxFreq, Util: 1}}})
	eight := activePower(s, Activity{Loads: []CoreLoad{{Cores: 8, Freq: cluster.MaxFreq, Util: 1}}})
	if math.Abs(eight-8*one) > 1e-9 {
		t.Fatalf("core power not linear in cores: 1→%v, 8→%v", one, eight)
	}
	half := activePower(s, Activity{Loads: []CoreLoad{{Cores: 8, Freq: cluster.MaxFreq, Util: 0.5}}})
	if math.Abs(half-eight/2) > 1e-9 {
		t.Fatalf("core power not linear in util: %v vs %v/2", half, eight)
	}
}

func TestUtilClamped(t *testing.T) {
	s := spec()
	over := NodePower(s, Activity{Loads: []CoreLoad{{Cores: 8, Freq: cluster.MaxFreq, Util: 3}}})
	full := NodePower(s, Activity{Loads: []CoreLoad{{Cores: 8, Freq: cluster.MaxFreq, Util: 1}}})
	if over != full {
		t.Fatalf("util not clamped: %v vs %v", over, full)
	}
	neg := NodePower(s, Activity{Loads: []CoreLoad{{Cores: 8, Freq: cluster.MaxFreq, Util: -1}}, MemBWGB: -4, DiskBusy: -1})
	if neg != s.IdleWatts {
		t.Fatalf("negative activity not clamped: %v", neg)
	}
}

func TestMemAndDiskPower(t *testing.T) {
	s := spec()
	p := NodePower(s, Activity{MemBWGB: s.MemBWGBps, DiskBusy: 1})
	want := s.IdleWatts + s.MemActiveWattsMax + s.DiskActiveWatts
	if math.Abs(p-want) > 1e-9 {
		t.Fatalf("mem+disk power = %v, want %v", p, want)
	}
}

func TestPowerNonNegativeProperty(t *testing.T) {
	s := spec()
	f := func(u, mem, disk float64) bool {
		act := Activity{
			Loads:    []CoreLoad{{Cores: 4, Freq: cluster.Freq2000, Util: u}},
			MemBWGB:  mem,
			DiskBusy: disk,
		}
		p := NodePower(s, act)
		return p >= s.IdleWatts && p < 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEDP(t *testing.T) {
	if got := EDP(100, 10); got != 1000 {
		t.Fatalf("EDP(100,10) = %v", got)
	}
	// P·T² identity: a run at constant power P for T seconds has
	// EDP(P·T, T) == P·T².
	f := func(p, tt float64) bool {
		p = math.Mod(math.Abs(p), 1e3) + 0.1
		tt = math.Mod(math.Abs(tt), 1e5) + 0.1
		return math.Abs(EDP(p*tt, tt)-p*tt*tt) < 1e-6*p*tt*tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
