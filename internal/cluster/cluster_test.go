package cluster

import (
	"testing"
	"testing/quick"
)

func TestFrequenciesAscending(t *testing.T) {
	fs := Frequencies()
	if len(fs) != 4 {
		t.Fatalf("want 4 DVFS levels, got %d", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatalf("frequencies not ascending: %v", fs)
		}
	}
	if fs[0] != MinFreq || fs[len(fs)-1] != MaxFreq {
		t.Fatalf("bounds mismatch: %v", fs)
	}
}

func TestVoltageMonotone(t *testing.T) {
	prev := 0.0
	for _, f := range Frequencies() {
		v := Voltage(f)
		if v <= prev {
			t.Fatalf("Voltage(%v) = %v not increasing", f, v)
		}
		prev = v
	}
	if Voltage(MinFreq-1) != Voltage(MinFreq) {
		t.Error("voltage below range should clamp")
	}
	if Voltage(MaxFreq+1) != Voltage(MaxFreq) {
		t.Error("voltage above range should clamp")
	}
}

func TestVoltageRange(t *testing.T) {
	f := func(x float64) bool {
		v := Voltage(FreqGHz(x))
		return v >= 0.80 && v <= 1.16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidFreq(t *testing.T) {
	for _, f := range Frequencies() {
		if !ValidFreq(f) {
			t.Errorf("ValidFreq(%v) = false", f)
		}
	}
	for _, f := range []FreqGHz{0, 1.0, 1.4, 2.2, 3.0} {
		if ValidFreq(f) {
			t.Errorf("ValidFreq(%v) = true", f)
		}
	}
}
