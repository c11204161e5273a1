package workloads

import "testing"

func TestElevenApps(t *testing.T) {
	if n := len(Apps()); n != 11 {
		t.Fatalf("got %d applications, want 11", n)
	}
}

func TestUniqueNames(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Apps() {
		if seen[a.Name] {
			t.Fatalf("duplicate application name %q", a.Name)
		}
		seen[a.Name] = true
	}
}

func TestPaperClassAssignments(t *testing.T) {
	// Classes pinned by Table 3 of the paper.
	want := map[string]Class{
		"wc": Compute, "svm": Compute, "hmm": Compute,
		"ts": Hybrid, "gp": Hybrid,
		"st": IOBound,
		"cf": MemBound, "fp": MemBound,
	}
	for name, cls := range want {
		a := MustByName(name)
		if a.Class != cls {
			t.Errorf("%s class = %v, want %v", name, a.Class, cls)
		}
	}
}

func TestTrainingTestingSplit(t *testing.T) {
	// §7: NB, CF, SVM, PR, HMM, KM are unknown testing applications.
	unknown := map[string]bool{"nb": true, "cf": true, "svm": true, "pr": true, "hmm": true, "km": true}
	for _, a := range Apps() {
		if unknown[a.Name] == a.Known {
			t.Errorf("%s Known = %v, want %v", a.Name, a.Known, !unknown[a.Name])
		}
	}
	if len(Training())+len(Testing()) != 11 {
		t.Fatalf("split sizes %d + %d != 11", len(Training()), len(Testing()))
	}
	if len(Testing()) != 6 {
		t.Fatalf("testing set has %d apps, want 6", len(Testing()))
	}
}

func TestTrainingCoversAllClasses(t *testing.T) {
	// The database of known applications must contain every class or the
	// classifier has nothing to match unknown applications against.
	covered := map[Class]bool{}
	for _, a := range Training() {
		covered[a.Class] = true
	}
	for _, c := range Classes() {
		if !covered[c] {
			t.Errorf("training set has no %v application", c)
		}
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("wc")
	if err != nil || a.Long != "WordCount" {
		t.Fatalf("ByName(wc) = %+v, %v", a, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName on unknown app did not panic")
		}
	}()
	MustByName("bogus")
}

// ofClass returns all applications of the given class.
func ofClass(c Class) []App {
	var out []App
	for _, a := range Apps() {
		if a.Class == c {
			out = append(out, a)
		}
	}
	return out
}

// TestOfClassPartition checks that the classes partition the eleven
// applications.
func TestOfClassPartition(t *testing.T) {
	total := 0
	for _, c := range Classes() {
		for _, a := range ofClass(c) {
			if a.Class != c {
				t.Errorf("ofClass(%v) returned %s of class %v", c, a.Name, a.Class)
			}
			total++
		}
	}
	if total != 11 {
		t.Fatalf("classes partition %d apps, want 11", total)
	}
}

func TestProfilesPlausible(t *testing.T) {
	for _, a := range Apps() {
		p := a.Profile
		if p.MapInstrPerByte <= 0 || p.BaseIPC <= 0 || p.BaseIPC > 2 {
			t.Errorf("%s: implausible compute profile %+v", a.Name, p)
		}
		if p.ShuffleSel < 0 || p.ShuffleSel > 1.5 || p.OutputSel < 0 {
			t.Errorf("%s: implausible selectivities %+v", a.Name, p)
		}
		if p.LLCMPKI < 0 || p.MemBWPerCoreGBps <= 0 {
			t.Errorf("%s: implausible memory profile %+v", a.Name, p)
		}
	}
}

func TestClassProfileSeparation(t *testing.T) {
	// Memory-bound applications must have markedly higher LLC MPKI and
	// memory bandwidth demand than compute-bound ones, and the I/O-bound
	// application must move the most bytes per instruction — otherwise
	// the classifier cannot separate them the way the paper reports.
	var maxC, minM float64 = 0, 1e9
	for _, a := range ofClass(Compute) {
		if a.Profile.LLCMPKI > maxC {
			maxC = a.Profile.LLCMPKI
		}
	}
	for _, a := range ofClass(MemBound) {
		if a.Profile.LLCMPKI < minM {
			minM = a.Profile.LLCMPKI
		}
	}
	if minM < 3*maxC {
		t.Errorf("LLC MPKI overlap: max compute %v vs min membound %v", maxC, minM)
	}
	st := MustByName("st")
	for _, a := range Apps() {
		if a.Name == "st" {
			continue
		}
		ioPerInstr := (1 + a.Profile.SpillFactor + a.Profile.OutputSel) / a.Profile.MapInstrPerByte
		stIO := (1 + st.Profile.SpillFactor + st.Profile.OutputSel) / st.Profile.MapInstrPerByte
		if ioPerInstr >= stIO {
			t.Errorf("%s moves more bytes/instr than Sort", a.Name)
		}
	}
}

func TestDataSizes(t *testing.T) {
	sizes := DataSizesGB()
	if len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 5 || sizes[2] != 10 {
		t.Fatalf("DataSizesGB() = %v", sizes)
	}
	if SizeLabel(1) != "small" || SizeLabel(5) != "medium" || SizeLabel(10) != "large" {
		t.Error("size labels wrong")
	}
	if SizeLabel(2) != "2GB" {
		t.Errorf("SizeLabel(2) = %q", SizeLabel(2))
	}
}

func TestAppsReturnsCopy(t *testing.T) {
	a := Apps()
	a[0].Name = "mutated"
	if Apps()[0].Name == "mutated" {
		t.Fatal("Apps() exposes internal slice")
	}
}

// TestIDs pins the id lists to the App lists they index and the id of
// a table copy: every list in the order of its App counterpart, Lookup
// and (*App).ID agreeing with the index, and any changed copy or
// unknown name rejected.
func TestIDs(t *testing.T) {
	for _, c := range []struct {
		ids  []ID
		apps []App
	}{{IDs(), Apps()}, {TrainingIDs(), Training()}, {TestingIDs(), Testing()}} {
		if len(c.ids) != len(c.apps) {
			t.Fatalf("%d ids for %d apps", len(c.ids), len(c.apps))
		}
		for i, id := range c.ids {
			a := c.apps[i]
			if *id.App() != a || id.Name() != a.Name || id.Class() != a.Class {
				t.Fatalf("id %d names %s, want %s", id, id.Name(), a.Name)
			}
			if got, err := Lookup(a.Name); err != nil || got != id {
				t.Fatalf("Lookup(%q) = %d, %v; want %d", a.Name, got, err, id)
			}
			if got, err := a.ID(); err != nil || got != id {
				t.Fatalf("%s.ID() = %d, %v; want %d", a.Name, got, err, id)
			}
		}
	}
	changed := MustByName("wc")
	changed.Profile.BaseIPC *= 2
	if _, err := changed.ID(); err == nil {
		t.Fatal("a changed copy of wc has an id")
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup of an unknown name succeeded")
	}
	if _, err := (&App{Name: "nope"}).ID(); err == nil {
		t.Fatal("an unknown application has an id")
	}
}
