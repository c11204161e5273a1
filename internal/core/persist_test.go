package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ecost/internal/workloads"
)

func TestDatabaseRoundTrip(t *testing.T) {
	fixture(t)
	var buf bytes.Buffer
	if err := fix.db.SaveDatabase(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(&buf, fix.oracle, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Entries) != len(fix.db.Entries) {
		t.Fatalf("entries: %d vs %d", len(loaded.Entries), len(fix.db.Entries))
	}
	for i := range loaded.Entries {
		a, b := loaded.Entries[i], fix.db.Entries[i]
		if a.A.App.Name() != b.A.App.Name() || a.B.SizeGB != b.B.SizeGB {
			t.Fatalf("entry %d identity changed", i)
		}
		if a.Best.Cfg != b.Best.Cfg || a.Best.Out.EDP != b.Best.Out.EDP {
			t.Fatalf("entry %d payload changed: %+v vs %+v", i, a.Best, b.Best)
		}
	}
	// The rebuilt classifier must behave identically on clean features.
	for _, app := range workloads.Apps() {
		o, err := fix.profiler.ObserveExact(app, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := loaded.Classifier().Classify(o), fix.db.Classifier().Classify(o); got != want {
			t.Errorf("%s classified %v after reload, want %v", app.Name, got, want)
		}
	}
	// Loaded at the build's stride, the database sweeps the built one's
	// training rows bit for bit.
	builtRows, err := fix.db.Rows()
	if err != nil {
		t.Fatal(err)
	}
	loadedRows, err := loaded.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loadedRows, builtRows) {
		t.Fatal("a loaded database's training rows differ from the built database's")
	}
	// LkT lookups keep working on the reloaded database.
	oa, err := fix.profiler.Observe(workloads.MustByName("nb"), 5)
	if err != nil {
		t.Fatal(err)
	}
	lkt := &LkTSTP{DB: loaded}
	cfg, err := lkt.PredictBest(oa, oa)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg[0].Validate(8); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDatabaseRejectsGarbage(t *testing.T) {
	fixture(t)
	if _, err := LoadDatabase(strings.NewReader("nope"), fix.oracle, 0); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := LoadDatabase(strings.NewReader(`{"version":99,"entries":[]}`), fix.oracle, 0); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := LoadDatabase(strings.NewReader(`{"version":1,"entries":[]}`), fix.oracle, 0); err == nil {
		t.Error("empty database accepted")
	}
	bad := `{"version":1,"entries":[{"a":{"app":"bogus","size_gb":5,"features":[]},` +
		`"b":{"app":"wc","size_gb":5,"features":[]},"cfg":[{},{}],"edp":1}]}`
	if _, err := LoadDatabase(strings.NewReader(bad), fix.oracle, 0); err == nil {
		t.Error("unknown application accepted")
	}
}
