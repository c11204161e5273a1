package core

import (
	"bytes"
	"strings"
	"testing"

	"ecost/internal/mapreduce"
	"ecost/internal/perfctr"
	"ecost/internal/workloads"
)

// seedDatabaseJSON serializes a small hand-built database — the honest
// on-disk shape the fuzzer mutates from.
func seedDatabaseJSON(f *testing.F) []byte {
	f.Helper()
	var feat perfctr.Vector
	for i := range feat {
		feat[i] = float64(i+1) / float64(len(feat))
	}
	obs := func(name string, size float64) Observation {
		app, err := workloads.Lookup(name)
		if err != nil {
			f.Fatal(err)
		}
		return Observation{App: app, SizeGB: size, Features: feat}
	}
	db := &Database{Entries: []DBEntry{
		{
			A: obs("wc", 1), B: obs("st", 5),
			Best: PairBest{
				Cfg: [2]mapreduce.Config{
					{Freq: 2.4, Block: 128, Mappers: 4},
					{Freq: 1.6, Block: 64, Mappers: 2},
				},
				Out: mapreduce.CoOutcome{EDP: 120, Makespan: 12, EnergyJ: 10},
			},
		},
		{
			A: obs("ts", 5), B: obs("km", 1),
			Best: PairBest{
				Cfg: [2]mapreduce.Config{
					{Freq: 2.0, Block: 256, Mappers: 3},
					{Freq: 2.0, Block: 128, Mappers: 5},
				},
				Out: mapreduce.CoOutcome{EDP: 300, Makespan: 20, EnergyJ: 15},
			},
		},
	}}
	var buf bytes.Buffer
	if err := db.SaveDatabase(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadDatabase feeds arbitrary bytes to the database loader: it must
// either return an error or a database whose entries are internally
// consistent — never panic, never a silently empty success.
func FuzzLoadDatabase(f *testing.F) {
	valid := seedDatabaseJSON(f)
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"entries":[]}`))
	f.Add([]byte(`{"version":99,"entries":[{}]}`))
	f.Add([]byte(`{"version":1,"entries":[{"a":{"app":"wc","size_gb":1,"features":[1]}}]}`))
	f.Add([]byte(strings.Replace(string(valid), `"wc"`, `"nosuchapp"`, 1)))
	f.Add([]byte(`not json at all`))
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := LoadDatabase(bytes.NewReader(data), nil, 0)
		if err != nil {
			return
		}
		if db == nil || len(db.Entries) == 0 {
			t.Fatal("LoadDatabase succeeded with an empty database")
		}
		for i, e := range db.Entries {
			if e.A.App.Name() == "" || e.B.App.Name() == "" {
				t.Fatalf("entry %d resolved to an empty application", i)
			}
		}
		// A loaded database must survive re-serialization.
		var buf bytes.Buffer
		if err := db.SaveDatabase(&buf); err != nil {
			t.Fatalf("re-save of loaded database failed: %v", err)
		}
	})
}
