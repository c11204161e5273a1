package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"ecost/internal/cluster"
	"ecost/internal/hdfs"
	"ecost/internal/mapreduce"
	"ecost/internal/perfctr"
	"ecost/internal/workloads"
)

// Knowledge-base persistence: a deployment builds the database and
// trains the STP models once (cmd/ecost-train), then ships the bundle to
// the schedulers. The database serializes its entries and observations;
// the raw training rows are not persisted (they are only needed to train
// models, which serialize themselves through the ml package, and Rows
// sweeps them again from the entries' observations on first use).

// dbDTO is the serialized database.
type dbDTO struct {
	Version int          `json:"version"`
	Entries []dbEntryDTO `json:"entries"`
}

type dbEntryDTO struct {
	A    obsDTO    `json:"a"`
	B    obsDTO    `json:"b"`
	Cfg  [2]cfgDTO `json:"cfg"`
	EDP  float64   `json:"edp"`
	Time float64   `json:"makespan"`
	En   float64   `json:"energy_j"`
}

type obsDTO struct {
	App      string    `json:"app"`
	SizeGB   float64   `json:"size_gb"`
	Features []float64 `json:"features"`
}

type cfgDTO struct {
	Freq    float64 `json:"freq_ghz"`
	BlockMB int     `json:"block_mb"`
	Mappers int     `json:"mappers"`
}

func toObsDTO(o Observation) obsDTO {
	return obsDTO{App: o.App.Name(), SizeGB: o.SizeGB, Features: o.Features.Slice()}
}

func fromObsDTO(d obsDTO) (Observation, error) {
	app, err := workloads.Lookup(d.App)
	if err != nil {
		return Observation{}, err
	}
	if len(d.Features) != int(perfctr.NumMetrics) {
		return Observation{}, fmt.Errorf("core: load database: %s has %d features, want %d",
			d.App, len(d.Features), perfctr.NumMetrics)
	}
	var v perfctr.Vector
	copy(v[:], d.Features)
	return Observation{App: app, SizeGB: d.SizeGB, Features: v}, nil
}

func toCfgDTO(c mapreduce.Config) cfgDTO {
	return cfgDTO{Freq: float64(c.Freq), BlockMB: int(c.Block), Mappers: c.Mappers}
}

func fromCfgDTO(d cfgDTO) mapreduce.Config {
	return mapreduce.Config{
		Freq:    cluster.FreqGHz(d.Freq),
		Block:   hdfs.BlockMB(d.BlockMB),
		Mappers: d.Mappers,
	}
}

// SaveDatabase writes the database's lookup entries to w as JSON.
// The class-pair training rows are not persisted — they exist to train
// models, and trained models serialize via ml.SaveModel.
func (db *Database) SaveDatabase(w io.Writer) error {
	dto := dbDTO{Version: 1}
	for _, e := range db.Entries {
		dto.Entries = append(dto.Entries, dbEntryDTO{
			A:    toObsDTO(e.A),
			B:    toObsDTO(e.B),
			Cfg:  [2]cfgDTO{toCfgDTO(e.Best.Cfg[0]), toCfgDTO(e.Best.Cfg[1])},
			EDP:  e.Best.Out.EDP,
			Time: e.Best.Out.Makespan,
			En:   e.Best.Out.EnergyJ,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(dto)
}

// LoadDatabase reads a database written by SaveDatabase and rebuilds the
// classifier over its observations. The oracle is re-attached so lookups
// and evaluations keep working against the given model. rowStride is
// the ConfigStride the database was built with: Rows sweeps the
// training rows at it, as a built database does, when they are first
// used. Entries that are not a full canonical pair grid load, but can
// never have rows.
func LoadDatabase(r io.Reader, oracle *Oracle, rowStride int) (*Database, error) {
	var dto dbDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: load database: %w", err)
	}
	if dto.Version != 1 {
		return nil, fmt.Errorf("core: load database: unsupported version %d", dto.Version)
	}
	if len(dto.Entries) == 0 {
		return nil, fmt.Errorf("core: load database: no entries")
	}
	db := &Database{oracle: oracle, stride: rowStride}
	seen := map[string]Observation{}
	for i, ed := range dto.Entries {
		a, err := fromObsDTO(ed.A)
		if err != nil {
			return nil, fmt.Errorf("core: load database entry %d: %w", i, err)
		}
		b, err := fromObsDTO(ed.B)
		if err != nil {
			return nil, fmt.Errorf("core: load database entry %d: %w", i, err)
		}
		cfg := [2]mapreduce.Config{fromCfgDTO(ed.Cfg[0]), fromCfgDTO(ed.Cfg[1])}
		db.Entries = append(db.Entries, DBEntry{
			A: a, B: b,
			Best: PairBest{Cfg: cfg, Out: mapreduce.CoOutcome{
				EDP: ed.EDP, Makespan: ed.Time, EnergyJ: ed.En,
			}},
		})
		seen[fmt.Sprintf("%s@%g", a.App.Name(), a.SizeGB)] = a
		seen[fmt.Sprintf("%s@%g", b.App.Name(), b.SizeGB)] = b
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	obs := make([]Observation, 0, len(keys))
	for _, k := range keys {
		obs = append(obs, seen[k])
	}
	classer, err := NewClassifier(obs)
	if err != nil {
		return nil, fmt.Errorf("core: load database: %w", err)
	}
	db.classer = classer
	db.obs = pairObservations(db.Entries)
	return db, nil
}
