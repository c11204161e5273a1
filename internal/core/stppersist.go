package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"ecost/internal/ml"
	"ecost/internal/workloads"
)

// MLM-STP persistence: the trained per-(class-pair, size) regressors
// serialize to a versioned JSON envelope so the Env artifact cache can
// skip retraining. Keys are written in sorted order, so equal model
// sets produce byte-identical output — the property the build
// determinism tests compare.

const mlmSTPFormatVersion = 1

type mlmSTPFile struct {
	Version     int            `json:"version"`
	Name        string         `json:"name"`
	UseFeatures bool           `json:"use_features"`
	TrainTimeNS int64          `json:"train_time_ns"`
	Models      []mlmModelFile `json:"models"`
}

type mlmModelFile struct {
	ClassA int             `json:"class_a"`
	ClassB int             `json:"class_b"`
	SizeA  float64         `json:"size_a"`
	SizeB  float64         `json:"size_b"`
	Model  json.RawMessage `json:"model"`
}

// SaveModels writes every trained regressor to w in sorted key order,
// training them first if needed.
func (s *MLMSTP) SaveModels(w io.Writer) error {
	if err := s.trained(); err != nil {
		return err
	}
	keys := make([]modelKey, 0, len(s.models))
	for k := range s.models {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.cp != b.cp {
			if a.cp.A != b.cp.A {
				return a.cp.A < b.cp.A
			}
			return a.cp.B < b.cp.B
		}
		if a.sizeA != b.sizeA {
			return a.sizeA < b.sizeA
		}
		return a.sizeB < b.sizeB
	})
	file := mlmSTPFile{
		Version:     mlmSTPFormatVersion,
		Name:        s.name,
		UseFeatures: s.useFeatures,
		TrainTimeNS: s.trainTime.Nanoseconds(),
		Models:      make([]mlmModelFile, 0, len(keys)),
	}
	for _, k := range keys {
		var buf bytes.Buffer
		if err := ml.SaveModel(&buf, s.models[k]); err != nil {
			return fmt.Errorf("core: save %s model %v: %w", s.name, k.cp, err)
		}
		file.Models = append(file.Models, mlmModelFile{
			ClassA: int(k.cp.A),
			ClassB: int(k.cp.B),
			SizeA:  k.sizeA,
			SizeB:  k.sizeB,
			Model:  json.RawMessage(bytes.TrimSpace(buf.Bytes())),
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}

// LoadMLMSTP reads a technique written by SaveModels, rebinding it to
// db (the database supplies the classifier and configuration space the
// prediction path needs; it must be the one the models were trained
// from, which the Env artifact cache guarantees by keying both on the
// same options hash). The loaded technique is already trained.
func LoadMLMSTP(r io.Reader, db *Database) (*MLMSTP, error) {
	var file mlmSTPFile
	if err := json.NewDecoder(r).Decode(&file); err != nil {
		return nil, fmt.Errorf("core: load MLM-STP: %w", err)
	}
	if file.Version != mlmSTPFormatVersion {
		return nil, fmt.Errorf("core: load MLM-STP: unsupported format version %d", file.Version)
	}
	if len(file.Models) == 0 {
		return nil, fmt.Errorf("core: load MLM-STP %s: no models", file.Name)
	}
	s := &MLMSTP{
		name:        file.Name,
		db:          db,
		models:      make(map[modelKey]ml.Regressor, len(file.Models)),
		useFeatures: file.UseFeatures,
		trainTime:   time.Duration(file.TrainTimeNS),
	}
	for _, mf := range file.Models {
		m, err := ml.LoadModel(bytes.NewReader(mf.Model))
		if err != nil {
			return nil, fmt.Errorf("core: load %s model: %w", file.Name, err)
		}
		k := modelKey{
			cp:    ClassPair{A: workloads.Class(mf.ClassA), B: workloads.Class(mf.ClassB)},
			sizeA: mf.SizeA,
			sizeB: mf.SizeB,
		}
		s.models[k] = m
	}
	s.once.Do(func() {})
	return s, nil
}
