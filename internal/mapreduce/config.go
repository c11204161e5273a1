// Package mapreduce is the execution model at the centre of the
// reproduction: it predicts execution time, power, energy and EDP for
// Hadoop MapReduce applications running solo or co-located on a
// microserver node, as a function of the three tuning knobs the paper
// studies — CPU frequency, HDFS block size, and the number of mappers
// running simultaneously on the node.
//
// The model is analytic (closed-form with a small fixed-point iteration
// for disk contention) so the brute-force oracle searches of the paper
// (84,480 runs' worth of configuration space) evaluate in milliseconds.
// See DESIGN.md §4 for the model equations and the calibration targets.
package mapreduce

import (
	"fmt"
	"sync"

	"ecost/internal/cluster"
	"ecost/internal/hdfs"
)

// Config is one point in the tuning space of a single application:
// the paper's three interdependent knobs.
type Config struct {
	Freq    cluster.FreqGHz
	Block   hdfs.BlockMB
	Mappers int
}

// String renders a config the way Table 2 of the paper does:
// "freq, hdfs, map".
func (c Config) String() string {
	return fmt.Sprintf("%.1f,%d,%d", float64(c.Freq), int(c.Block), c.Mappers)
}

// Validate checks the config against the studied knob ranges; maxMappers
// is the number of cores available to this application on its node.
func (c Config) Validate(maxMappers int) error {
	if !cluster.ValidFreq(c.Freq) {
		return fmt.Errorf("mapreduce: config %v: frequency not a platform DVFS level", c)
	}
	if !hdfs.ValidBlock(c.Block) {
		return fmt.Errorf("mapreduce: config %v: block size not in studied set", c)
	}
	if c.Mappers < 1 || c.Mappers > maxMappers {
		return fmt.Errorf("mapreduce: config %v: mappers out of range [1,%d]", c, maxMappers)
	}
	return nil
}

// Baseline is the normalization reference used throughout the paper's
// EDP-improvement figures: 64 MB HDFS blocks at the minimum operating
// frequency (mappers vary per experiment).
func Baseline(mappers int) Config {
	return Config{Freq: cluster.MinFreq, Block: hdfs.Block64, Mappers: mappers}
}

// AllConfigs enumerates the full tuning space for one application with up
// to maxMappers mappers: |freqs| × |blocks| × maxMappers points (the
// paper's 4 × 5 × 8 = 160 per standalone application).
func AllConfigs(maxMappers int) []Config {
	if maxMappers < 1 {
		return nil
	}
	out := make([]Config, 0, 20*maxMappers)
	for _, f := range cluster.Frequencies() {
		for _, b := range hdfs.BlockSizes() {
			for m := 1; m <= maxMappers; m++ {
				out = append(out, Config{Freq: f, Block: b, Mappers: m})
			}
		}
	}
	return out
}

var (
	pairConfigMu    sync.Mutex // serializes misses
	pairConfigCache sync.Map   // cores → [][2]Config
)

// PairConfigsCached returns PairConfigs(cores), memoized. The slice is
// shared: callers must not mutate it. The oracle searches and the
// MLM-STP argmin call this on every pair, so the 11,200-element
// enumeration is built once per core count, also when the database
// build's workers all miss at once.
func PairConfigsCached(cores int) [][2]Config {
	if v, ok := pairConfigCache.Load(cores); ok {
		return v.([][2]Config)
	}
	pairConfigMu.Lock()
	defer pairConfigMu.Unlock()
	if v, ok := pairConfigCache.Load(cores); ok {
		return v.([][2]Config)
	}
	pcs := PairConfigs(cores)
	pairConfigCache.Store(cores, pcs)
	return pcs
}

// PairConfigs enumerates joint tuning points for two co-located
// applications whose mapper counts must share the node's cores:
// m1 ≥ 1, m2 ≥ 1, m1+m2 ≤ cores. This is COLAO's brute-force space.
func PairConfigs(cores int) [][2]Config {
	var out [][2]Config
	for _, f1 := range cluster.Frequencies() {
		for _, b1 := range hdfs.BlockSizes() {
			for _, f2 := range cluster.Frequencies() {
				for _, b2 := range hdfs.BlockSizes() {
					for m1 := 1; m1 < cores; m1++ {
						for m2 := 1; m1+m2 <= cores; m2++ {
							out = append(out, [2]Config{
								{Freq: f1, Block: b1, Mappers: m1},
								{Freq: f2, Block: b2, Mappers: m2},
							})
						}
					}
				}
			}
		}
	}
	return out
}
