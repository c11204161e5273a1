package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Trigger kinds. TriggerDrift mirrors the audit subsystem's
// stp.drift_alert gauge name: any CUSUM alarm inside an epoch snapshots
// the ring, because a drifting tenant profile is exactly what the
// bounded history exists to explain.
const (
	TriggerDrift     = "stp_drift_alert"
	TriggerQueue     = "queue_growth"
	TriggerImbalance = "shard_imbalance"
)

// maxKeptTriggers bounds the trigger list the health report carries;
// triggersTotal keeps counting past it.
const maxKeptTriggers = 64

// Trigger names one anomaly: what fired, when, the implicated shards
// and tenants, and the observed value against its bound (for
// TriggerDrift the value is the worst CUSUM statistic and the bound is
// 0 — the detector's own threshold already gated it).
type Trigger struct {
	Kind    string   `json:"trigger"`
	AtS     float64  `json:"at_s"`
	Epoch   int      `json:"epoch"`
	Shards  []int    `json:"shards,omitempty"`
	Tenants []string `json:"tenants,omitempty"`
	Value   float64  `json:"value"`
	Bound   float64  `json:"bound"`
}

// Dump is one ring snapshot: the trigger that fired it plus the full
// chronological window of epoch records at that moment.
type Dump struct {
	Trigger Trigger
	Records []EpochRecord
}

// evalTriggers runs the anomaly checks for the epoch just recorded;
// drift is the epoch's drift trigger, with no shards when no mark
// landed. Caller holds r.mu.
func (r *Recorder) evalTriggers(epoch int, t float64, stats []ShardStat, drift Trigger) {
	if drift.Shards != nil {
		sort.Strings(drift.Tenants)
		drift.Kind, drift.AtS, drift.Epoch = TriggerDrift, t, epoch
		r.fire(drift)
	}

	load := 0
	for _, st := range stats {
		load += st.Queue + st.Active
	}
	if load < queueFloorPerShard*len(stats) {
		return
	}
	// The hottest shard is the implicated one for both load triggers.
	hot, hotLoad := 0, -1
	for i, st := range stats {
		if l := st.Queue + st.Active; l > hotLoad {
			hot, hotLoad = i, l
		}
	}
	if r.qn == len(r.qt) && r.slope > queueSlopeBound {
		r.fire(Trigger{
			Kind: TriggerQueue, AtS: t, Epoch: epoch,
			Shards: []int{hot}, Tenants: r.tenantsOf(hot),
			Value: r.slope, Bound: queueSlopeBound,
		})
	}
	if r.fairLast < fairnessMin {
		r.fire(Trigger{
			Kind: TriggerImbalance, AtS: t, Epoch: epoch,
			Shards: []int{hot}, Tenants: r.tenantsOf(hot),
			Value: r.fairLast, Bound: fairnessMin,
		})
	}
}

func (r *Recorder) tenantsOf(shard int) []string {
	if r.tenants == nil {
		return nil
	}
	return r.tenants(shard, 3)
}

// fire records a trigger and, outside the dump cooldown, snapshots the
// ring. Caller holds r.mu.
func (r *Recorder) fire(tr Trigger) {
	r.triggersTotal++
	if len(r.triggers) < maxKeptTriggers {
		r.triggers = append(r.triggers, tr)
	}
	if len(r.dumps) >= maxDumps || tr.Epoch < r.cooldownUntil {
		return
	}
	r.cooldownUntil = tr.Epoch + cooldownEpochs
	r.dumps = append(r.dumps, Dump{Trigger: tr, Records: r.snapshotLocked()})
}

// Dumps returns the retained flight dumps in firing order.
func (r *Recorder) Dumps() []Dump {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Dump(nil), r.dumps...)
}

// dumpHeader is the first JSONL line of one dump: the trigger plus the
// record count that follows.
type dumpHeader struct {
	Trigger
	Records int `json:"records"`
}

// WriteDumps renders every retained dump as JSON Lines: one header
// line per dump (the trigger, naming the implicated tenants, shards,
// and epoch) followed by its chronological epoch records. The output
// is a pure function of the recorded stream — byte-identical at any
// GOMAXPROCS — and empty (zero bytes) when nothing fired.
func (r *Recorder) WriteDumps(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	dumps := append([]Dump(nil), r.dumps...)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range dumps {
		if err := enc.Encode(dumpHeader{Trigger: d.Trigger, Records: len(d.Records)}); err != nil {
			return err
		}
		for _, rec := range d.Records {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteEpochs renders the ring's records as JSON Lines in
// chronological order; shard >= 0 filters to one shard (the /epochs
// endpoint).
func (r *Recorder) WriteEpochs(w io.Writer, shard int) error {
	if r == nil {
		return nil
	}
	recs := r.Snapshot()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if shard >= 0 && rec.Shard != shard {
			continue
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteShards renders the per-shard health rows as a JSON array (the
// /shards endpoint).
func (r *Recorder) WriteShards(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	h := r.Health()
	if h.PerShard == nil {
		h.PerShard = []ShardHealth{}
	}
	out, err := json.MarshalIndent(h.PerShard, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
