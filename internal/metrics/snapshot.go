package metrics

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time, name-sorted copy of every instrument.
// Taken from a deterministic simulation it is itself deterministic:
// rendering the same snapshot twice — or the snapshot of two same-seed
// runs — yields byte-identical output (volatile wall-clock instruments
// are excluded unless requested; see Registry.Snapshot).
//
// Every entry carries the shard that recorded it. WritePrometheus
// labels the shards when more than one is present; the text and JSON
// forms render one shard's snapshot (see Shard) and omit it.
type Snapshot struct {
	Counters   []CounterSnap `json:"counters,omitempty"`
	Gauges     []GaugeSnap   `json:"gauges,omitempty"`
	Histograms []HistSnap    `json:"histograms,omitempty"`
	Series     []SeriesSnap  `json:"series,omitempty"`
	Events     []Event       `json:"events,omitempty"`
}

// CounterSnap is one counter's reading.
type CounterSnap struct {
	Name     string `json:"name"`
	Value    int64  `json:"value"`
	Volatile bool   `json:"volatile,omitempty"`
	Shard    int    `json:"-"`
}

// GaugeSnap is one gauge's reading.
type GaugeSnap struct {
	Name     string  `json:"name"`
	Value    float64 `json:"value"`
	Volatile bool    `json:"volatile,omitempty"`
	Shard    int     `json:"-"`
}

// HistSnap summarizes one histogram.
type HistSnap struct {
	Name     string  `json:"name"`
	Count    int64   `json:"count"`
	Sum      float64 `json:"sum"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	P50      float64 `json:"p50"`
	P95      float64 `json:"p95"`
	P99      float64 `json:"p99"`
	Volatile bool    `json:"volatile,omitempty"`
	Shard    int     `json:"-"`
}

// SeriesSnap carries one series' retained points plus a summary.
type SeriesSnap struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
	Last   float64 `json:"last"`
	Max    float64 `json:"max"`
	Shard  int     `json:"-"`
}

// Snapshot copies every shard's instruments, sorted by name and then
// shard, and every event in emission order. Volatile instruments
// (wall-clock readings, implementation-effort counters) are included
// only when includeVolatile is true; everything else in the snapshot
// is deterministic.
func (r *Registry) Snapshot(includeVolatile bool) Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := maps.Clone(r.counters)
	gauges := maps.Clone(r.gauges)
	hists := maps.Clone(r.hists)
	series := maps.Clone(r.series)
	s.Events = slices.Clone(r.events)
	r.mu.Unlock()

	for k, c := range counters {
		if c.Volatile() && !includeVolatile {
			continue
		}
		s.Counters = append(s.Counters, CounterSnap{Name: k.name, Value: c.Value(), Volatile: c.Volatile(), Shard: k.shard})
	}
	for k, g := range gauges {
		if g.Volatile() && !includeVolatile {
			continue
		}
		s.Gauges = append(s.Gauges, GaugeSnap{Name: k.name, Value: g.Value(), Volatile: g.Volatile(), Shard: k.shard})
	}
	for k, h := range hists {
		if h.Volatile() && !includeVolatile {
			continue
		}
		hs := HistSnap{Name: k.name, Count: h.Count(), Sum: h.Sum(), Volatile: h.Volatile(), Shard: k.shard}
		if hs.Count > 0 {
			hs.Min = h.min.load()
			hs.Max = h.max.load()
			hs.P50 = h.Quantile(0.50)
			hs.P95 = h.Quantile(0.95)
			hs.P99 = h.Quantile(0.99)
		}
		s.Histograms = append(s.Histograms, hs)
	}
	for k, se := range series {
		ss := SeriesSnap{Name: k.name, Points: se.Points(), Shard: k.shard}
		for i, p := range ss.Points {
			if i == 0 || p.V > ss.Max {
				ss.Max = p.V
			}
			ss.Last = p.V
		}
		s.Series = append(s.Series, ss)
	}
	sortSection(s.Counters, func(c CounterSnap) (string, int) { return c.Name, c.Shard })
	sortSection(s.Gauges, func(g GaugeSnap) (string, int) { return g.Name, g.Shard })
	sortSection(s.Histograms, func(h HistSnap) (string, int) { return h.Name, h.Shard })
	sortSection(s.Series, func(se SeriesSnap) (string, int) { return se.Name, se.Shard })
	return s
}

// sortSection sorts one section by name, then shard.
func sortSection[T any](xs []T, key func(T) (string, int)) {
	slices.SortFunc(xs, func(a, b T) int {
		an, as := key(a)
		bn, bs := key(b)
		return cmp.Or(strings.Compare(an, bn), cmp.Compare(as, bs))
	})
}

// Shard returns shard i's part of the snapshot: the snapshot a registry
// holding only that shard's instruments and events would take.
func (s Snapshot) Shard(i int) Snapshot {
	return Snapshot{
		Counters:   onShard(s.Counters, func(c CounterSnap) int { return c.Shard }, i),
		Gauges:     onShard(s.Gauges, func(g GaugeSnap) int { return g.Shard }, i),
		Histograms: onShard(s.Histograms, func(h HistSnap) int { return h.Shard }, i),
		Series:     onShard(s.Series, func(se SeriesSnap) int { return se.Shard }, i),
		Events:     onShard(s.Events, func(e Event) int { return e.Shard }, i),
	}
}

// onShard keeps the entries of xs that shard i recorded, in order.
func onShard[T any](xs []T, shard func(T) int, i int) []T {
	var out []T
	for _, x := range xs {
		if shard(x) == i {
			out = append(out, x)
		}
	}
	return out
}

// fmtF renders a float the same way everywhere (shortest round-trip
// form) so text expositions are byte-stable.
func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteText renders the snapshot as a human-readable exposition. Series
// are summarized (count/last/max); the full point lists travel in the
// JSON form.
func (s Snapshot) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "# ecost metrics snapshot"); err != nil {
		return err
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, c := range s.Counters {
			tag := ""
			if c.Volatile {
				tag = " (volatile)"
			}
			fmt.Fprintf(w, "  %-32s %d%s\n", c.Name, c.Value, tag)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, g := range s.Gauges {
			tag := ""
			if g.Volatile {
				tag = " (volatile)"
			}
			fmt.Fprintf(w, "  %-32s %s%s\n", g.Name, fmtF(g.Value), tag)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:")
		for _, h := range s.Histograms {
			tag := ""
			if h.Volatile {
				tag = " (volatile)"
			}
			if h.Count == 0 {
				fmt.Fprintf(w, "  %-32s count=0%s\n", h.Name, tag)
				continue
			}
			fmt.Fprintf(w, "  %-32s count=%d sum=%s min=%s p50=%s p95=%s p99=%s max=%s%s\n",
				h.Name, h.Count, fmtF(h.Sum), fmtF(h.Min),
				fmtF(h.P50), fmtF(h.P95), fmtF(h.P99), fmtF(h.Max), tag)
		}
	}
	if len(s.Series) > 0 {
		fmt.Fprintln(w, "series:")
		for _, se := range s.Series {
			fmt.Fprintf(w, "  %-32s points=%d last=%s max=%s\n",
				se.Name, len(se.Points), fmtF(se.Last), fmtF(se.Max))
		}
	}
	if len(s.Events) > 0 {
		fmt.Fprintln(w, "events:")
		for _, e := range s.Events {
			fmt.Fprintf(w, "  %12.3f %-8s job=%-3d node=%-3d %s\n",
				e.At, e.Kind, e.Job, e.Node, e.Detail)
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON (full series points
// included).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}
