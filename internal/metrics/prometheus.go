package metrics

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// This file renders a Snapshot in the Prometheus text exposition format
// (version 0.0.4) — what the ecost-sim -serve /metrics endpoint returns
// so a live online run can be scraped. The mapping:
//
//   - counters  → counter families
//   - gauges    → gauge families
//   - histograms → summary families (the snapshot already carries the
//     interpolated p50/p95/p99, which map onto quantile samples more
//     faithfully than re-deriving cumulative buckets would)
//   - series    → a gauge holding the latest sample
//
// Metric names are prefixed "ecost_" and sanitized to the Prometheus
// grammar (dots and other separators become underscores). Sanitizing
// can merge distinct instrument names ("a.b" and "a+b" both become
// ecost_a_b), and a summary's implicit _sum/_count samples can land on
// a sibling instrument's name; the renderer disambiguates both cases
// with a deterministic _2, _3, ... suffix so the exposition never emits
// duplicate families or samples. Like every snapshot renderer, output
// order is fixed (name-sorted within each section), so the exposition
// is deterministic for a deterministic snapshot.

// PromName sanitizes an instrument name into a Prometheus metric name.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 6)
	b.WriteString("ecost_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == ':':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeHelp escapes a HELP string per the exposition format.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promNamer hands out collision-free family names. Every sample name a
// family will emit (the family name itself plus any implicit suffixes
// like a summary's _sum/_count) is reserved; a later instrument whose
// sanitized name lands on a reserved one gets the next free _N variant.
// Render order is fixed, so the suffixes are deterministic.
type promNamer struct {
	taken map[string]bool
}

func (n *promNamer) claim(instrument string, suffixes ...string) string {
	if n.taken == nil {
		n.taken = make(map[string]bool)
	}
	base := PromName(instrument)
	cand := base
	for i := 2; n.conflicts(cand, suffixes); i++ {
		cand = fmt.Sprintf("%s_%d", base, i)
	}
	n.taken[cand] = true
	for _, sfx := range suffixes {
		n.taken[cand+sfx] = true
	}
	return cand
}

func (n *promNamer) conflicts(cand string, suffixes []string) bool {
	if n.taken[cand] {
		return true
	}
	for _, sfx := range suffixes {
		if n.taken[cand+sfx] {
			return true
		}
	}
	return false
}

// WritePrometheus renders the snapshot as Prometheus text exposition.
// A snapshot of one shard renders one unlabeled family per instrument,
// in section order. A snapshot of several shards renders each
// instrument name once per section, name-sorted, with one sample per
// shard holding it, labeled shard="i" (summary quantiles carry
// {quantile="q",shard="i"}).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var namer promNamer
	head := func(name, src, typ string) {
		fmt.Fprintf(bw, "# HELP %s ecost instrument %s\n", name, promEscapeHelp(src))
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
	}
	merged := s.shards() > 1
	// labels renders a sample's label set: the quantile, if any, and
	// the shard in the merged layout.
	labels := func(quantile string, shard int) string {
		var ls []string
		if quantile != "" {
			ls = append(ls, `quantile="`+quantile+`"`)
		}
		if merged {
			ls = append(ls, `shard="`+strconv.Itoa(shard)+`"`)
		}
		if len(ls) == 0 {
			return ""
		}
		return "{" + strings.Join(ls, ",") + "}"
	}
	for _, fam := range promFamilies(s.Counters, merged, func(c CounterSnap) (string, int) { return c.Name, c.Shard }) {
		name := namer.claim(fam[0].Name)
		head(name, fam[0].Name, "counter")
		for _, c := range fam {
			fmt.Fprintf(bw, "%s%s %d\n", name, labels("", c.Shard), c.Value)
		}
	}
	for _, fam := range promFamilies(s.Gauges, merged, func(g GaugeSnap) (string, int) { return g.Name, g.Shard }) {
		name := namer.claim(fam[0].Name)
		head(name, fam[0].Name, "gauge")
		for _, g := range fam {
			fmt.Fprintf(bw, "%s%s %s\n", name, labels("", g.Shard), fmtF(g.Value))
		}
	}
	for _, fam := range promFamilies(s.Histograms, merged, func(h HistSnap) (string, int) { return h.Name, h.Shard }) {
		name := namer.claim(fam[0].Name, "_sum", "_count")
		head(name, fam[0].Name, "summary")
		for _, h := range fam {
			if h.Count > 0 {
				fmt.Fprintf(bw, "%s%s %s\n", name, labels("0.5", h.Shard), fmtF(h.P50))
				fmt.Fprintf(bw, "%s%s %s\n", name, labels("0.95", h.Shard), fmtF(h.P95))
				fmt.Fprintf(bw, "%s%s %s\n", name, labels("0.99", h.Shard), fmtF(h.P99))
			}
			fmt.Fprintf(bw, "%s_sum%s %s\n", name, labels("", h.Shard), fmtF(h.Sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", name, labels("", h.Shard), h.Count)
		}
	}
	for _, fam := range promFamilies(s.Series, merged, func(se SeriesSnap) (string, int) { return se.Name, se.Shard }) {
		name := namer.claim(fam[0].Name)
		head(name, fam[0].Name+" (latest sample)", "gauge")
		for _, se := range fam {
			fmt.Fprintf(bw, "%s%s %s\n", name, labels("", se.Shard), fmtF(se.Last))
		}
	}
	return bw.Flush()
}

// shards counts the distinct shards the snapshot's instruments carry.
func (s Snapshot) shards() int {
	seen := map[int]bool{}
	for _, c := range s.Counters {
		seen[c.Shard] = true
	}
	for _, g := range s.Gauges {
		seen[g.Shard] = true
	}
	for _, h := range s.Histograms {
		seen[h.Shard] = true
	}
	for _, se := range s.Series {
		seen[se.Shard] = true
	}
	return len(seen)
}

// promFamilies groups one section's entries into families. Unmerged,
// every entry is a family of its own, in section order. Merged, the
// k-th entry named n in each shard's part of the section joins n's k-th
// family (a snapshot may hold several same-named instruments, and the
// one-shard layout gives each its own family, so the merged one must
// too); families sort by (name, k) and their entries by shard.
func promFamilies[T any](xs []T, merged bool, key func(T) (string, int)) [][]T {
	if !merged {
		fams := make([][]T, len(xs))
		for i, x := range xs {
			fams[i] = []T{x}
		}
		return fams
	}
	type entry struct {
		name       string
		occ, shard int
		x          T
	}
	type seenKey struct {
		name  string
		shard int
	}
	seen := map[seenKey]int{}
	ents := make([]entry, len(xs))
	for i, x := range xs {
		name, shard := key(x)
		k := seenKey{name, shard}
		ents[i] = entry{name, seen[k], shard, x}
		seen[k]++
	}
	slices.SortStableFunc(ents, func(a, b entry) int {
		return cmp.Or(strings.Compare(a.name, b.name), cmp.Compare(a.occ, b.occ), cmp.Compare(a.shard, b.shard))
	})
	var fams [][]T
	for i, e := range ents {
		if i == 0 || e.name != ents[i-1].name || e.occ != ents[i-1].occ {
			fams = append(fams, nil)
		}
		fams[len(fams)-1] = append(fams[len(fams)-1], e.x)
	}
	return fams
}
