package engine

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"ecost/internal/sim"
)

// This file implements genuine MapReduce applications matching the
// paper's micro-benchmarks and a representative subset of its real-world
// workloads: WordCount, Grep, Sort, TeraSort, Naïve Bayes (training
// counts), K-Means (one Lloyd iteration) and PageRank (one power
// iteration). The examples and the live-characterization path run these
// against synthetic inputs from datagen.go.

// WordCount counts word occurrences in text lines.
func WordCount() Job {
	return Job{
		Name: "wordcount",
		Map: func(_, line string, emit func(KV)) {
			for _, w := range strings.Fields(line) {
				emit(KV{Key: strings.ToLower(strings.Trim(w, ".,!?;:\"'")), Value: "1"})
			}
		},
		Combine: sumReducer,
		Reduce:  sumReducer,
	}
}

// sumReducer adds integer values per key.
func sumReducer(key string, values []string, emit func(KV)) {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		total += n
	}
	emit(KV{Key: key, Value: strconv.Itoa(total)})
}

// Grep emits lines matching the pattern (substring match, like the
// Hadoop example's default mode) keyed by the match.
func Grep(pattern string) Job {
	return Job{
		Name: "grep",
		Map: func(_, line string, emit func(KV)) {
			if strings.Contains(line, pattern) {
				emit(KV{Key: pattern, Value: line})
			}
		},
		Reduce: func(key string, values []string, emit func(KV)) {
			emit(KV{Key: key, Value: strconv.Itoa(len(values))})
		},
	}
}

// Sort is the identity MapReduce: the shuffle's sort-merge does the
// work, exactly like Hadoop's Sort example.
func Sort() Job {
	return Job{
		Name: "sort",
		Map: func(key, value string, emit func(KV)) {
			emit(KV{Key: key, Value: value})
		},
		Reduce: func(key string, values []string, emit func(KV)) {
			for _, v := range values {
				emit(KV{Key: key, Value: v})
			}
		},
	}
}

// TeraSort sorts fixed-width records by their 10-byte key prefix.
func TeraSort() Job {
	return Job{
		Name: "terasort",
		Map: func(_, record string, emit func(KV)) {
			k := record
			if len(k) > 10 {
				k = k[:10]
			}
			emit(KV{Key: k, Value: record})
		},
		Reduce: func(key string, values []string, emit func(KV)) {
			sort.Strings(values)
			for _, v := range values {
				emit(KV{Key: key, Value: v})
			}
		},
	}
}

// NaiveBayes computes per-class word likelihood counts from labelled
// documents ("label<TAB>text") — the training pass of the classifier.
func NaiveBayes() Job {
	return Job{
		Name: "naivebayes",
		Map: func(_, doc string, emit func(KV)) {
			label, text, ok := strings.Cut(doc, "\t")
			if !ok {
				return
			}
			for _, w := range strings.Fields(text) {
				emit(KV{Key: label + ":" + strings.ToLower(w), Value: "1"})
			}
			emit(KV{Key: label + ":#docs", Value: "1"})
		},
		Combine: sumReducer,
		Reduce:  sumReducer,
	}
}

// KMeansIteration assigns points ("x,y") to the nearest centre and
// reduces to new centroids — one Lloyd step.
func KMeansIteration(centers [][2]float64) Job {
	return Job{
		Name: "kmeans",
		Map: func(_, pt string, emit func(KV)) {
			x, y, ok := parsePoint(pt)
			if !ok {
				return
			}
			best, bestD := 0, math.Inf(1)
			for i, c := range centers {
				d := (x-c[0])*(x-c[0]) + (y-c[1])*(y-c[1])
				if d < bestD {
					best, bestD = i, d
				}
			}
			emit(KV{Key: strconv.Itoa(best), Value: pt})
		},
		Reduce: func(key string, values []string, emit func(KV)) {
			var sx, sy float64
			n := 0
			for _, v := range values {
				x, y, ok := parsePoint(v)
				if !ok {
					continue
				}
				sx += x
				sy += y
				n++
			}
			if n > 0 {
				emit(KV{Key: key, Value: fmt.Sprintf("%.4f,%.4f", sx/float64(n), sy/float64(n))})
			}
		},
	}
}

func parsePoint(s string) (x, y float64, ok bool) {
	xs, ys, found := strings.Cut(s, ",")
	if !found {
		return 0, 0, false
	}
	x, err1 := strconv.ParseFloat(strings.TrimSpace(xs), 64)
	y, err2 := strconv.ParseFloat(strings.TrimSpace(ys), 64)
	return x, y, err1 == nil && err2 == nil
}

// PageRankIteration performs one power-iteration step over an adjacency
// list ("src<TAB>rank<TAB>dst1,dst2,…"): mass flows to successors; the
// reducer applies the damping factor.
func PageRankIteration(damping float64, numPages int) Job {
	return Job{
		Name: "pagerank",
		Map: func(_, line string, emit func(KV)) {
			parts := strings.SplitN(line, "\t", 3)
			if len(parts) != 3 {
				return
			}
			src := parts[0]
			rank, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				return
			}
			var dests []string
			if parts[2] != "" {
				dests = strings.Split(parts[2], ",")
			}
			// Preserve the structure for the next iteration.
			emit(KV{Key: src, Value: "links\t" + parts[2]})
			if len(dests) > 0 {
				share := rank / float64(len(dests))
				for _, d := range dests {
					emit(KV{Key: d, Value: "mass\t" + strconv.FormatFloat(share, 'g', 17, 64)})
				}
			}
		},
		Reduce: func(key string, values []string, emit func(KV)) {
			var mass float64
			links := ""
			for _, v := range values {
				kind, rest, _ := strings.Cut(v, "\t")
				switch kind {
				case "mass":
					m, err := strconv.ParseFloat(rest, 64)
					if err == nil {
						mass += m
					}
				case "links":
					links = rest
				}
			}
			rank := (1-damping)/float64(numPages) + damping*mass
			emit(KV{Key: key, Value: fmt.Sprintf("%.6f\t%s", rank, links)})
		},
	}
}

// --- Synthetic input generators ---

// TextLines generates n lines of zipf-ish text with the given vocabulary
// size, deterministically from seed.
func TextLines(n, wordsPerLine, vocab int, seed int64) []KV {
	rng := sim.NewRNG(seed)
	out := make([]KV, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.Reset()
		for w := 0; w < wordsPerLine; w++ {
			if w > 0 {
				b.WriteByte(' ')
			}
			// Squaring a uniform sample skews toward low word ids — a
			// cheap Zipf-like frequency profile.
			u := rng.Float64()
			id := int(u * u * float64(vocab))
			fmt.Fprintf(&b, "w%04d", id)
		}
		out[i] = KV{Key: fmt.Sprintf("line%06d", i), Value: b.String()}
	}
	return out
}

// TeraRecords generates n TeraSort-style records with random 10-char
// keys.
func TeraRecords(n int, seed int64) []KV {
	rng := sim.NewRNG(seed)
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	out := make([]KV, n)
	for i := 0; i < n; i++ {
		var key [10]byte
		for j := range key {
			key[j] = alphabet[rng.Intn(len(alphabet))]
		}
		out[i] = KV{Key: fmt.Sprintf("rec%06d", i), Value: string(key[:]) + fmt.Sprintf("|payload%06d", i)}
	}
	return out
}

// LabelledDocs generates labelled documents for Naïve Bayes.
func LabelledDocs(n int, labels []string, seed int64) []KV {
	rng := sim.NewRNG(seed)
	text := TextLines(n, 12, 400, seed+1)
	out := make([]KV, n)
	for i := 0; i < n; i++ {
		label := labels[rng.Intn(len(labels))]
		out[i] = KV{Key: fmt.Sprintf("doc%06d", i), Value: label + "\t" + text[i].Value}
	}
	return out
}

// Points generates 2-D points around the given centres.
func Points(n int, centers [][2]float64, spread float64, seed int64) []KV {
	rng := sim.NewRNG(seed)
	out := make([]KV, n)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(len(centers))]
		x := rng.Normal(c[0], spread)
		y := rng.Normal(c[1], spread)
		out[i] = KV{Key: fmt.Sprintf("p%06d", i), Value: fmt.Sprintf("%.4f,%.4f", x, y)}
	}
	return out
}

// WebGraph generates a random graph in PageRank's adjacency format with
// uniform initial rank.
func WebGraph(pages, avgOut int, seed int64) []KV {
	rng := sim.NewRNG(seed)
	out := make([]KV, pages)
	initial := 1.0 / float64(pages)
	for i := 0; i < pages; i++ {
		nOut := 1 + rng.Intn(2*avgOut)
		seen := map[int]bool{}
		var dests []string
		for len(dests) < nOut {
			d := rng.Intn(pages)
			if d == i || seen[d] {
				continue
			}
			seen[d] = true
			dests = append(dests, fmt.Sprintf("p%d", d))
		}
		out[i] = KV{
			Key:   fmt.Sprintf("p%d", i),
			Value: fmt.Sprintf("p%d\t%g\t%s", i, initial, strings.Join(dests, ",")),
		}
	}
	return out
}
