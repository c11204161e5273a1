package engine

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestWordCountCorrect(t *testing.T) {
	recs := []KV{
		{Key: "l1", Value: "the quick brown fox"},
		{Key: "l2", Value: "the lazy dog"},
		{Key: "l3", Value: "The end."},
	}
	res, err := Run(WordCount(), SplitRecords(recs, 2))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range res.Output {
		counts[kv.Key] = kv.Value
	}
	if counts["the"] != "3" {
		t.Errorf("count(the) = %q, want 3", counts["the"])
	}
	if counts["fox"] != "1" || counts["dog"] != "1" || counts["end"] != "1" {
		t.Errorf("unexpected counts: %v", counts)
	}
	if res.Counters.MapInputRecords != 3 {
		t.Errorf("map input records = %d", res.Counters.MapInputRecords)
	}
}

func TestWordCountCombinerPreservesResult(t *testing.T) {
	recs := TextLines(200, 10, 50, 7)
	with, err := Run(WordCount(), SplitRecords(recs, 4))
	if err != nil {
		t.Fatal(err)
	}
	job := WordCount()
	job.Combine = nil
	without, err := Run(job, SplitRecords(recs, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(with.Output) != len(without.Output) {
		t.Fatalf("combiner changed output size: %d vs %d", len(with.Output), len(without.Output))
	}
	for i := range with.Output {
		if with.Output[i] != without.Output[i] {
			t.Fatalf("combiner changed record %d: %v vs %v", i, with.Output[i], without.Output[i])
		}
	}
	if with.Counters.MapOutputRecords <= int64(len(with.Output)) {
		t.Error("combiner statistics look wrong")
	}
}

func TestResultIndependentOfParallelism(t *testing.T) {
	recs := TextLines(300, 8, 80, 11)
	var outputs [][]KV
	for _, cfg := range []struct{ splits, mappers, reducers int }{
		{1, 1, 1}, {4, 2, 3}, {8, 8, 5}, {16, 3, 2},
	} {
		job := WordCount()
		job.Mappers = cfg.mappers
		job.Reducers = cfg.reducers
		res, err := Run(job, SplitRecords(recs, cfg.splits))
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, res.Output)
	}
	for i := 1; i < len(outputs); i++ {
		if len(outputs[i]) != len(outputs[0]) {
			t.Fatalf("parallelism changed output size: %d vs %d", len(outputs[i]), len(outputs[0]))
		}
		for j := range outputs[i] {
			if outputs[i][j] != outputs[0][j] {
				t.Fatalf("parallelism changed output record %d", j)
			}
		}
	}
}

func TestSortProducesSortedOutput(t *testing.T) {
	recs := TeraRecords(500, 3)
	// Key the records by their sort key for the identity sort.
	for i := range recs {
		recs[i] = KV{Key: recs[i].Value[:10], Value: recs[i].Value}
	}
	res, err := Run(Sort(), SplitRecords(recs, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 500 {
		t.Fatalf("sort lost records: %d", len(res.Output))
	}
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i].Key < res.Output[i-1].Key {
			t.Fatal("output not sorted")
		}
	}
}

func TestTeraSortTotalOrder(t *testing.T) {
	recs := TeraRecords(400, 5)
	res, err := Run(TeraSort(), SplitRecords(recs, 8))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 400 {
		t.Fatalf("terasort lost records: %d of 400", len(res.Output))
	}
	for i := 1; i < len(res.Output); i++ {
		if res.Output[i].Key < res.Output[i-1].Key {
			t.Fatal("terasort output not key-ordered")
		}
	}
}

func TestGrep(t *testing.T) {
	recs := []KV{
		{Key: "1", Value: "error: disk failure"},
		{Key: "2", Value: "all good"},
		{Key: "3", Value: "another error here"},
	}
	res, err := Run(Grep("error"), SplitRecords(recs, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0].Value != "2" {
		t.Fatalf("grep output = %v, want [error→2]", res.Output)
	}
}

func TestNaiveBayesCounts(t *testing.T) {
	recs := []KV{
		{Key: "d1", Value: "spam\tbuy now"},
		{Key: "d2", Value: "ham\thello friend"},
		{Key: "d3", Value: "spam\tbuy cheap"},
	}
	res, err := Run(NaiveBayes(), SplitRecords(recs, 2))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range res.Output {
		got[kv.Key] = kv.Value
	}
	if got["spam:buy"] != "2" || got["spam:#docs"] != "2" || got["ham:#docs"] != "1" {
		t.Fatalf("naive bayes counts wrong: %v", got)
	}
}

func TestKMeansIterationMovesCenters(t *testing.T) {
	centers := [][2]float64{{0, 0}, {10, 10}}
	pts := Points(500, [][2]float64{{1, 1}, {9, 9}}, 0.5, 13)
	res, err := Run(KMeansIteration(centers), SplitRecords(pts, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 2 {
		t.Fatalf("kmeans produced %d centroids, want 2", len(res.Output))
	}
	for _, kv := range res.Output {
		x, y, ok := parsePoint(kv.Value)
		if !ok {
			t.Fatalf("bad centroid %q", kv.Value)
		}
		// Centroids must have moved toward the true clusters (1,1)/(9,9).
		if kv.Key == "0" && (x < 0.8 || x > 1.2 || y < 0.8 || y > 1.2) {
			t.Errorf("centroid 0 at (%v,%v), want ≈(1,1)", x, y)
		}
		if kv.Key == "1" && (x < 8.8 || x > 9.2 || y < 8.8 || y > 9.2) {
			t.Errorf("centroid 1 at (%v,%v), want ≈(9,9)", x, y)
		}
	}
}

func TestPageRankConservesMass(t *testing.T) {
	graph := WebGraph(100, 4, 17)
	res, err := Run(PageRankIteration(0.85, 100), SplitRecords(graph, 8))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	n := 0
	for _, kv := range res.Output {
		rankStr, _, _ := strings.Cut(kv.Value, "\t")
		r, err := strconv.ParseFloat(rankStr, 64)
		if err != nil {
			t.Fatalf("bad rank %q", kv.Value)
		}
		total += r
		n++
	}
	// Dangling-free graph: total rank stays ≈ 1 under the power step.
	if total < 0.9 || total > 1.1 {
		t.Fatalf("rank mass = %v over %d pages, want ≈1", total, n)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Job{Name: "broken"}, SplitRecords(TextLines(2, 2, 2, 1), 1)); err == nil {
		t.Fatal("job without map/reduce accepted")
	}
	res, err := Run(WordCount(), nil)
	if err != nil || len(res.Output) != 0 {
		t.Fatalf("empty input should give empty output: %v %v", res, err)
	}
}

func TestSplitRecordsProperty(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%200 + 1
		k := int(kRaw)%20 + 1
		recs := TextLines(n, 2, 10, 1)
		splits := SplitRecords(recs, k)
		total := 0
		for _, s := range splits {
			if len(s) == 0 {
				return false
			}
			total += len(s)
		}
		return total == n && len(splits) <= k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPartitionStable(t *testing.T) {
	for _, key := range []string{"a", "hello", "w0042", ""} {
		p := partition(key, 7)
		for i := 0; i < 10; i++ {
			if partition(key, 7) != p {
				t.Fatalf("partition(%q) unstable", key)
			}
		}
		if p < 0 || p >= 7 {
			t.Fatalf("partition(%q) = %d out of range", key, p)
		}
	}
}

func TestCountersConsistent(t *testing.T) {
	recs := TextLines(100, 6, 40, 19)
	res, err := Run(WordCount(), SplitRecords(recs, 5))
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c.MapInputRecords != 100 || c.MapTasks != 5 {
		t.Errorf("map counters wrong: %+v", c)
	}
	if c.OutputRecords != int64(len(res.Output)) {
		t.Errorf("output counter %d != %d records", c.OutputRecords, len(res.Output))
	}
	if c.ReduceInputKeys != c.OutputRecords {
		t.Errorf("wordcount emits one record per key: %d keys vs %d outputs", c.ReduceInputKeys, c.OutputRecords)
	}
}
