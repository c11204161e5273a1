package hdfs

import (
	"testing"
	"testing/quick"
)

func TestSplitsExact(t *testing.T) {
	cases := []struct {
		dataMB float64
		block  BlockMB
		want   int
	}{
		{1024, Block64, 16},
		{1024, Block128, 8},
		{1024, Block256, 4},
		{1024, Block512, 2},
		{1024, Block1024, 1},
		{10240, Block1024, 10},
		{100, Block64, 2},
		{64, Block64, 1},
		{65, Block64, 2},
		{1, Block1024, 1},
		{0, Block64, 0},
		{-5, Block64, 0},
	}
	for _, c := range cases {
		if got := Splits(c.dataMB, c.block); got != c.want {
			t.Errorf("Splits(%v, %d) = %d, want %d", c.dataMB, c.block, got, c.want)
		}
	}
}

func TestSplitsCoverData(t *testing.T) {
	f := func(raw uint32, bi uint8) bool {
		dataMB := float64(raw%200000) + 1
		b := BlockSizes()[int(bi)%5]
		n := Splits(dataMB, b)
		// n blocks must cover the data, n-1 must not.
		return float64(n)*float64(b) >= dataMB && float64(n-1)*float64(b) < dataMB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
