// Package hdfs carries the one aspect of the Hadoop Distributed File
// System that the ECoST study tunes: the HDFS block size knob
// (64–1024 MB). The execution model reads it only through the split
// count, the number of map tasks a dataset of a given size yields.
//
// The paper flushes the buffer page cache before each run so every block
// is read fresh from disk; the model therefore charges full disk reads.
package hdfs

// BlockMB is an HDFS block size in megabytes.
type BlockMB int

// The block sizes studied in the paper.
const (
	Block64   BlockMB = 64
	Block128  BlockMB = 128
	Block256  BlockMB = 256
	Block512  BlockMB = 512
	Block1024 BlockMB = 1024
)

// BlockSizes lists the studied HDFS block sizes in ascending order.
func BlockSizes() []BlockMB {
	return []BlockMB{Block64, Block128, Block256, Block512, Block1024}
}

// ValidBlock reports whether b is one of the studied block sizes.
func ValidBlock(b BlockMB) bool {
	for _, x := range BlockSizes() {
		if x == b {
			return true
		}
	}
	return false
}

// Splits returns the number of input splits (map tasks) for a dataset of
// dataMB megabytes at block size b: ceil(dataMB/b), at least 1 for any
// non-empty dataset.
func Splits(dataMB float64, b BlockMB) int {
	if dataMB <= 0 {
		return 0
	}
	n := int(dataMB) / int(b)
	if float64(n*int(b)) < dataMB {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}
