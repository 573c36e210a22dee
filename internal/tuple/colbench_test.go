package tuple

import (
	"math/rand"
	"testing"
)

// BenchmarkColumnarKernel times the host-side hot kernels the operators'
// bulk paths run over AoS tuples: the scan's compare loop, the range
// partitioner's bucket math, and SortSliceByKey. The bench guard pins
// every variant against a >10% regression (make bench-guard); the
// benchmark and sub-benchmark names are the baseline's keys.

const kernelN = 1 << 17

func kernelData() []Tuple {
	rng := rand.New(rand.NewSource(42))
	ts := make([]Tuple, kernelN)
	for i := range ts {
		ts[i] = Tuple{Key: Key(rng.Uint64() % (1 << 24)), Val: Value(i)}
	}
	return ts
}

func BenchmarkColumnarKernel(b *testing.B) {
	ts := kernelData()

	// Scan: find an absent needle, i.e. the full-length compare loop.
	b.Run("scan-aos", func(b *testing.B) {
		b.SetBytes(kernelN * Size)
		var sink int
		for i := 0; i < b.N; i++ {
			m := 0
			for m < len(ts) && ts[m].Key != Key(1<<60) {
				m++
			}
			sink += m
		}
		_ = sink
	})

	// Partition: the operator's two passes — histogram, then scatter —
	// each recompute every tuple's range-partitioning bucket (what
	// Partitioner.Bucket does).
	const buckets = uint64(64)
	const keySpace = uint64(1) << 24
	b.Run("partition-aos", func(b *testing.B) {
		b.SetBytes(kernelN * Size)
		var hist, off [buckets]int64
		for i := 0; i < b.N; i++ {
			for j := range ts {
				hist[uint64(ts[j].Key)*buckets/keySpace]++
			}
			for j := range ts {
				off[uint64(ts[j].Key)*buckets/keySpace]++
			}
		}
		_, _ = hist, off
	})

	// Sort: each iteration re-sorts a fresh copy of the same data.
	b.Run("sort-aos", func(b *testing.B) {
		b.SetBytes(kernelN * Size)
		buf := make([]Tuple, kernelN)
		for i := 0; i < b.N; i++ {
			copy(buf, ts)
			SortSliceByKey(buf)
		}
	})
}
