package simulate

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestBulkDifferential is the bulk-path acceptance test: for every
// (System, Operator) pair and every input shape, the complete Result —
// timing, energy, DRAM stats, step timeline — and its JSON encoding are
// byte-identical whether the run-based bulk fast path or the per-tuple
// reference implementation executes. The bulk path may only change
// wall-clock time, never a simulated number.
func TestBulkDifferential(t *testing.T) {
	// The shapes, keyed by subtest-name suffix: the golden shape;
	// skew-aware execution on uniform keys and at Zipf exponents 1.5 and
	// 2.0, where hot-key splitting and exact provisioning take their
	// batched paths; and a small shape (4 Ki/2 Ki tuples over a 16 Ki key
	// space at TestParams' 4 Ki CPU buckets) that leaves about one tuple
	// per CPU bucket.
	skew := func(zipfS float64) Params {
		p := goldenParams()
		p.SkewAware = true
		p.ZipfS = zipfS
		return p
	}
	small := TestParams()
	small.STuples = 1 << 12
	small.RTuples = 1 << 11
	small.KeySpace = 1 << 14
	shapes := []struct {
		suffix string
		p      Params
	}{
		{"", goldenParams()},
		{"/skew", skew(0)},
		{"/skew/zipf1.5", skew(1.5)},
		{"/skew/zipf2", skew(2.0)},
		{"/small", small},
	}
	for _, s := range Systems() {
		for _, op := range Operators() {
			for _, shape := range shapes {
				s, op, shape := s, op, shape
				t.Run(s.String()+"/"+op.String()+shape.suffix, func(t *testing.T) {
					t.Parallel()
					var golden *Result
					var goldenJSON []byte
					for _, noBulk := range []bool{false, true} {
						p := shape.p
						p.NoBulk = noBulk
						r, err := Run(s, op, p)
						if err != nil {
							t.Fatalf("noBulk=%v: %v", noBulk, err)
						}
						if !r.Verified {
							t.Fatalf("noBulk=%v: output verification failed", noBulk)
						}
						j, err := json.Marshal(r)
						if err != nil {
							t.Fatalf("noBulk=%v: marshal: %v", noBulk, err)
						}
						if golden == nil {
							golden, goldenJSON = r, j
							continue
						}
						if !reflect.DeepEqual(golden, r) {
							t.Errorf("Result with reference path differs from bulk path")
						}
						if !bytes.Equal(goldenJSON, j) {
							t.Errorf("report JSON with reference path differs from bulk path:\n%s\nvs\n%s",
								goldenJSON, j)
						}
					}
				})
			}
		}
	}
}

// TestBulkDifferentialParallel repeats the bulk/reference comparison at
// parallelism 4 for one representative sequential-algorithm system, so
// the bulk trace-buffer replay is exercised under the worker pool too.
func TestBulkDifferentialParallel(t *testing.T) {
	for _, op := range Operators() {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			t.Parallel()
			var golden *Result
			for _, noBulk := range []bool{false, true} {
				p := goldenParams()
				p.NoBulk = noBulk
				p.Parallelism = 4
				r, err := Run(Mondrian, op, p)
				if err != nil {
					t.Fatalf("noBulk=%v: %v", noBulk, err)
				}
				if golden == nil {
					golden = r
					continue
				}
				if !reflect.DeepEqual(golden, r) {
					t.Errorf("Result with reference path differs from bulk path at parallelism 4")
				}
			}
		})
	}
}
