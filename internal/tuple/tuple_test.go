package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTupleSize(t *testing.T) {
	// The simulated memory system assumes 16-byte tuples everywhere.
	if Size != 16 {
		t.Fatalf("tuple Size = %d, want 16", Size)
	}
}

func TestRelationAppendLenBytes(t *testing.T) {
	r := NewRelation("r", 4)
	if r.Len() != 0 || r.Bytes() != 0 {
		t.Fatalf("empty relation: Len=%d Bytes=%d", r.Len(), r.Bytes())
	}
	r.Append(Tuple{1, 10}, Tuple{2, 20}, Tuple{3, 30})
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Bytes() != 48 {
		t.Fatalf("Bytes = %d, want 48", r.Bytes())
	}
}

func TestCloneIndependence(t *testing.T) {
	r := &Relation{Name: "r", Tuples: []Tuple{{1, 1}, {2, 2}}}
	c := r.Clone()
	c.Tuples[0].Key = 99
	if r.Tuples[0].Key != 1 {
		t.Fatal("Clone shares backing storage with original")
	}
	if c.Name != "r" {
		t.Fatalf("Clone name = %q, want %q", c.Name, "r")
	}
}

func TestSortByKey(t *testing.T) {
	r := &Relation{Tuples: []Tuple{{3, 0}, {1, 0}, {2, 0}}}
	if r.IsSortedByKey() {
		t.Fatal("unsorted relation reported sorted")
	}
	r.SortByKey()
	if !r.IsSortedByKey() {
		t.Fatal("relation not sorted after SortByKey")
	}
	want := []Key{1, 2, 3}
	for i, k := range want {
		if r.Tuples[i].Key != k {
			t.Fatalf("Tuples[%d].Key = %d, want %d", i, r.Tuples[i].Key, k)
		}
	}
}

func TestSplitEvenSizes(t *testing.T) {
	for _, tc := range []struct {
		total, n int
	}{
		{10, 3}, {0, 4}, {7, 7}, {5, 8}, {64, 16},
	} {
		r := &Relation{Name: "r", Tuples: make([]Tuple, tc.total)}
		for i := range r.Tuples {
			r.Tuples[i] = Tuple{Key(i), Value(i)}
		}
		parts := r.SplitEven(tc.n)
		if len(parts) != tc.n {
			t.Fatalf("SplitEven(%d) returned %d parts", tc.n, len(parts))
		}
		sum, maxSz, minSz := 0, 0, tc.total+1
		for _, p := range parts {
			sum += p.Len()
			if p.Len() > maxSz {
				maxSz = p.Len()
			}
			if p.Len() < minSz {
				minSz = p.Len()
			}
		}
		if sum != tc.total {
			t.Fatalf("parts cover %d tuples, want %d", sum, tc.total)
		}
		if maxSz-minSz > 1 {
			t.Fatalf("uneven split: max %d min %d", maxSz, minSz)
		}
		// Concatenation must reproduce the original order exactly.
		back := Concat("back", parts)
		for i := range r.Tuples {
			if back.Tuples[i] != r.Tuples[i] {
				t.Fatalf("Concat(SplitEven) mismatch at %d", i)
			}
		}
	}
}

func TestSplitEvenPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SplitEven(0) did not panic")
		}
	}()
	(&Relation{}).SplitEven(0)
}

func TestDigestOrderInsensitive(t *testing.T) {
	a := []Tuple{{1, 10}, {2, 20}, {3, 30}}
	b := []Tuple{{3, 30}, {1, 10}, {2, 20}}
	if !SameMultiset(a, b) {
		t.Fatal("permuted slices should digest equal")
	}
}

func TestDigestDetectsMissingAndChanged(t *testing.T) {
	a := []Tuple{{1, 10}, {2, 20}, {3, 30}}
	if SameMultiset(a, a[:2]) {
		t.Fatal("digest missed a dropped tuple")
	}
	c := []Tuple{{1, 10}, {2, 21}, {3, 30}}
	if SameMultiset(a, c) {
		t.Fatal("digest missed a changed payload")
	}
	d := []Tuple{{1, 10}, {2, 20}, {2, 20}}
	if SameMultiset(a, d) {
		t.Fatal("digest missed a multiplicity change")
	}
}

func TestDigestMultiplicity(t *testing.T) {
	// {x, x} vs {x} with padding must differ even when xor cancels.
	x := Tuple{7, 7}
	a := []Tuple{x, x}
	b := []Tuple{x}
	if SameMultiset(a, b) {
		t.Fatal("digest treated duplicate pair as single")
	}
}

// Property: a random permutation of any tuple slice digests identically,
// while mutating any single element's payload changes the digest.
func TestDigestPermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(keys []uint64) bool {
		ts := make([]Tuple, len(keys))
		for i, k := range keys {
			ts[i] = Tuple{Key(k), Value(rng.Uint64())}
		}
		perm := make([]Tuple, len(ts))
		copy(perm, ts)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if !SameMultiset(ts, perm) {
			return false
		}
		if len(ts) > 0 {
			i := rng.Intn(len(ts))
			perm[i].Val++
			if SameMultiset(ts, perm) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: SplitEven is a partition — disjoint, covering, order-preserving.
func TestSplitEvenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8, parts uint8) bool {
		p := int(parts)%16 + 1
		r := &Relation{Name: "r", Tuples: make([]Tuple, int(n))}
		for i := range r.Tuples {
			r.Tuples[i] = Tuple{Key(rng.Uint64()), Value(rng.Uint64())}
		}
		split := r.SplitEven(p)
		back := Concat("back", split)
		return SameMultiset(r.Tuples, back.Tuples) && len(back.Tuples) == len(r.Tuples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Regression: SplitEven no longer formats a name per chunk, so its
// allocations are exactly the output slice plus one Relation header per
// chunk — independent of the parent's name length.
func TestSplitEvenAllocs(t *testing.T) {
	r := &Relation{Name: "a-relation-with-a-reasonably-long-name", Tuples: make([]Tuple, 1<<12)}
	const n = 64
	allocs := testing.AllocsPerRun(100, func() {
		r.SplitEven(n)
	})
	// 1 for the []*Relation plus n Relation structs.
	if allocs > n+1 {
		t.Fatalf("SplitEven(%d) allocated %.1f times per run, want <= %d", n, allocs, n+1)
	}
}

// ChunkName still provides the indexed display form on demand.
func TestChunkName(t *testing.T) {
	r := &Relation{Name: "rel"}
	if got := r.ChunkName(3); got != "rel[3]" {
		t.Fatalf("ChunkName(3) = %q, want %q", got, "rel[3]")
	}
}
