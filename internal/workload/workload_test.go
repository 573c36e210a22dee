package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ecocloud-go/mondrian/internal/tuple"
)

func TestUniformDeterministic(t *testing.T) {
	a := Uniform("a", Config{Seed: 1, Tuples: 1000})
	b := Uniform("b", Config{Seed: 1, Tuples: 1000})
	if !tuple.SameMultiset(a.Tuples, b.Tuples) {
		t.Fatal("same seed produced different relations")
	}
	for i := range a.Tuples {
		if a.Tuples[i] != b.Tuples[i] {
			t.Fatal("same seed produced different tuple order")
		}
	}
	c := Uniform("c", Config{Seed: 2, Tuples: 1000})
	if tuple.SameMultiset(a.Tuples, c.Tuples) {
		t.Fatal("different seeds produced identical relations")
	}
}

func TestUniformKeySpace(t *testing.T) {
	r := Uniform("r", Config{Seed: 3, Tuples: 5000, KeySpace: 128})
	for _, tp := range r.Tuples {
		if uint64(tp.Key) >= 128 {
			t.Fatalf("key %d outside key space 128", tp.Key)
		}
	}
}

func TestFKPairUniqueRKeys(t *testing.T) {
	r, s, err := FKPair(Config{Seed: 4, Tuples: 4000}, 500)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[tuple.Key]bool, r.Len())
	for _, tp := range r.Tuples {
		if seen[tp.Key] {
			t.Fatalf("duplicate R key %d", tp.Key)
		}
		seen[tp.Key] = true
	}
	if r.Len() != 500 || s.Len() != 4000 {
		t.Fatalf("sizes: |R|=%d |S|=%d", r.Len(), s.Len())
	}
	// Every S key must exist in R (foreign-key property).
	for _, tp := range s.Tuples {
		if !seen[tp.Key] {
			t.Fatalf("S key %d has no R match", tp.Key)
		}
	}
}

// Caller-supplied sizes are inputs, not invariants: bad values come back
// as errors, never panics (the robustness contract of DESIGN.md §10).
func TestFKPairRejectsBadSizes(t *testing.T) {
	if _, _, err := FKPair(Config{Seed: 1, Tuples: 10}, 0); err == nil {
		t.Fatal("FKPair with rTuples=0 did not error")
	}
	if _, _, err := FKPair(Config{Seed: 1, Tuples: 10}, -3); err == nil {
		t.Fatal("FKPair with rTuples=-3 did not error")
	}
	if _, _, err := FKPair(Config{Seed: 1, Tuples: -10}, 5); err == nil {
		t.Fatal("FKPair with Tuples=-10 did not error")
	}
}

func TestGroupByRejectsBadSizes(t *testing.T) {
	if _, err := GroupBy(Config{Seed: 1, Tuples: 10}, 0); err == nil {
		t.Fatal("GroupBy with avgGroupSize=0 did not error")
	}
	if _, err := GroupBy(Config{Seed: 1, Tuples: -10}, 4); err == nil {
		t.Fatal("GroupBy with Tuples=-10 did not error")
	}
}

func TestGroupByAverageGroupSize(t *testing.T) {
	const n, g = 40000, 4
	r, err := GroupBy(Config{Seed: 5, Tuples: n}, g)
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[tuple.Key]int)
	for _, tp := range r.Tuples {
		groups[tp.Key]++
	}
	avg := float64(n) / float64(len(groups))
	if avg < 3.5 || avg > 4.5 {
		t.Fatalf("average group size %.2f, want ~%d", avg, g)
	}
}

func TestScanTargetPresent(t *testing.T) {
	r := Uniform("r", Config{Seed: 6, Tuples: 1000, KeySpace: 100})
	needle, count := ScanTarget(r, 9)
	if count < 1 {
		t.Fatal("ScanTarget returned absent needle")
	}
	actual := 0
	for _, tp := range r.Tuples {
		if tp.Key == needle {
			actual++
		}
	}
	if actual != count {
		t.Fatalf("ScanTarget count = %d, actual %d", count, actual)
	}
}

func TestScanTargetEmpty(t *testing.T) {
	if _, count := ScanTarget(tuple.NewRelation("e", 0), 1); count != 0 {
		t.Fatal("empty relation should yield zero count")
	}
}

func TestZipfSkewed(t *testing.T) {
	r, err := Zipf("z", Config{Seed: 7, Tuples: 20000, KeySpace: 1 << 20}, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[tuple.Key]int)
	for _, tp := range r.Tuples {
		counts[tp.Key]++
	}
	// The hottest key of a Zipf(1.3) stream must be far above uniform share.
	hottest := 0
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	if hottest < 100 {
		t.Fatalf("Zipf stream not skewed: hottest key has %d occurrences", hottest)
	}
}

func TestSequential(t *testing.T) {
	r := Sequential("s", 10)
	if !r.IsSortedByKey() {
		t.Fatal("Sequential not sorted")
	}
	if r.Tuples[9].Key != 9 || r.Tuples[9].Val != 18 {
		t.Fatalf("unexpected last tuple %v", r.Tuples[9])
	}
}

func TestDescribe(t *testing.T) {
	got := Describe(Sequential("s", 3))
	want := "s: 3 tuples (48 bytes)"
	if got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}
}

// Property: FKPair always yields unique R keys and fully-matching S keys.
func TestFKPairProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64, rn, sn uint16) bool {
		rSize := int(rn)%200 + 1
		sSize := int(sn) % 2000
		r, s, err := FKPair(Config{Seed: seed, Tuples: sSize}, rSize)
		if err != nil {
			return false
		}
		keys := make(map[tuple.Key]bool, r.Len())
		for _, tp := range r.Tuples {
			if keys[tp.Key] {
				return false
			}
			keys[tp.Key] = true
		}
		for _, tp := range s.Tuples {
			if !keys[tp.Key] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Caller-supplied exponents are inputs, not invariants: Zipf returns an
// error for s outside (1, +Inf) instead of panicking (DESIGN.md §10).
func TestZipfPanicsOnBadExponent(t *testing.T) {
	for _, s := range []float64{1.0, 0.5, -2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Zipf("z", Config{Seed: 1, Tuples: 10, KeySpace: 100}, s); err == nil {
			t.Fatalf("Zipf with s=%v did not error", s)
		}
	}
	if _, err := Zipf("z", Config{Seed: 1, Tuples: -1, KeySpace: 100}, 1.5); err == nil {
		t.Fatal("Zipf with Tuples=-1 did not error")
	}
}

func TestFKPairZipf(t *testing.T) {
	r, s, err := FKPairZipf(Config{Seed: 21, Tuples: 20000}, 512, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 512 || s.Len() != 20000 {
		t.Fatalf("sizes: |R|=%d |S|=%d", r.Len(), s.Len())
	}
	keys := make(map[tuple.Key]bool, r.Len())
	for _, tp := range r.Tuples {
		if keys[tp.Key] {
			t.Fatalf("duplicate R key %d", tp.Key)
		}
		keys[tp.Key] = true
	}
	counts := make(map[tuple.Key]int)
	for _, tp := range s.Tuples {
		if !keys[tp.Key] {
			t.Fatalf("S key %d has no R match", tp.Key)
		}
		counts[tp.Key]++
	}
	// The reference skew must be visible: the hottest R row gets far more
	// than its uniform share of S references.
	hottest := 0
	for _, c := range counts {
		if c > hottest {
			hottest = c
		}
	}
	if uniform := s.Len() / 512; hottest < 4*uniform {
		t.Fatalf("FKPairZipf not skewed: hottest row has %d refs (uniform share %d)", hottest, uniform)
	}
}

func TestFKPairZipfRejectsBadInputs(t *testing.T) {
	if _, _, err := FKPairZipf(Config{Seed: 1, Tuples: 10}, 8, 1.0); err == nil {
		t.Fatal("FKPairZipf with s=1.0 did not error")
	}
	if _, _, err := FKPairZipf(Config{Seed: 1, Tuples: 10}, 0, 1.5); err == nil {
		t.Fatal("FKPairZipf with rTuples=0 did not error")
	}
	if _, _, err := FKPairZipf(Config{Seed: 1, Tuples: -1}, 8, 1.5); err == nil {
		t.Fatal("FKPairZipf with Tuples=-1 did not error")
	}
}

func TestDefaultKeySpace(t *testing.T) {
	// KeySpace 0 defaults to 4× the cardinality.
	r := Uniform("r", Config{Seed: 8, Tuples: 1000})
	for _, tp := range r.Tuples {
		if uint64(tp.Key) >= 4000 {
			t.Fatalf("key %d outside default key space", tp.Key)
		}
	}
}

func TestGroupByTinyRelation(t *testing.T) {
	// Fewer tuples than the group size still yields at least one group.
	r, err := GroupBy(Config{Seed: 9, Tuples: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	for _, tp := range r.Tuples {
		if tp.Key != 0 {
			t.Fatalf("expected single group, got key %d", tp.Key)
		}
	}
}
