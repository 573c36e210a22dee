// Package workload generates the synthetic datasets used by the Mondrian
// Data Engine experiments.
//
// The paper evaluates all operators on 16-byte tuples with uniformly
// distributed keys (§6). Join inputs follow a foreign-key relationship:
// every tuple of the large relation S matches exactly one tuple of the
// small relation R, which requires R's keys to be unique. The Group-by
// query is tuned for an average group size of four tuples. All generators
// are deterministic given a seed so experiments are reproducible.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/ecocloud-go/mondrian/internal/tuple"
)

// Config describes a dataset to generate.
type Config struct {
	// Seed makes generation deterministic.
	Seed int64
	// Tuples is the cardinality of the (large) relation.
	Tuples int
	// KeySpace bounds generated keys in [0, KeySpace). Zero means Tuples*4.
	KeySpace uint64
}

func (c Config) keySpace() uint64 {
	if c.KeySpace != 0 {
		return c.KeySpace
	}
	return uint64(c.Tuples) * 4
}

// Uniform generates a relation with keys drawn uniformly from the key space
// and random payloads.
func Uniform(name string, c Config) *tuple.Relation {
	rng := rand.New(rand.NewSource(c.Seed))
	r := tuple.NewRelation(name, c.Tuples)
	ks := c.keySpace()
	for i := 0; i < c.Tuples; i++ {
		r.Append1(tuple.Tuple{
			Key: tuple.Key(rng.Uint64() % ks),
			Val: tuple.Value(rng.Uint64()),
		})
	}
	return r
}

// FKPair generates a primary-key relation R and a foreign-key relation S
// with |S| = c.Tuples and |R| = rTuples. Keys of R are a random permutation
// of [0, rTuples), hence unique; each S tuple references a uniformly chosen
// R key, so every S tuple joins with exactly one R tuple (paper §6).
// Caller-supplied sizes are inputs, not invariants: non-positive values
// return an error rather than panicking.
func FKPair(c Config, rTuples int) (r, s *tuple.Relation, err error) {
	if rTuples <= 0 {
		return nil, nil, fmt.Errorf("workload: FKPair requires rTuples > 0, got %d", rTuples)
	}
	if c.Tuples < 0 {
		return nil, nil, fmt.Errorf("workload: FKPair requires Tuples >= 0, got %d", c.Tuples)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	r = tuple.NewRelation("R", rTuples)
	perm := rng.Perm(rTuples)
	for i := 0; i < rTuples; i++ {
		r.Append1(tuple.Tuple{Key: tuple.Key(perm[i]), Val: tuple.Value(rng.Uint64())})
	}
	s = tuple.NewRelation("S", c.Tuples)
	for i := 0; i < c.Tuples; i++ {
		s.Append1(tuple.Tuple{
			Key: tuple.Key(rng.Intn(rTuples)),
			Val: tuple.Value(rng.Uint64()),
		})
	}
	return r, s, nil
}

// GroupBy generates a relation whose keys repeat with the given average
// group size (the paper's modeled Group-by query averages four tuples per
// group). The number of distinct groups is max(1, Tuples/avgGroupSize).
// Caller-supplied sizes are inputs, not invariants: non-positive values
// return an error rather than panicking.
func GroupBy(c Config, avgGroupSize int) (*tuple.Relation, error) {
	if avgGroupSize <= 0 {
		return nil, fmt.Errorf("workload: GroupBy requires avgGroupSize > 0, got %d", avgGroupSize)
	}
	if c.Tuples < 0 {
		return nil, fmt.Errorf("workload: GroupBy requires Tuples >= 0, got %d", c.Tuples)
	}
	groups := c.Tuples / avgGroupSize
	if groups < 1 {
		groups = 1
	}
	rng := rand.New(rand.NewSource(c.Seed))
	r := tuple.NewRelation("G", c.Tuples)
	for i := 0; i < c.Tuples; i++ {
		r.Append1(tuple.Tuple{
			Key: tuple.Key(rng.Intn(groups)),
			Val: tuple.Value(rng.Uint64() % 1_000_000),
		})
	}
	return r, nil
}

// ScanTarget returns a needle key guaranteed to be present in r, plus the
// number of occurrences, for Scan experiments that must find something.
func ScanTarget(r *tuple.Relation, seed int64) (needle tuple.Key, count int) {
	if r.Len() == 0 {
		return 0, 0
	}
	rng := rand.New(rand.NewSource(seed))
	needle = r.Tuples[rng.Intn(r.Len())].Key
	for _, t := range r.Tuples {
		if t.Key == needle {
			count++
		}
	}
	return needle, count
}

// checkZipfExponent validates a caller-supplied Zipf exponent. rand.NewZipf
// requires s > 1; NaN and infinities are rejected explicitly because they
// slip past the comparison.
func checkZipfExponent(s float64) error {
	if math.IsNaN(s) || math.IsInf(s, 0) || s <= 1.0 {
		return fmt.Errorf("workload: Zipf requires a finite exponent s > 1, got %v", s)
	}
	return nil
}

// Zipf generates a relation with Zipfian-skewed keys. This exercises the
// skewed-partition behaviour the paper defers to future work (§5.4); the
// engine raises an overflow exception for the CPU to handle when a
// destination buffer would overflow. The exponent is a caller input, not
// an invariant: s outside (1, +Inf) returns an error rather than panicking.
func Zipf(name string, c Config, s float64) (*tuple.Relation, error) {
	if err := checkZipfExponent(s); err != nil {
		return nil, err
	}
	if c.Tuples < 0 {
		return nil, fmt.Errorf("workload: Zipf requires Tuples >= 0, got %d", c.Tuples)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	ks := c.keySpace()
	z := rand.NewZipf(rng, s, 1, ks-1)
	r := tuple.NewRelation(name, c.Tuples)
	for i := 0; i < c.Tuples; i++ {
		r.Append1(tuple.Tuple{Key: tuple.Key(z.Uint64()), Val: tuple.Value(rng.Uint64())})
	}
	return r, nil
}

// FKPairZipf generates a foreign-key pair like FKPair, but S references R
// keys with Zipfian frequency: a few hot R rows receive most of the S
// tuples, the join-skew shape JSPIM studies. R's keys remain a random
// permutation of [0, rTuples), so every S tuple still joins with exactly
// one R tuple.
func FKPairZipf(c Config, rTuples int, skew float64) (r, s *tuple.Relation, err error) {
	if err := checkZipfExponent(skew); err != nil {
		return nil, nil, err
	}
	if rTuples <= 0 {
		return nil, nil, fmt.Errorf("workload: FKPairZipf requires rTuples > 0, got %d", rTuples)
	}
	if c.Tuples < 0 {
		return nil, nil, fmt.Errorf("workload: FKPairZipf requires Tuples >= 0, got %d", c.Tuples)
	}
	rng := rand.New(rand.NewSource(c.Seed))
	r = tuple.NewRelation("R", rTuples)
	perm := rng.Perm(rTuples)
	for i := 0; i < rTuples; i++ {
		r.Append1(tuple.Tuple{Key: tuple.Key(perm[i]), Val: tuple.Value(rng.Uint64())})
	}
	z := rand.NewZipf(rng, skew, 1, uint64(rTuples-1))
	s = tuple.NewRelation("S", c.Tuples)
	for i := 0; i < c.Tuples; i++ {
		s.Append1(tuple.Tuple{
			Key: tuple.Key(z.Uint64()),
			Val: tuple.Value(rng.Uint64()),
		})
	}
	return r, s, nil
}

// Sequential generates a relation with strictly increasing keys 0..n-1;
// useful for tests that need a known sorted baseline.
func Sequential(name string, n int) *tuple.Relation {
	r := tuple.NewRelation(name, n)
	for i := 0; i < n; i++ {
		r.Append1(tuple.Tuple{Key: tuple.Key(i), Val: tuple.Value(i * 2)})
	}
	return r
}

// Describe returns a one-line human-readable summary of a relation.
func Describe(r *tuple.Relation) string {
	return fmt.Sprintf("%s: %d tuples (%d bytes)", r.Name, r.Len(), r.Bytes())
}
