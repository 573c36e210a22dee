package simulate

import (
	"container/list"
	"sync"

	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// The package-level read-only dataset cache behind Run and RunPlan
// (DESIGN.md §16). Every generated input goes through it, keyed by what
// its generator reads, so repeated traffic on one dataset — a served
// request shape, a sweep over systems — stops re-drawing the same
// relation from a freshly seeded math/rand source. Generation is input
// preparation, not simulated time: a cached relation holds the same
// tuples a fresh draw would, so report JSON is unchanged.
//
// Admission is on second sighting: the first miss of a key only records
// it in a bounded "seen" ring, the second admits the entry. Entries live
// in an LRU under a byte budget, and an entry above a quarter of the
// budget is never admitted. Never-repeating traffic (fresh seeds per
// request) therefore caches nothing, and paper-size relations (8 MiB at
// the default 512 Ki tuples) are always generated per run.
//
// Cached relations are immutable. place copies tuples into engine
// regions, and verification reads the relation without writing it.
var datasets = newDatasetCache(datasetBudget, datasetSeen)

const (
	// datasetBudget bounds the tuple bytes the cache holds.
	datasetBudget = 16 << 20
	// datasetSeen bounds the first-sighting ring.
	datasetSeen = 256
)

// generator names the workload generator behind a dataset.
type generator uint8

const (
	genUniform generator = iota + 1
	genZipf
	genGroupBy
	genFKPair
	genFKPairZipf
	genDim
)

// datasetKey identifies one generated input by exactly the parameters its
// generator reads; fields a generator ignores stay zero, so runs that
// differ only there share the entry. name is the caller-chosen relation
// name, empty for generators that name their own relations. Every field
// is comparable, and Params.Validate rejects a NaN ZipfS, so key equality
// is input equality.
type datasetKey struct {
	gen       generator
	name      string
	seed      int64
	tuples    int
	rTuples   int
	keySpace  uint64
	groupSize int
	zipfS     float64
}

// dataset is one generated input. rel is the input relation, or the
// primary-key side R of a join pair whose foreign-key side is s. Stream
// inputs (uniform or Zipf keys) also carry their scan target: a needle
// drawn with seed Seed+1 and its occurrence count.
type dataset struct {
	key    datasetKey
	rel, s *tuple.Relation
	needle tuple.Key
	count  int
}

// bytes is the dataset's tuple footprint, the unit of the cache budget.
func (d *dataset) bytes() int64 {
	n := d.rel.Bytes()
	if d.s != nil {
		n += d.s.Bytes()
	}
	return n
}

// DatasetCacheStats counts dataset-cache traffic: Hits are inputs served
// from the cache, Misses were generated, Evictions are entries dropped to
// stay within the byte budget, and Bytes is the tuple footprint cached
// now.
type DatasetCacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Bytes     int64
}

// DatasetStats returns the shared dataset cache's counters — the reuse
// evidence mondrian-serve exports on /metrics.
func DatasetStats() DatasetCacheStats { return datasets.stats() }

// datasetCache is a byte-bounded LRU of generated inputs with
// second-sighting admission. It is safe for concurrent use; generation
// runs outside the lock, so two concurrent misses of one key both
// generate and the first to finish is admitted.
type datasetCache struct {
	budget  int64
	seenCap int

	mu      sync.Mutex
	entries map[datasetKey]*list.Element // values are *dataset
	lru     list.List                    // most recently used first
	seen    map[datasetKey]struct{}      // keys sighted once, ≤ seenCap
	ring    []datasetKey                 // seen keys, oldest at next once full
	next    int
	st      DatasetCacheStats
}

func newDatasetCache(budget int64, seenCap int) *datasetCache {
	return &datasetCache{
		budget:  budget,
		seenCap: seenCap,
		entries: make(map[datasetKey]*list.Element),
		seen:    make(map[datasetKey]struct{}),
	}
}

// get returns the dataset for k, generating it with gen on a miss.
func (c *datasetCache) get(k datasetKey, gen func() (*dataset, error)) (*dataset, error) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		c.st.Hits++
		d := el.Value.(*dataset)
		c.mu.Unlock()
		return d, nil
	}
	c.st.Misses++
	again := c.sightLocked(k)
	c.mu.Unlock()

	d, err := gen()
	if err != nil {
		return nil, err
	}
	d.key = k
	if again && d.bytes() <= c.budget/4 {
		c.admit(d)
	}
	return d, nil
}

// sightLocked reports whether k was sighted before, and records it
// otherwise, overwriting the oldest sighting once the ring is full.
func (c *datasetCache) sightLocked(k datasetKey) bool {
	if _, ok := c.seen[k]; ok {
		return true
	}
	if len(c.ring) < c.seenCap {
		c.ring = append(c.ring, k)
	} else {
		delete(c.seen, c.ring[c.next])
		c.ring[c.next] = k
		c.next = (c.next + 1) % len(c.ring)
	}
	c.seen[k] = struct{}{}
	return false
}

// admit inserts d, evicting least recently used entries until it fits.
// d is at most a quarter of the budget, so the loop always ends.
func (c *datasetCache) admit(d *dataset) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[d.key]; ok {
		return // a concurrent miss admitted it first
	}
	for c.st.Bytes+d.bytes() > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*dataset)
		delete(c.entries, old.key)
		c.st.Bytes -= old.bytes()
		c.st.Evictions++
	}
	c.entries[d.key] = c.lru.PushFront(d)
	c.st.Bytes += d.bytes()
}

func (c *datasetCache) stats() DatasetCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}

// streamKey keys streamInput.
func streamKey(name string, p Params) datasetKey {
	c := workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace}
	k := datasetKey{gen: genUniform, name: name, seed: p.Seed, tuples: p.STuples, keySpace: c.ResolvedKeySpace()}
	if p.ZipfS > 0 {
		k.gen, k.zipfS = genZipf, p.ZipfS
	}
	return k
}

// streamInput returns the Scan/Sort/Filter input relation, with its scan
// target: uniform keys by default, Zipf-distributed when Params.ZipfS is
// set.
func streamInput(name string, p Params) (*dataset, error) {
	return datasets.get(streamKey(name, p), func() (*dataset, error) {
		c := workload.Config{Seed: p.Seed, Tuples: p.STuples, KeySpace: p.KeySpace}
		var rel *tuple.Relation
		if p.ZipfS > 0 {
			var err error
			if rel, err = workload.Zipf(name, c, p.ZipfS); err != nil {
				return nil, err
			}
		} else {
			rel = workload.Uniform(name, c)
		}
		needle, count := workload.ScanTarget(rel, p.Seed+1)
		return &dataset{rel: rel, needle: needle, count: count}, nil
	})
}

// groupKey keys groupInput.
func groupKey(name string, p Params) datasetKey {
	if p.ZipfS > 0 {
		return streamKey(name, p)
	}
	return datasetKey{gen: genGroupBy, seed: p.Seed, tuples: p.STuples, groupSize: p.GroupSize}
}

// groupInput returns the aggregation input relation. Under ZipfS the group
// sizes themselves are Zipf-distributed — the hot-group regime the
// splitting path targets — and the input is the named stream relation.
// The uniform default keeps the paper's average-group-size-4 workload.
func groupInput(name string, p Params) (*dataset, error) {
	if p.ZipfS > 0 {
		return streamInput(name, p)
	}
	return datasets.get(groupKey(name, p), func() (*dataset, error) {
		rel, err := workload.GroupBy(workload.Config{Seed: p.Seed, Tuples: p.STuples}, p.GroupSize)
		if err != nil {
			return nil, err
		}
		return &dataset{rel: rel}, nil
	})
}

// joinKey keys joinInput.
func joinKey(p Params) datasetKey {
	k := datasetKey{gen: genFKPair, seed: p.Seed, tuples: p.STuples, rTuples: p.RTuples}
	if p.ZipfS > 0 {
		k.gen, k.zipfS = genFKPairZipf, p.ZipfS
	}
	return k
}

// joinInput returns the join relations R (rel) and S (s): uniform foreign
// keys by default; under ZipfS the probe relation's foreign keys are
// skewed, so a few R tuples match most of S (the hot-run regime of the
// sort-merge probe's batching).
func joinInput(p Params) (*dataset, error) {
	return datasets.get(joinKey(p), func() (*dataset, error) {
		c := workload.Config{Seed: p.Seed, Tuples: p.STuples}
		var r, s *tuple.Relation
		var err error
		if p.ZipfS > 0 {
			r, s, err = workload.FKPairZipf(c, p.RTuples, p.ZipfS)
		} else {
			r, s, err = workload.FKPair(c, p.RTuples)
		}
		if err != nil {
			return nil, err
		}
		return &dataset{rel: r, s: s}, nil
	})
}

// dimKey keys dimInput: the dimension depends on its size alone.
func dimKey(p Params) datasetKey {
	return datasetKey{gen: genDim, tuples: p.RTuples / 2}
}

// dimInput returns the second star-schema dimension: keys [0, RTuples/2)
// with a deterministic payload, so the expected join output is computable
// without another generator seed.
func dimInput(p Params) (*dataset, error) {
	return datasets.get(dimKey(p), func() (*dataset, error) {
		n := p.RTuples / 2
		rel := tuple.NewRelation("dim2", n)
		for i := 0; i < n; i++ {
			rel.Append1(tuple.Tuple{Key: tuple.Key(i), Val: tuple.Value(uint64(i)*2654435761 + 7)})
		}
		return &dataset{rel: rel}, nil
	})
}
