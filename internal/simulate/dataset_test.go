package simulate

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/ecocloud-go/mondrian/internal/obs"
	"github.com/ecocloud-go/mondrian/internal/tuple"
	"github.com/ecocloud-go/mondrian/internal/workload"
)

// cacheParams is a served-request-sized shape: every input is a few KiB,
// far below the cache's entry cap.
func cacheParams() Params {
	p := TestParams()
	p.STuples = 1 << 10
	p.RTuples = 1 << 9
	p.KeySpace = 1 << 16
	p.CPUBuckets = 1 << 8
	return p
}

// resetDatasets empties the shared dataset cache, so a test can count
// misses and admissions from a known state. Only sequential top-level
// tests may call it.
func resetDatasets() {
	c := datasets
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[datasetKey]*list.Element)
	c.lru.Init()
	c.seen = make(map[datasetKey]struct{})
	c.ring = nil
	c.next = 0
	c.st = DatasetCacheStats{}
}

// tuplesOf returns a generator of one n-tuple relation.
func tuplesOf(n int) func() (*dataset, error) {
	return func() (*dataset, error) {
		return &dataset{rel: workload.Sequential("t", n)}, nil
	}
}

func TestDatasetCacheSecondSighting(t *testing.T) {
	c := newDatasetCache(1<<20, 16)
	k := datasetKey{gen: genUniform, seed: 1, tuples: 64}
	want := []DatasetCacheStats{
		{Misses: 1},                       // first sighting: generated, only remembered
		{Misses: 2, Bytes: 64 * 16},       // second: generated and admitted
		{Hits: 1, Misses: 2, Bytes: 1024}, // third: served from the cache
	}
	var admitted *dataset
	for i, w := range want {
		d, err := c.get(k, tuplesOf(64))
		if err != nil {
			t.Fatal(err)
		}
		if got := c.stats(); got != w {
			t.Fatalf("get %d: stats %+v, want %+v", i+1, got, w)
		}
		switch i {
		case 1:
			admitted = d
		case 2:
			if d != admitted {
				t.Fatal("third get must return the admitted entry")
			}
		}
	}
}

func TestDatasetCacheBudget(t *testing.T) {
	const budget, n = 64 << 10, 512 // 8 KiB entries, 8 fit
	c := newDatasetCache(budget, 64)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			k := datasetKey{gen: genUniform, seed: int64(i), tuples: n}
			for j := 0; j < 2; j++ {
				if _, err := c.get(k, tuplesOf(n)); err != nil {
					t.Fatal(err)
				}
				if st := c.stats(); st.Bytes > budget {
					t.Fatalf("cached %d bytes over the %d budget", st.Bytes, budget)
				}
			}
		}
	}
	st := c.stats()
	if st.Evictions == 0 || st.Bytes != budget {
		t.Fatalf("stats %+v: want evictions and a full budget", st)
	}
	if got := int64(c.lru.Len()) * n * tuple.Size; got != st.Bytes || len(c.entries) != c.lru.Len() {
		t.Fatalf("%d entries (%d listed) hold %d bytes, stats say %d", len(c.entries), c.lru.Len(), got, st.Bytes)
	}
}

func TestDatasetCacheNeverRepeating(t *testing.T) {
	const seen = 32
	c := newDatasetCache(1<<20, seen)
	for i := 0; i < 1000; i++ {
		if _, err := c.get(datasetKey{gen: genUniform, seed: int64(i), tuples: 16}, tuplesOf(16)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.stats(); st != (DatasetCacheStats{Misses: 1000}) {
		t.Fatalf("stats %+v: a never-repeating stream must cache nothing", st)
	}
	if len(c.entries) != 0 || len(c.seen) > seen || len(c.ring) > seen {
		t.Fatalf("%d entries, %d seen (ring %d): want 0 and at most %d", len(c.entries), len(c.seen), len(c.ring), seen)
	}
}

func TestDatasetCacheOversize(t *testing.T) {
	const budget = 64 << 10
	n := budget/4/tuple.Size + 1 // one tuple over the entry cap
	c := newDatasetCache(budget, 16)
	k := datasetKey{gen: genUniform, tuples: n}
	for i := 0; i < 10; i++ {
		if _, err := c.get(k, tuplesOf(n)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.stats(); st != (DatasetCacheStats{Misses: 10}) || len(c.entries) != 0 {
		t.Fatalf("stats %+v, %d entries: an oversize entry must never be admitted", st, len(c.entries))
	}
}

func TestDatasetCacheGenerationError(t *testing.T) {
	c := newDatasetCache(1<<20, 16)
	k := datasetKey{gen: genZipf, tuples: 4}
	for i := 0; i < 3; i++ {
		if _, err := c.get(k, func() (*dataset, error) { return nil, fmt.Errorf("bad") }); err == nil {
			t.Fatal("a generator error must reach the caller")
		}
	}
	if st := c.stats(); st.Bytes != 0 || len(c.entries) != 0 {
		t.Fatalf("stats %+v: a failed generation must not be cached", st)
	}
}

// TestDatasetCacheConcurrent hammers one small cache from many goroutines
// on shared keys under a tight budget, so hits, concurrent admissions of
// one key and evictions interleave; run it with -race.
func TestDatasetCacheConcurrent(t *testing.T) {
	const budget, n = 16 << 10, 64 // 1 KiB entries, 16 fit
	c := newDatasetCache(budget, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := datasetKey{gen: genUniform, seed: int64((g + i) % 24), tuples: n}
				d, err := c.get(k, tuplesOf(n))
				if err != nil || d.rel.Len() != n || d.key != k {
					t.Errorf("get %+v: %v", k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.stats()
	if st.Hits+st.Misses != 8*400 || st.Hits == 0 || st.Bytes > budget {
		t.Fatalf("stats %+v", st)
	}
}

// TestDatasetCacheConcurrentRuns: goroutines running every system on
// shared datasets — scans, joins and the star-join plan, so stream, join
// pair and dimension entries are generated, admitted and hit under real
// concurrency — must be race-clean and byte-identical to serial runs.
func TestDatasetCacheConcurrentRuns(t *testing.T) {
	resetDatasets()
	type cell struct {
		s    System
		op   Operator
		plan bool
		seed int64
	}
	var cells []cell
	for _, s := range Systems() {
		for seed := int64(1); seed <= 2; seed++ {
			cells = append(cells, cell{s, OpScan, false, seed}, cell{s, OpJoin, false, seed}, cell{s, 0, true, seed})
		}
	}
	runCell := func(c cell) ([]byte, error) {
		p := cacheParams()
		p.Seed = c.seed
		var r any
		var err error
		if c.plan {
			r, err = RunPlan(c.s, PlanStarJoinAgg, p)
		} else {
			r, err = Run(c.s, c.op, p)
		}
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	}
	// Serial references, each on freshly generated inputs.
	want := make([][]byte, len(cells))
	for i, c := range cells {
		resetDatasets()
		j, err := runCell(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = j
	}
	resetDatasets()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cells {
				i := (k + g*5) % len(cells)
				j, err := runCell(cells[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(j, want[i]) {
					t.Errorf("%+v: concurrent run differs from its serial twin", cells[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if st := DatasetStats(); st.Hits == 0 {
		t.Fatalf("stats %+v: concurrent runs on shared datasets never hit", st)
	}
	checkCachedInputs(t)
}

// regenerate draws k's input afresh straight from the workload
// generators: the oracle a cached entry must still equal.
func regenerate(t *testing.T, k datasetKey) (rel, s *tuple.Relation) {
	t.Helper()
	c := workload.Config{Seed: k.seed, Tuples: k.tuples, KeySpace: k.keySpace}
	var err error
	switch k.gen {
	case genUniform:
		rel = workload.Uniform(k.name, c)
	case genZipf:
		rel, err = workload.Zipf(k.name, c, k.zipfS)
	case genGroupBy:
		rel, err = workload.GroupBy(c, k.groupSize)
	case genFKPair:
		rel, s, err = workload.FKPair(c, k.rTuples)
	case genFKPairZipf:
		rel, s, err = workload.FKPairZipf(c, k.rTuples, k.zipfS)
	case genDim:
		rel = tuple.NewRelation("dim2", k.tuples)
		for i := 0; i < k.tuples; i++ {
			rel.Append1(tuple.Tuple{Key: tuple.Key(i), Val: tuple.Value(uint64(i)*2654435761 + 7)})
		}
	default:
		t.Fatalf("unknown generator in %+v", k)
	}
	if err != nil {
		t.Fatalf("regenerate %+v: %v", k, err)
	}
	return rel, s
}

// checkCachedInputs verifies every cached entry against a fresh draw of
// its key: the same multiset digest and order (no run wrote into it), and
// for stream inputs the same scan target.
func checkCachedInputs(t *testing.T) {
	t.Helper()
	datasets.mu.Lock()
	var entries []*dataset
	for el := datasets.lru.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*dataset))
	}
	datasets.mu.Unlock()
	if len(entries) == 0 {
		t.Fatal("nothing cached")
	}
	for _, d := range entries {
		rel, s := regenerate(t, d.key)
		if tuple.DigestOf(d.rel.Tuples) != tuple.DigestOf(rel.Tuples) || !reflect.DeepEqual(d.rel, rel) {
			t.Errorf("%+v: cached relation differs from a fresh draw", d.key)
		}
		if s != nil && (d.s == nil || tuple.DigestOf(d.s.Tuples) != tuple.DigestOf(s.Tuples) || !reflect.DeepEqual(d.s, s)) {
			t.Errorf("%+v: cached S relation differs from a fresh draw", d.key)
		}
		if d.key.gen == genUniform || d.key.gen == genZipf {
			if needle, count := workload.ScanTarget(rel, d.key.seed+1); needle != d.needle || count != d.count {
				t.Errorf("%+v: scan target (%d,%d), fresh (%d,%d)", d.key, d.needle, d.count, needle, count)
			}
		}
	}
}

// TestDatasetCacheRunsByteIdentical is the cache's acceptance test: for
// every System × Operator and System × Plan, the first run (miss, the key
// is only remembered), the second (miss, admitted) and the third (hit)
// give byte-identical Result JSON, and after all runs every cached
// relation still equals a fresh draw.
func TestDatasetCacheRunsByteIdentical(t *testing.T) {
	resetDatasets()
	type cell struct {
		name string
		run  func(Params) (any, error)
	}
	var cells []cell
	for _, s := range Systems() {
		for _, op := range Operators() {
			s, op := s, op
			cells = append(cells, cell{fmt.Sprintf("%v/%v", s, op), func(p Params) (any, error) { return Run(s, op, p) }})
		}
		for _, pl := range Plans() {
			s, pl := s, pl
			cells = append(cells, cell{fmt.Sprintf("%v/%v", s, pl), func(p Params) (any, error) { return RunPlan(s, pl, p) }})
		}
	}
	for i, c := range cells {
		p := cacheParams()
		p.Seed = int64(1000 + i) // every cell draws its own datasets
		var first []byte
		for round := 1; round <= 3; round++ {
			before := DatasetStats()
			r, err := c.run(p)
			if err != nil {
				t.Fatalf("%s round %d: %v", c.name, round, err)
			}
			after := DatasetStats()
			misses, hits := after.Misses-before.Misses, after.Hits-before.Hits
			switch {
			case round < 3 && misses == 0:
				t.Errorf("%s round %d: no miss (stats %+v -> %+v)", c.name, round, before, after)
			case round == 2 && after.Bytes <= before.Bytes:
				t.Errorf("%s round 2 admitted nothing (stats %+v -> %+v)", c.name, before, after)
			case round == 3 && (misses != 0 || hits == 0):
				t.Errorf("%s round 3: %d misses, %d hits; want every input served from the cache", c.name, misses, hits)
			}
			j, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(j, []byte(`"Verified":true`)) {
				t.Fatalf("%s round %d: output verification failed", c.name, round)
			}
			if first == nil {
				first = j
			} else if !bytes.Equal(first, j) {
				t.Errorf("%s round %d: Result JSON differs from round 1", c.name, round)
			}
		}
	}
	if st := DatasetStats(); st.Evictions != 0 {
		t.Fatalf("stats %+v: the test's datasets must all fit the budget", st)
	}
	checkCachedInputs(t)
}

// inputKeys lists the dataset key of every input call site in run.go and
// plan.go.
func inputKeys(p Params) []datasetKey {
	return []datasetKey{
		streamKey("scan-in", p), streamKey("sort-in", p), streamKey("filter-in", p),
		groupKey("groupby-in", p), groupKey("agg-in", p), joinKey(p), dimKey(p),
	}
}

// TestDatasetKeyComplete classifies every Params field as a dataset-key
// field or as one no generator reads. A newly added field fails until it
// is classified here. Changing a key field must give a different entry;
// changing any other field must share the entry, both in the keys and in
// a real run's cache traffic.
func TestDatasetKeyComplete(t *testing.T) {
	keyFields := map[string]func(*Params){
		"Seed":      func(p *Params) { p.Seed++ },
		"STuples":   func(p *Params) { p.STuples *= 2 },
		"RTuples":   func(p *Params) { p.RTuples /= 2 },
		"KeySpace":  func(p *Params) { p.KeySpace *= 2 },
		"GroupSize": func(p *Params) { p.GroupSize++ },
		"ZipfS": func(p *Params) {
			if p.ZipfS == 0 {
				p.ZipfS = 1.5
			} else {
				p.ZipfS = 2
			}
		},
	}
	otherFields := map[string]func(*Params){
		"Cubes":         func(p *Params) { p.Cubes = 4 },
		"VaultsPer":     func(p *Params) { p.VaultsPer = 16 },
		"CPUCores":      func(p *Params) { p.CPUCores = 8 },
		"VaultCapBytes": func(p *Params) { p.VaultCapBytes *= 2 },
		"CPUBuckets":    func(p *Params) { p.CPUBuckets *= 2 },
		"BarrierNs":     func(p *Params) { p.BarrierNs++ },
		"Energy":        func(p *Params) { p.Energy.CPUCoreW++ },
		"Parallelism":   func(p *Params) { p.Parallelism = 3 },
		"NoBulk":        func(p *Params) { p.NoBulk = !p.NoBulk },
		"SkewAware":     func(p *Params) { p.SkewAware = !p.SkewAware },
		"NoPool":        func(p *Params) { p.NoPool = !p.NoPool },
		"Overprovision": func(p *Params) { p.Overprovision = 3 },
		"NoFusion":      func(p *Params) { p.NoFusion = !p.NoFusion },
		"Obs":           func(p *Params) { p.Obs = obs.NewRegistry() },
	}
	typ := reflect.TypeOf(Params{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		_, key := keyFields[name]
		_, other := otherFields[name]
		if key == other {
			t.Errorf("Params.%s: classify it as a dataset-key field or as one no generator reads", name)
		}
	}
	if len(keyFields)+len(otherFields) != typ.NumField() {
		t.Errorf("%d classified fields, Params has %d", len(keyFields)+len(otherFields), typ.NumField())
	}

	zipf := cacheParams()
	zipf.ZipfS = 1.5
	zipf.SkewAware, zipf.Overprovision = true, 8 // skewed runs need either
	bases := []Params{cacheParams(), zipf}
	for name, mutate := range keyFields {
		differs := false
		for _, base := range bases {
			p := base
			mutate(&p)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			differs = differs || !reflect.DeepEqual(inputKeys(base), inputKeys(p))
		}
		if !differs {
			t.Errorf("changing key field %s left every dataset key unchanged", name)
		}
	}
	for name, mutate := range otherFields {
		for _, base := range bases {
			p := base
			mutate(&p)
			if err := p.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(inputKeys(base), inputKeys(p)) {
				t.Errorf("changing %s (ZipfS %v) changed a dataset key", name, base.ZipfS)
			}
		}
	}

	// End to end: once the base inputs are admitted, runs that differ only
	// in a non-key field generate nothing.
	runs := func(p Params) error {
		for _, op := range []Operator{OpScan, OpGroupBy, OpJoin} {
			if _, err := Run(Mondrian, op, p); err != nil {
				return err
			}
		}
		for _, pl := range []Plan{PlanFilterSort, PlanStarJoinAgg} {
			if _, err := RunPlan(Mondrian, pl, p); err != nil {
				return err
			}
		}
		return nil
	}
	for _, base := range bases {
		base.Seed = 77
		for i := 0; i < 2; i++ {
			if err := runs(base); err != nil {
				t.Fatal(err)
			}
		}
		for name, mutate := range otherFields {
			p := base
			mutate(&p)
			before := DatasetStats()
			if err := runs(p); err != nil {
				t.Fatalf("%s (ZipfS %v): %v", name, p.ZipfS, err)
			}
			if after := DatasetStats(); after.Misses != before.Misses {
				t.Errorf("changing %s (ZipfS %v) missed the cache %d times", name, p.ZipfS, after.Misses-before.Misses)
			}
		}
	}
	checkCachedInputs(t)
}
