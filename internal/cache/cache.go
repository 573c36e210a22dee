// Package cache models the cache hierarchy of the CPU-centric baseline
// (and the L1s of the NMP baseline): set-associative, LRU-replaced,
// write-back/write-allocate caches with a next-line prefetcher.
//
// Paper Table 3: the CPU has 32 KB 2-way L1d caches with 64 B blocks and a
// shared 4 MB 16-way LLC; both CPU and NMP baselines feature a next-line
// prefetcher "capable of issuing prefetches for up to three next cache
// lines". The cache model filters the access stream the simulated memory
// system sees: only misses (demand or prefetch) and dirty evictions reach
// DRAM.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	SizeBytes      int
	Ways           int
	BlockBytes     int
	HitLatencyNs   float64
	MSHRs          int // outstanding-miss capacity (bounds miss-level parallelism)
	PrefetchDegree int // next-line prefetch depth; 0 disables
}

// L1D32K returns the CPU/NMP baseline L1 data cache configuration
// (32 KB, 2-way, 64 B blocks, 2-cycle latency at 2 GHz, 32 MSHRs).
func L1D32K() Config {
	return Config{SizeBytes: 32 << 10, Ways: 2, BlockBytes: 64, HitLatencyNs: 1.0, MSHRs: 32, PrefetchDegree: 3}
}

// LLC4M returns the shared last-level cache configuration
// (4 MB, 16-way, 64 B blocks, 4-cycle hit latency at 2 GHz).
func LLC4M() Config {
	return Config{SizeBytes: 4 << 20, Ways: 16, BlockBytes: 64, HitLatencyNs: 2.0, MSHRs: 64}
}

// Stats aggregates cache events.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	DirtyEvictions uint64
	PrefetchIssued uint64
	PrefetchHits   uint64 // demand hits on prefetched-not-yet-used lines
}

// HitRate returns the demand hit rate.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// line is one cache line's tag and replacement state, packed into 24
// bytes: a pooled engine keeps every line of its caches alive between
// runs, so line size is the bulk of a serving process's resident memory.
type line struct {
	tag     int64
	lastUse uint64
	// gen stamps the Cache generation the line was filled in; a line is
	// live only when stamped with the current generation, so Reset and
	// Flush can invalidate the whole cache by bumping the generation
	// instead of clearing every line (pooled engines reset between every
	// run — an O(size) wipe there is the difference between a cheap
	// lifecycle and re-zeroing megabytes per query). Generations start at
	// 1, so a never-filled (zero) line is never live.
	gen        uint32
	dirty      bool
	prefetched bool
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg   Config
	lines []line // nsets × Ways, set-major
	nsets int
	gen   uint32
	tick  uint64
	stats Stats

	// Shift/mask forms of the block and set arithmetic, valid when both
	// BlockBytes and the set count are powers of two (every modeled
	// configuration). The generic divide path remains for odd geometries.
	pow2       bool
	blockShift uint
	blockMask  int64 // BlockBytes-1
	setShift   uint
	setMask    int64 // nsets-1

	// Reusable buffers backing the slices returned in Result, so the
	// steady-state access path performs zero heap allocations. They are
	// overwritten by the next Access/AccessRun call.
	scratch  RunResult
	fetchBuf []int64
	wbBuf    []int64
}

// New builds a cache from its configuration.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	nsets := cfg.SizeBytes / (cfg.Ways * cfg.BlockBytes)
	if nsets == 0 {
		panic("cache: fewer than one set")
	}
	c := &Cache{cfg: cfg, lines: make([]line, nsets*cfg.Ways), nsets: nsets, gen: 1}
	if isPow2(cfg.BlockBytes) && isPow2(nsets) {
		c.pow2 = true
		c.blockShift = log2(cfg.BlockBytes)
		c.blockMask = int64(cfg.BlockBytes - 1)
		c.setShift = log2(nsets)
		c.setMask = int64(nsets - 1)
	}
	return c
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func log2(n int) uint {
	var s uint
	for n > 1 {
		n >>= 1
		s++
	}
	return s
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears statistics but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset restores the cache to its just-constructed state: every line
// invalidated, statistics and the LRU clock zeroed. Unlike Flush it models
// no hardware event — dirty lines are dropped without writebacks and
// without counting evictions — so a reset cache is indistinguishable from
// a fresh New(cfg). The reusable scratch buffers keep their capacity.
func (c *Cache) Reset() {
	c.invalidate()
	c.tick = 0
	c.stats = Stats{}
}

// invalidate kills every line by advancing the generation. When the
// 32-bit generation wraps, the lines are zeroed once, so no line stamped
// 2^32 generations earlier can come back to life.
func (c *Cache) invalidate() {
	c.gen++
	if c.gen == 0 {
		clear(c.lines)
		c.gen = 1
	}
}

// set returns the ways of one set.
func (c *Cache) set(si int) []line {
	w := c.cfg.Ways
	return c.lines[si*w : (si+1)*w : (si+1)*w]
}

// Flush invalidates the whole cache, returning the block addresses of all
// dirty lines (which a memory system must write back).
func (c *Cache) Flush() []int64 {
	var wbs []int64
	for i := range c.lines {
		l := &c.lines[i]
		if l.gen == c.gen && l.dirty {
			wbs = append(wbs, c.blockAddr(i/c.cfg.Ways, l.tag))
			c.stats.DirtyEvictions++
		}
	}
	c.invalidate()
	return wbs
}

func (c *Cache) index(addr int64) (set int, tag int64) {
	if c.pow2 {
		blk := addr >> c.blockShift
		return int(blk & c.setMask), blk >> c.setShift
	}
	blk := addr / int64(c.cfg.BlockBytes)
	return int(blk % int64(c.nsets)), blk / int64(c.nsets)
}

func (c *Cache) blockAddr(set int, tag int64) int64 {
	if c.pow2 {
		return (tag<<c.setShift + int64(set)) << c.blockShift
	}
	return (tag*int64(c.nsets) + int64(set)) * int64(c.cfg.BlockBytes)
}

// blockBase rounds addr down to its block base address.
func (c *Cache) blockBase(addr int64) int64 {
	if c.pow2 {
		return addr &^ c.blockMask
	}
	return addr / int64(c.cfg.BlockBytes) * int64(c.cfg.BlockBytes)
}

// Result reports what one access did and what traffic it generated for the
// next level down: Fetches are block addresses that must be read (demand
// miss first, then prefetch misses), Writebacks are dirty evicted blocks.
// The slices alias buffers owned by the cache and are valid only until the
// next Access or AccessRun call — callers must consume them immediately.
type Result struct {
	Hit        bool
	Fetches    []int64
	Writebacks []int64
}

// RunOpKind classifies one entry of a RunResult's traffic list.
type RunOpKind uint8

// Traffic kinds, in the order the memory system below must see them per
// miss: the demand fetch, then prefetch fetches, then dirty writebacks.
const (
	RunFetchDemand RunOpKind = iota
	RunFetchPrefetch
	RunWriteback
)

// RunOp is one block-granular request for the level below the cache.
type RunOp struct {
	Addr int64
	Kind RunOpKind
}

// RunResult tallies one AccessRun. Ops is the ordered traffic for the
// level below; replaying it access-by-access reproduces exactly the
// Fetches/Writebacks sequence the per-access Access API would have
// produced. The Ops buffer is reused across calls on the same RunResult.
type RunResult struct {
	Hits   uint64
	Misses uint64
	Ops    []RunOp
	wbTmp  []int64 // per-miss writeback staging (fetches precede writebacks)
}

// Access performs one demand access to addr. Size is implicit: accesses
// are block-granular (the caller splits larger requests). The returned
// slices are only valid until the next access (see Result).
func (c *Cache) Access(addr int64, write bool) Result {
	c.scratch.Ops = c.scratch.Ops[:0]
	if c.accessOps(addr, write, &c.scratch) {
		return Result{Hit: true}
	}
	c.fetchBuf = c.fetchBuf[:0]
	c.wbBuf = c.wbBuf[:0]
	for _, op := range c.scratch.Ops {
		if op.Kind == RunWriteback {
			c.wbBuf = append(c.wbBuf, op.Addr)
		} else {
			c.fetchBuf = append(c.fetchBuf, op.Addr)
		}
	}
	return Result{Fetches: c.fetchBuf, Writebacks: c.wbBuf}
}

// accessOps is the single implementation of one demand access. Generated
// traffic is appended to res.Ops (fetches first, then writebacks, matching
// the order callers of Access drain Result). It reports whether the access
// hit.
func (c *Cache) accessOps(addr int64, write bool, res *RunResult) bool {
	c.tick++
	c.stats.Accesses++
	set, tag := c.index(addr)
	if l := c.lookup(set, tag); l != nil {
		c.stats.Hits++
		if l.prefetched {
			c.stats.PrefetchHits++
			l.prefetched = false
		}
		l.lastUse = c.tick
		l.dirty = l.dirty || write
		return true
	}
	// Demand miss: allocate.
	c.stats.Misses++
	res.wbTmp = res.wbTmp[:0]
	res.Ops = append(res.Ops, RunOp{Addr: c.blockBase(addr), Kind: RunFetchDemand})
	if wb, ok := c.insert(set, tag, write, false); ok {
		res.wbTmp = append(res.wbTmp, wb)
	}
	// Next-line prefetch on demand miss.
	for i := 1; i <= c.cfg.PrefetchDegree; i++ {
		pAddr := addr + int64(i*c.cfg.BlockBytes)
		pSet, pTag := c.index(pAddr)
		if c.lookup(pSet, pTag) != nil {
			continue
		}
		c.stats.PrefetchIssued++
		res.Ops = append(res.Ops, RunOp{Addr: c.blockBase(pAddr), Kind: RunFetchPrefetch})
		if wb, ok := c.insert(pSet, pTag, false, true); ok {
			res.wbTmp = append(res.wbTmp, wb)
		}
	}
	for _, wb := range res.wbTmp {
		res.Ops = append(res.Ops, RunOp{Addr: wb, Kind: RunWriteback})
	}
	return false
}

// AccessRun performs count sequential demand accesses of stride bytes
// each, starting at addr, with accounting identical to calling Access once
// per element: same stats, same replacement state, same traffic in the
// same order (collected in res.Ops). The first access to each block runs
// the full lookup/miss/prefetch machinery; the remaining same-block
// accesses are guaranteed hits and are retired in O(1) per block.
//
// The stride must evenly divide the block size and addr must be
// stride-aligned, so no element straddles a block boundary (the Unit
// layer falls back to per-access calls otherwise).
func (c *Cache) AccessRun(addr int64, stride, count int, write bool, res *RunResult) {
	bb := int64(c.cfg.BlockBytes)
	if stride <= 0 || bb%int64(stride) != 0 || addr%int64(stride) != 0 {
		panic(fmt.Sprintf("cache: AccessRun needs a block-aligned stride (addr=%d stride=%d block=%d)", addr, stride, c.cfg.BlockBytes))
	}
	res.Hits, res.Misses = 0, 0
	res.Ops = res.Ops[:0]
	for count > 0 {
		blockEnd := (addr/bb + 1) * bb
		k := int((blockEnd - addr) / int64(stride))
		if k > count {
			k = count
		}
		// First touch of the block: full per-access semantics.
		if c.accessOps(addr, write, res) {
			res.Hits++
		} else {
			res.Misses++
		}
		if k > 1 {
			set, tag := c.index(addr)
			if l := c.lookup(set, tag); l != nil {
				// The block survived its own prefetches (always, outside
				// pathologically tiny configurations): the remaining k-1
				// accesses are hits. Batch their bookkeeping; the final
				// lastUse/dirty state equals k-1 individual hit updates.
				m := uint64(k - 1)
				c.tick += m
				c.stats.Accesses += m
				c.stats.Hits += m
				res.Hits += m
				if l.prefetched {
					c.stats.PrefetchHits++
					l.prefetched = false
				}
				l.lastUse = c.tick
				l.dirty = l.dirty || write
			} else {
				// The demand line was evicted by its own prefetch inserts:
				// replay the remaining accesses one by one.
				for i := 1; i < k; i++ {
					if c.accessOps(addr+int64(i*stride), write, res) {
						res.Hits++
					} else {
						res.Misses++
					}
				}
			}
		}
		addr = blockEnd
		count -= k
	}
}

// AccessHitRun retires count repeated demand accesses that are known to
// fall in the single resident block holding addr (e.g. TLB lookups within
// one page after the first lookup installed the entry). If the block is
// not resident it reports false and performs no accounting, and the
// caller must fall back to per-access lookups.
func (c *Cache) AccessHitRun(addr int64, count int, write bool) bool {
	if count <= 0 {
		return true
	}
	set, tag := c.index(addr)
	l := c.lookup(set, tag)
	if l == nil {
		return false
	}
	m := uint64(count)
	c.tick += m
	c.stats.Accesses += m
	c.stats.Hits += m
	if l.prefetched {
		c.stats.PrefetchHits++
		l.prefetched = false
	}
	l.lastUse = c.tick
	l.dirty = l.dirty || write
	return true
}

// lookup returns the matching valid line, updating nothing.
func (c *Cache) lookup(set int, tag int64) *line {
	ways := c.set(set)
	for wi := range ways {
		l := &ways[wi]
		if l.gen == c.gen && l.tag == tag {
			return l
		}
	}
	return nil
}

// insert allocates a line for (set, tag), evicting LRU. It returns the
// writeback block address if the victim was dirty.
func (c *Cache) insert(set int, tag int64, dirty, prefetched bool) (writeback int64, dirtyEvict bool) {
	ways := c.set(set)
	victim := 0
	for wi := range ways {
		l := &ways[wi]
		if l.gen != c.gen {
			victim = wi
			break
		}
		if l.lastUse < ways[victim].lastUse {
			victim = wi
		}
	}
	v := &ways[victim]
	if v.gen == c.gen && v.dirty {
		writeback = c.blockAddr(set, v.tag)
		dirtyEvict = true
		c.stats.DirtyEvictions++
	}
	*v = line{tag: tag, lastUse: c.tick, gen: c.gen, dirty: dirty, prefetched: prefetched}
	return writeback, dirtyEvict
}
