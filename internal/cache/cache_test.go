package cache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// tiny returns a 4-set, 2-way, 64 B-block cache without prefetching.
func tiny() *Cache {
	return New(Config{SizeBytes: 512, Ways: 2, BlockBytes: 64})
}

func TestConfigPresets(t *testing.T) {
	l1 := L1D32K()
	if l1.SizeBytes != 32<<10 || l1.Ways != 2 || l1.BlockBytes != 64 || l1.PrefetchDegree != 3 {
		t.Fatalf("L1D32K = %+v", l1)
	}
	llc := LLC4M()
	if llc.SizeBytes != 4<<20 || llc.Ways != 16 {
		t.Fatalf("LLC4M = %+v", llc)
	}
}

func TestMissThenHit(t *testing.T) {
	c := tiny()
	r1 := c.Access(0, false)
	if r1.Hit || len(r1.Fetches) != 1 || r1.Fetches[0] != 0 {
		t.Fatalf("first access: %+v", r1)
	}
	r2 := c.Access(63, false) // same block
	if !r2.Hit {
		t.Fatal("same-block access missed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Accesses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 4 sets: blocks 0,4,8... map to set 0
	blk := func(i int) int64 { return int64(i * 4 * 64) }
	c.Access(blk(0), false)
	c.Access(blk(1), false)
	c.Access(blk(0), false) // touch 0: 1 becomes LRU
	c.Access(blk(2), false) // evicts 1
	if !c.Access(blk(0), false).Hit {
		t.Fatal("block 0 should have survived")
	}
	if c.Access(blk(1), false).Hit {
		t.Fatal("block 1 should have been evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := tiny()
	blk := func(i int) int64 { return int64(i * 4 * 64) }
	c.Access(blk(0), true) // dirty
	c.Access(blk(1), false)
	r := c.Access(blk(2), false) // evicts dirty block 0
	if len(r.Writebacks) != 1 || r.Writebacks[0] != blk(0) {
		t.Fatalf("writebacks = %v, want [%d]", r.Writebacks, blk(0))
	}
	if c.Stats().DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", c.Stats().DirtyEvictions)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := tiny()
	blk := func(i int) int64 { return int64(i * 4 * 64) }
	c.Access(blk(0), false) // clean fill
	c.Access(blk(0), true)  // write hit dirties it
	c.Access(blk(1), false)
	r := c.Access(blk(2), false)
	if len(r.Writebacks) != 1 {
		t.Fatal("write hit did not dirty the line")
	}
}

func TestNextLinePrefetch(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, PrefetchDegree: 3})
	r := c.Access(0, false)
	// Demand block + 3 prefetched blocks fetched from below.
	if len(r.Fetches) != 4 {
		t.Fatalf("fetches = %v", r.Fetches)
	}
	if c.Stats().PrefetchIssued != 3 {
		t.Fatalf("prefetch issued = %d", c.Stats().PrefetchIssued)
	}
	// Sequential walk: next three blocks are hits on prefetched lines.
	for i := 1; i <= 3; i++ {
		if !c.Access(int64(i*64), false).Hit {
			t.Fatalf("block %d not prefetched", i)
		}
	}
	if c.Stats().PrefetchHits != 3 {
		t.Fatalf("prefetch hits = %d", c.Stats().PrefetchHits)
	}
}

func TestPrefetchNotReissuedForResident(t *testing.T) {
	c := New(Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, PrefetchDegree: 2})
	c.Access(0, false)        // fetches 0, prefetches 64,128
	r := c.Access(256, false) // miss; prefetch 320,384 (none resident)
	if len(r.Fetches) != 3 {
		t.Fatalf("fetches = %v", r.Fetches)
	}
	c2 := New(Config{SizeBytes: 4096, Ways: 4, BlockBytes: 64, PrefetchDegree: 2})
	c2.Access(64, false)      // fetches 64, prefetches 128,192
	r2 := c2.Access(0, false) // miss; 64 and 128 already resident
	if len(r2.Fetches) != 1 { // only demand block 0
		t.Fatalf("fetches = %v, want only demand block", r2.Fetches)
	}
}

func TestSequentialScanHitRate(t *testing.T) {
	c := New(L1D32K())
	// 8-byte strided scan over 64 KB: with 64 B blocks and prefetch,
	// hit rate should be very high.
	for a := int64(0); a < 64<<10; a += 8 {
		c.Access(a, false)
	}
	if hr := c.Stats().HitRate(); hr < 0.9 {
		t.Fatalf("sequential scan hit rate = %.3f, want > 0.9", hr)
	}
}

func TestRandomAccessBeyondCapacityMissRate(t *testing.T) {
	c := New(Config{SizeBytes: 8 << 10, Ways: 2, BlockBytes: 64})
	rng := rand.New(rand.NewSource(1))
	var hits int
	const n = 20000
	for i := 0; i < n; i++ {
		addr := rng.Int63n(64 << 20) // working set 8192× the cache
		if c.Access(addr, false).Hit {
			hits++
		}
	}
	if float64(hits)/n > 0.02 {
		t.Fatalf("random far-field hit rate = %.3f, want ~0", float64(hits)/n)
	}
}

func TestFlush(t *testing.T) {
	c := tiny()
	c.Access(0, true)
	c.Access(64, false)
	wbs := c.Flush()
	if len(wbs) != 1 || wbs[0] != 0 {
		t.Fatalf("flush writebacks = %v", wbs)
	}
	if c.Access(0, false).Hit {
		t.Fatal("flush left valid lines")
	}
}

func TestBlockAddrRoundTrip(t *testing.T) {
	c := New(L1D32K())
	for _, addr := range []int64{0, 64, 4096, 32 << 10, 1 << 30, (1 << 30) + 64*7} {
		set, tag := c.index(addr)
		back := c.blockAddr(set, tag)
		if back != addr/64*64 {
			t.Fatalf("round trip %d → (%d,%d) → %d", addr, set, tag, back)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero size did not panic")
		}
	}()
	New(Config{SizeBytes: 0, Ways: 1, BlockBytes: 64})
}

// Property: accounting identities hold under random access streams, and a
// re-access of the immediately preceding address always hits.
func TestCacheInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64, n uint16) bool {
		c := New(Config{SizeBytes: 2048, Ways: 2, BlockBytes: 64, PrefetchDegree: 1})
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			addr := r.Int63n(1 << 16)
			c.Access(addr, r.Intn(2) == 0)
			if !c.Access(addr, false).Hit {
				return false // temporal locality must always hit
			}
		}
		s := c.Stats()
		return s.Accesses == s.Hits+s.Misses && s.PrefetchHits <= s.PrefetchIssued
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestLineSize pins the packed line layout: pooled engines keep every line
// resident between runs, so a wider line grows a serving process's memory
// by a third.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 24 {
		t.Fatalf("line is %d bytes, want 24", got)
	}
}

// TestGenerationWrap drives the 32-bit generation through its wrap: the
// reset that wraps must leave a cache indistinguishable from a fresh one,
// not one whose never-filled (generation-0) lines read as live tag-0 hits.
func TestGenerationWrap(t *testing.T) {
	c := tiny()
	c.Access(64, true)
	c.gen = math.MaxUint32 // as after 2^32-1 resets
	c.Access(128, true)
	c.Reset()
	if c.gen == 0 {
		t.Fatal("generation wrapped to 0, which never-filled lines carry")
	}
	for _, addr := range []int64{0, 64, 128} {
		if r := c.Access(addr, false); r.Hit {
			t.Fatalf("access %d hit after the wrapping reset", addr)
		}
	}
}
