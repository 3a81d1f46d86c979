package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	if m, _ := c.Access(0, 4, false); m != 1 {
		t.Fatalf("first access misses = %d, want 1", m)
	}
	if m, _ := c.Access(0, 4, false); m != 0 {
		t.Fatalf("second access misses = %d, want 0", m)
	}
	if m, _ := c.Access(60, 4, false); m != 0 {
		t.Fatalf("same-line access misses = %d, want 0", m)
	}
}

func TestCacheLineSpanning(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	// A 16-byte access straddling a line boundary touches two lines.
	if m, _ := c.Access(56, 16, false); m != 2 {
		t.Fatalf("straddling access misses = %d, want 2", m)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One set: 2 ways, 2 sets total (256B / 64B / 2).
	c := NewCache(CacheConfig{SizeBytes: 256, LineBytes: 64, Ways: 2})
	// Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
	c.Access(0*64, 4, false)
	c.Access(2*64, 4, false)
	c.Access(0*64, 4, false) // touch 0, making 2 the LRU
	c.Access(4*64, 4, false) // evicts 2
	if m, _ := c.Access(0*64, 4, false); m != 0 {
		t.Fatal("line 0 should have survived (was MRU)")
	}
	if m, _ := c.Access(2*64, 4, false); m != 1 {
		t.Fatal("line 2 should have been evicted (was LRU)")
	}
}

func TestCacheWriteback(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 128, LineBytes: 64, Ways: 1})
	c.Access(0, 4, true) // dirty line 0, set 0
	// Line 2 maps to set 0 too (2 sets? 128/64/1 = 2 sets; line0->set0, line2->set0).
	_, wb := c.Access(2*64, 4, false)
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1 (dirty eviction)", wb)
	}
	// Clean eviction must not write back.
	_, wb = c.Access(4*64, 4, false)
	if wb != 0 {
		t.Fatalf("writebacks = %d, want 0 (clean eviction)", wb)
	}
}

func TestCacheStatsAndReset(t *testing.T) {
	c := NewCache(CacheConfig{SizeBytes: 1024, LineBytes: 64, Ways: 2})
	c.Access(0, 4, false)
	c.Access(0, 4, false)
	s := c.Stats()
	if s.Accesses != 2 || s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.MissRate(); got != 0.5 {
		t.Fatalf("MissRate = %v", got)
	}
	c.Reset()
	if c.Stats().Accesses != 0 {
		t.Fatal("Reset did not clear stats")
	}
	if m, _ := c.Access(0, 4, false); m != 1 {
		t.Fatal("Reset did not clear contents")
	}
}

// Property: a working set smaller than one way per set never misses
// after the first pass (LRU must retain it).
func TestCacheSmallWorkingSetProperty(t *testing.T) {
	f := func(seed uint8) bool {
		c := NewCache(CacheConfig{SizeBytes: 4096, LineBytes: 64, Ways: 4})
		base := uint64(seed) * 64
		// 16 lines = 1KB working set in a 4KB cache.
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < 16; i++ {
				m, _ := c.Access(base+uint64(i)*64, 4, false)
				if pass > 0 && m != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArenaAllocAlignmentAndGrowth(t *testing.T) {
	a := NewArena(1 << 20)
	b1, err := a.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b1%64 != 0 {
		t.Fatalf("allocation not 64-aligned: %d", b1)
	}
	b2, err := a.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b2 < b1+100 {
		t.Fatalf("allocations overlap: %d then %d", b1, b2)
	}
	if b2%64 != 0 {
		t.Fatalf("second allocation not aligned: %d", b2)
	}
}

func TestArenaExhaustion(t *testing.T) {
	a := NewArena(4096)
	if _, err := a.Alloc(1<<20, 64); err == nil {
		t.Fatal("oversized allocation should fail")
	}
	if _, err := a.Alloc(-1, 64); err == nil {
		t.Fatal("negative allocation should fail")
	}
}

func TestArenaLoadStore(t *testing.T) {
	a := NewArena(1 << 16)
	base, err := a.Alloc(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.StoreBits(base, 4, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := a.LoadBits(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xDEADBEEF {
		t.Fatalf("LoadBits = %#x", v)
	}
	// Little-endian byte order.
	raw, err := a.Bytes(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0xEF || raw[3] != 0xDE {
		t.Fatalf("byte order wrong: % x", raw)
	}
	if _, err := a.LoadBits(1<<20, 4); err == nil {
		t.Fatal("out-of-bounds load should fail")
	}
}

// TestArenaOverflowSafe checks near-MaxInt64 sizes and offsets error
// cleanly instead of wrapping negative and "fitting" (or slicing out
// of bounds).
func TestArenaOverflowSafe(t *testing.T) {
	a := NewArena(4096)
	base, err := a.Alloc(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(math.MaxInt64-32, 64); err == nil {
		t.Fatal("near-MaxInt64 allocation should fail, not wrap")
	}
	if _, err := a.Bytes(math.MaxInt64, 16); err == nil {
		t.Fatal("Bytes with MaxInt64 offset should fail")
	}
	if _, err := a.Bytes(base, math.MaxInt64); err == nil {
		t.Fatal("Bytes with MaxInt64 length should fail")
	}
	if _, err := a.Bytes(math.MaxInt64, math.MaxInt64); err == nil {
		t.Fatal("Bytes with wrapping off+n should fail")
	}
	if _, err := a.Bytes(-1, 4); err == nil {
		t.Fatal("Bytes with negative offset should fail")
	}
	if _, err := a.LoadBits(math.MaxInt64-2, 8); err == nil {
		t.Fatal("LoadBits with wrapping off+size should fail")
	}
	if err := a.StoreBits(math.MaxInt64-2, 8, 0); err == nil {
		t.Fatal("StoreBits with wrapping off+size should fail")
	}
	// The valid allocation still works after the rejected ones.
	if err := a.StoreBits(base, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	if v, err := a.LoadBits(base, 8); err != nil || v != 0x1122334455667788 {
		t.Fatalf("round trip after rejections: %#x, %v", v, err)
	}
}

func TestArenaFreeReclaimsTail(t *testing.T) {
	a := NewArena(1 << 16)
	b1, _ := a.Alloc(1024, 64)
	inUse := a.InUse()
	a.Free(b1)
	if a.InUse() != inUse-1024 {
		t.Fatalf("InUse after free = %d", a.InUse())
	}
	b2, _ := a.Alloc(512, 64)
	if b2 > b1+4096 {
		t.Fatalf("tail free did not reclaim space: %d then %d", b1, b2)
	}
}

// Property: LoadBits(StoreBits(x)) == x for all sizes.
func TestArenaRoundTripProperty(t *testing.T) {
	a := NewArena(1 << 16)
	base, _ := a.Alloc(4096, 64)
	f := func(v uint64, off uint16, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		o := base + int64(off%2048)
		masked := v
		if size < 8 {
			masked = v & ((1 << (8 * uint(size))) - 1)
		}
		if err := a.StoreBits(o, size, v); err != nil {
			return false
		}
		got, err := a.LoadBits(o, size)
		return err == nil && got == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refCache is the naive reference model: one slice of ways per set,
// set index and tag by division, LRU by access tick.
type refCache struct {
	sets      [][]refLine
	lineBytes uint64
	tick      uint64
	stats     CacheStats
}

type refLine struct {
	valid, dirty bool
	tag, lru     uint64
}

func newRefCache(cfg CacheConfig) *refCache {
	nsets := max(cfg.SizeBytes/(cfg.LineBytes*cfg.Ways), 1)
	r := &refCache{sets: make([][]refLine, nsets), lineBytes: uint64(cfg.LineBytes)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, cfg.Ways)
	}
	return r
}

func (r *refCache) access(addr uint64, size int, write bool) (misses, writebacks int) {
	if size <= 0 {
		size = 1
	}
	nsets := uint64(len(r.sets))
	for ln := addr / r.lineBytes; ln <= (addr+uint64(size)-1)/r.lineBytes; ln++ {
		r.tick++
		r.stats.Accesses++
		set, tag := r.sets[ln%nsets], ln/nsets
		hit := false
		for i := range set {
			if set[i].valid && set[i].tag == tag {
				set[i].lru = r.tick
				set[i].dirty = set[i].dirty || write
				hit = true
				break
			}
		}
		if hit {
			r.stats.Hits++
			continue
		}
		r.stats.Misses++
		misses++
		victim := -1
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
			if victim < 0 || set[i].lru < set[victim].lru {
				victim = i
			}
		}
		if set[victim].valid && set[victim].dirty {
			r.stats.Writebacks++
			writebacks++
		}
		set[victim] = refLine{valid: true, dirty: write, tag: tag, lru: r.tick}
	}
	return misses, writebacks
}

// TestCacheMatchesReference drives the cache and the naive reference
// with the same random access streams — power-of-two and
// non-power-of-two set counts (the modelled L2s have 384 and 96 sets),
// addresses clustered near the 1<<44..1<<46 space bases the device
// models map local, private and global memory to, plus a few beyond
// the multiply-shift's exact range — and requires identical per-call
// misses and writebacks and identical final statistics.
func TestCacheMatchesReference(t *testing.T) {
	geoms := []CacheConfig{
		{SizeBytes: 1024, LineBytes: 64, Ways: 2},       // 8 sets
		{SizeBytes: 128, LineBytes: 64, Ways: 2},        // 1 set
		{SizeBytes: 768 << 10, LineBytes: 64, Ways: 32}, // 384 sets
		{SizeBytes: 96 << 10, LineBytes: 64, Ways: 16},  // 96 sets
		{SizeBytes: 3 * 64 * 4, LineBytes: 64, Ways: 4}, // 3 sets
		{SizeBytes: 7 * 32 * 2, LineBytes: 32, Ways: 2}, // 7 sets, 32-byte lines
	}
	bases := []uint64{0, 1 << 44, 1 << 45, 1 << 46, 1<<46 + 1<<22}
	for gi, cfg := range geoms {
		c, ref := NewCache(cfg), newRefCache(cfg)
		rnd := rand.New(rand.NewSource(int64(gi) + 1))
		span := uint64(cfg.SizeBytes) * 4
		for i := 0; i < 20000; i++ {
			var addr uint64
			switch rnd.Intn(16) {
			case 0: // beyond the fast range of any set count
				addr = math.MaxUint64 - uint64(rnd.Intn(1<<20))
			case 1:
				addr = uint64(1)<<60 + uint64(rnd.Int63n(1<<20))
			default:
				addr = bases[rnd.Intn(len(bases))] + uint64(rnd.Int63n(int64(span)))
			}
			size := 1 << rnd.Intn(7)
			write := rnd.Intn(3) == 0
			if addr > math.MaxUint64-uint64(size) {
				addr -= uint64(size)
			}
			gm, gw := c.Access(addr, size, write)
			wm, ww := ref.access(addr, size, write)
			if gm != wm || gw != ww {
				t.Fatalf("%+v access %d (addr %#x size %d write %v): misses/writebacks %d/%d, reference %d/%d",
					cfg, i, addr, size, write, gm, gw, wm, ww)
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("%+v: stats %+v, reference %+v", cfg, c.Stats(), ref.stats)
		}
	}
}

// TestCacheSetIndexExact checks the multiply-shift set index against
// % at the edges of its exact range for the modelled set counts.
func TestCacheSetIndexExact(t *testing.T) {
	for _, nsets := range []int{1, 2, 3, 7, 96, 384, 512, 1000} {
		c := NewCache(CacheConfig{SizeBytes: nsets * 64, LineBytes: 64, Ways: 1})
		for _, ln := range []uint64{0, 1, uint64(nsets) - 1, uint64(nsets), 1 << 38, 1<<40 + 12345,
			c.fastLimit - 1, c.fastLimit, c.fastLimit + 1, math.MaxUint64 >> 6} {
			if got, want := c.setOf(ln), ln%uint64(nsets); got != want {
				t.Errorf("nsets %d: setOf(%#x) = %d, want %d", nsets, ln, got, want)
			}
		}
	}
}
