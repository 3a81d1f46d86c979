// Package mem provides the simulated memory system shared by the
// device models: a flat global arena with buffer allocation, a
// set-associative write-back cache model, and a DRAM channel model for
// the board's DDR3L-1600 memory.
package mem

import (
	"fmt"
	"math/bits"
)

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// CacheStats accumulates cache behaviour.
type CacheStats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64
}

// MissRate returns the fraction of accesses that missed.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// line is one cache line: the tag (the full line number) packed with
// the valid and dirty flags in tv (so a probe is a single masked
// compare and a line is 16 bytes), plus the LRU tick.
type line struct {
	tv  uint64
	lru uint64
}

const (
	lineValid = uint64(1) << 63
	lineDirty = uint64(1) << 62
)

// Cache is a set-associative write-back, write-allocate cache with LRU
// replacement. It models hit/miss behaviour only; data lives in the
// backing arena.
//
// The line/set arithmetic sits on the simulator's per-access hot path.
// Line sizes are powers of two (NewCache requires it), so the line
// number is a shift. Set counts need not be: the modelled L2s have 384
// (CPU) and 96 (GPU) sets. The tag is therefore the whole line number,
// which needs no division, and the set index is the line number modulo
// the set count computed by an exact multiply-shift (Lemire's fastmod),
// with a checked % beyond the range where that is exact. Each set keeps
// its most recently used line in way 0 (a hit or fill swaps it to the
// front), so a probe tries that way first; the order of lines within a
// set never changes what hits, what the LRU victim is or what is
// written back. lines is one flat ways-major array to spare a level of
// slice indirection.
type Cache struct {
	cfg       CacheConfig
	lines     []line
	ways      int
	nsets     uint64
	lineShift uint
	// setM is ceil(2^64 / nsets); (setM*ln) * nsets >> 64 is ln mod
	// nsets for every ln below fastLimit.
	setM      uint64
	fastLimit uint64
	tick      uint64
	stats     CacheStats
}

// NewCache builds a cache from cfg. The line size must be a power of
// two; the set count is any positive integer.
func NewCache(cfg CacheConfig) *Cache {
	lb := uint64(cfg.LineBytes)
	if lb == 0 || lb&(lb-1) != 0 {
		panic(fmt.Sprintf("mem: cache line size %d is not a power of two", cfg.LineBytes))
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if nsets < 1 {
		nsets = 1
	}
	d := uint64(nsets)
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, nsets*cfg.Ways),
		ways:      cfg.Ways,
		nsets:     d,
		lineShift: uint(bits.TrailingZeros64(lb)),
		setM:      ^uint64(0)/d + 1,
		// Exact for ln < 2^N whenever d <= 2^(64-N) (Lemire, Kaser and
		// Kurz, "Faster remainder by direct computation", 2019).
		fastLimit: 1 << (64 - bits.Len64(d)),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() CacheStats { return c.stats }

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
	c.stats = CacheStats{}
	c.tick = 0
}

// setOf returns the set index of line number ln.
func (c *Cache) setOf(ln uint64) uint64 {
	if ln < c.fastLimit {
		hi, _ := bits.Mul64(c.setM*ln, c.nsets)
		return hi
	}
	return ln % c.nsets
}

// Access touches the byte range [addr, addr+size). It returns the
// number of line misses the access caused (each implying a fill from
// the next level) and the number of dirty writebacks.
func (c *Cache) Access(addr uint64, size int, write bool) (misses, writebacks int) {
	if size <= 0 {
		size = 1
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	// Probe and fill are fused into one pass so the set arithmetic and
	// the ways subslice are computed once per line touched.
	for ln := first; ln <= last; ln++ {
		c.tick++
		c.stats.Accesses++
		si := c.setOf(ln)
		base := int(si) * c.ways
		set := c.lines[base : base+c.ways]
		// Line numbers stay below bit 62 (the flags) for any line of
		// four bytes or more.
		want := ln | lineValid
		hit := -1
		if set[0].tv&^lineDirty == want {
			hit = 0
		} else {
			for i := 1; i < len(set); i++ {
				if set[i].tv&^lineDirty == want {
					hit = i
					break
				}
			}
		}
		if hit >= 0 {
			l := set[hit]
			l.lru = c.tick
			if write {
				l.tv |= lineDirty
			}
			set[hit] = set[0]
			set[0] = l
			c.stats.Hits++
			continue
		}
		c.stats.Misses++
		misses++
		victim := 0
		for i := range set {
			if set[i].tv&lineValid == 0 {
				victim = i
				break
			}
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
		if set[victim].tv&(lineValid|lineDirty) == lineValid|lineDirty {
			c.stats.Writebacks++
			writebacks++
		}
		tv := want
		if write {
			tv |= lineDirty
		}
		set[victim] = set[0]
		set[0] = line{tv: tv, lru: c.tick}
	}
	return misses, writebacks
}
