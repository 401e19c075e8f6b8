// Package cache models the two-level cache hierarchy of the evaluated
// processor: split first-level instruction and data caches (swept in the
// design space), a unified 8-way 2MB L2, and a fixed-latency DRAM main
// memory (Section 5.1 of the paper).
//
// The model is a timing filter: an access returns the number of cycles
// until data is available. Caches are set-associative with true-LRU
// replacement and are non-blocking only in the sense that the core overlaps
// latencies itself; the cache keeps no MSHR state. This matches the
// fidelity the DEG needs — the D-cache "skewed" edges carry the observed
// access latency, whatever produced it.
package cache

import "fmt"

// Latencies of the fixed parts of the hierarchy, in cycles.
const (
	L1HitLatency = 2  // Table 1: 2-cycle L1 I$ and D$
	L2HitLatency = 12 // typical L2 for the era's 2MB/8-way
	DRAMLatency  = 200
	L2SizeKB     = 2048
	L2Assoc      = 8
	LineBytes    = 64
	lineShift    = 6
)

// Config sizes one level-1 cache.
type Config struct {
	SizeKB int
	Assoc  int
}

// Cache is a set-associative cache with LRU replacement. Way state is
// stored in flat arrays indexed by set*assoc+way — one allocation per
// array instead of four slices per set, and a contiguous scan per lookup.
type Cache struct {
	tags []uint64
	// lru[base+i] is the recency rank of way i in its set (0 = most recent).
	lru   []uint8
	valid []bool
	// pfTag marks lines installed by the prefetcher and not yet demanded
	// (tagged prefetching: the first demand hit re-arms the prefetcher).
	pfTag   []bool
	assoc   int
	setMask uint64

	Accesses uint64
	Misses   uint64
	// HitOnPrefetch reports whether the most recent Access consumed a
	// prefetched line for the first time.
	HitOnPrefetch bool
}

// New builds a cache; size must divide evenly into sets of the given
// associativity.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeKB < 1 || cfg.Assoc < 1 {
		return nil, fmt.Errorf("cache: bad config %+v", cfg)
	}
	lines := cfg.SizeKB * 1024 / LineBytes
	nsets := lines / cfg.Assoc
	if nsets < 1 || nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: %dKB/%d-way yields %d sets (must be a power of two >= 1)", cfg.SizeKB, cfg.Assoc, nsets)
	}
	c := &Cache{
		assoc:   cfg.Assoc,
		setMask: uint64(nsets - 1),
		tags:    make([]uint64, nsets*cfg.Assoc),
		lru:     make([]uint8, nsets*cfg.Assoc),
		valid:   make([]bool, nsets*cfg.Assoc),
		pfTag:   make([]bool, nsets*cfg.Assoc),
	}
	// Recency ranks form a permutation 0..assoc-1 within each set; touch
	// preserves that invariant, so they must start distinct.
	for i := range c.lru {
		c.lru[i] = uint8(i % cfg.Assoc)
	}
	return c, nil
}

// Reset empties the cache in place: it behaves exactly like New with the
// same geometry. Tags and prefetch tags go stale behind cleared valid bits
// (every fill rewrites both), and the LRU ranks are left as they are: a
// victim is chosen by rank only when every way of its set is valid, and by
// then every way has been filled or hit — touched — since the reset. A
// touch moves its way to rank 0 and keeps the relative order of the
// others, so once all ways are touched the ranks are their recency order
// whatever permutation they started from (FuzzCacheResetParity pins this
// against a fresh cache).
func (c *Cache) Reset() {
	clear(c.valid)
	c.Accesses, c.Misses, c.HitOnPrefetch = 0, 0, false
}

// renew resets c in place when it has cfg's geometry and builds a new
// cache otherwise (c may be nil).
func renew(c *Cache, cfg Config) (*Cache, error) {
	if c != nil && c.assoc == cfg.Assoc && len(c.tags) == cfg.SizeKB*1024/LineBytes {
		c.Reset()
		return c, nil
	}
	return New(cfg)
}

// Access looks up addr, filling the line on a miss, and reports whether the
// access hit. HitOnPrefetch is set when the hit consumed a prefetched line
// for the first time (the hierarchy re-arms the prefetcher on that signal).
func (c *Cache) Access(addr uint64) bool {
	c.HitOnPrefetch = false
	c.Accesses++
	hit, _ := c.lookup(addr, false)
	return hit
}

// Install fills addr as a prefetch: no statistics, line tagged.
func (c *Cache) Install(addr uint64) {
	c.lookup(addr, true)
}

func (c *Cache) lookup(addr uint64, isPrefetch bool) (hit bool, way int) {
	line := addr >> lineShift
	base := int(line&c.setMask) * c.assoc
	tag := line >> 1 // keep set bits out of the tag for compactness

	for w := 0; w < c.assoc; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.touch(base, w)
			if !isPrefetch && c.pfTag[base+w] {
				c.pfTag[base+w] = false
				c.HitOnPrefetch = true
			}
			return true, w
		}
	}
	if !isPrefetch {
		c.Misses++
	}
	// Fill the LRU way.
	victim := 0
	for w := 0; w < c.assoc; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
		if c.lru[base+w] > c.lru[base+victim] {
			victim = w
		}
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.pfTag[base+victim] = isPrefetch
	c.touch(base, victim)
	return false, victim
}

// touch promotes way w of the set at base to most-recently-used.
func (c *Cache) touch(base, w int) {
	old := c.lru[base+w]
	for i := 0; i < c.assoc; i++ {
		if c.lru[base+i] < old {
			c.lru[base+i]++
		}
	}
	c.lru[base+w] = 0
}

// MissRate returns misses/accesses, or 0 before any access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Hierarchy bundles L1I, L1D, and the shared L2 with its timing.
type Hierarchy struct {
	L1I, L1D   *Cache
	L2         *Cache
	Prefetches uint64
}

// Reset sets the hierarchy up, empty, for a new design point; a zero
// Hierarchy is built by it. The fixed L2, and an L1 whose size and
// associativity are unchanged, are emptied in place; any other L1 is built
// anew.
func (h *Hierarchy) Reset(l1i, l1d Config) error {
	var err error
	if h.L1I, err = renew(h.L1I, l1i); err != nil {
		return fmt.Errorf("L1I: %w", err)
	}
	if h.L1D, err = renew(h.L1D, l1d); err != nil {
		return fmt.Errorf("L1D: %w", err)
	}
	if h.L2, err = renew(h.L2, Config{SizeKB: L2SizeKB, Assoc: L2Assoc}); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	h.Prefetches = 0
	return nil
}

// FetchLatency returns the cycles to fetch the instruction line at addr.
// Misses trigger a next-line prefetch (sequential code dominates).
func (h *Hierarchy) FetchLatency(addr uint64) int {
	if h.L1I.Access(addr) {
		if h.L1I.HitOnPrefetch {
			h.prefetch(h.L1I, addr+LineBytes)
		}
		return L1HitLatency
	}
	// The demand L2 access must precede the next-line install so the
	// prefetch cannot perturb this access's hit/miss or LRU outcome.
	lat := L1HitLatency + L2HitLatency
	if !h.L2.Access(addr) {
		lat += DRAMLatency
	}
	h.prefetch(h.L1I, addr+LineBytes)
	return lat
}

// DataLatency returns the cycles for a data access at addr. Stores use the
// same path (no write buffer modelled; the SQ provides the buffering).
// Misses trigger a tagged next-line prefetch, the timing-free equivalent of
// gem5's stride prefetcher for unit-stride streams.
func (h *Hierarchy) DataLatency(addr uint64) int {
	if h.L1D.Access(addr) {
		if h.L1D.HitOnPrefetch {
			h.prefetch(h.L1D, addr+LineBytes)
		}
		return L1HitLatency
	}
	lat := L1HitLatency + L2HitLatency
	if !h.L2.Access(addr) {
		lat += DRAMLatency
	}
	h.prefetch(h.L1D, addr+LineBytes)
	return lat
}

// prefetch installs a line into l1 and the L2 without perturbing the demand
// hit/miss statistics.
func (h *Hierarchy) prefetch(l1 *Cache, addr uint64) {
	l1.Install(addr)
	h.L2.Install(addr)
	h.Prefetches++
}
