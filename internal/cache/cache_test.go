package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{SizeKB: 32, Assoc: 2}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Config{{SizeKB: 0, Assoc: 2}, {SizeKB: 32, Assoc: 0}, {SizeKB: 3, Assoc: 7}} {
		if _, err := New(bad); err == nil {
			t.Errorf("expected error for %+v", bad)
		}
	}
}

func TestHitAfterFill(t *testing.T) {
	c, _ := New(Config{SizeKB: 16, Assoc: 2})
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1038) { // same 64B line
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Fatal("next line should miss")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Fatalf("stats %d/%d", c.Accesses, c.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way cache: hammer three lines mapping to the same set; the least
	// recently used one must be the victim.
	c, _ := New(Config{SizeKB: 16, Assoc: 2}) // 128 sets
	setStride := uint64(128 * LineBytes)
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a)
	c.Access(b)
	c.Access(a) // a most recent
	c.Access(d) // evicts b
	if !c.Access(a) {
		t.Fatal("a should have survived (was MRU)")
	}
	if c.Access(b) {
		t.Fatal("b should have been evicted")
	}
}

func TestWorkingSetFitsPerfectly(t *testing.T) {
	c, _ := New(Config{SizeKB: 32, Assoc: 4})
	// Touch 16KB twice: second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 16*1024; addr += LineBytes {
			c.Access(addr)
		}
	}
	if c.Misses != 16*1024/LineBytes {
		t.Fatalf("misses %d, want only cold misses %d", c.Misses, 16*1024/LineBytes)
	}
}

func TestMissRate(t *testing.T) {
	c, _ := New(Config{SizeKB: 16, Assoc: 2})
	if c.MissRate() != 0 {
		t.Fatal("miss rate before accesses")
	}
	c.Access(0)
	c.Access(0)
	if c.MissRate() != 0.5 {
		t.Fatalf("miss rate %v", c.MissRate())
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := new(Hierarchy)
	if err := h.Reset(Config{SizeKB: 32, Assoc: 2}, Config{SizeKB: 32, Assoc: 2}); err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x100000)
	// Cold: L1 miss, L2 miss -> DRAM.
	if lat := h.DataLatency(addr); lat != L1HitLatency+L2HitLatency+DRAMLatency {
		t.Fatalf("cold latency %d", lat)
	}
	// Warm: L1 hit.
	if lat := h.DataLatency(addr); lat != L1HitLatency {
		t.Fatalf("warm latency %d", lat)
	}
	// Fetch path mirrors it.
	if lat := h.FetchLatency(0x200000); lat != L1HitLatency+L2HitLatency+DRAMLatency {
		t.Fatalf("cold fetch latency %d", lat)
	}
	if lat := h.FetchLatency(0x200000); lat != L1HitLatency {
		t.Fatalf("warm fetch latency %d", lat)
	}
}

func TestTaggedPrefetchCoversStreams(t *testing.T) {
	h := new(Hierarchy)
	if err := h.Reset(Config{SizeKB: 32, Assoc: 2}, Config{SizeKB: 32, Assoc: 2}); err != nil {
		t.Fatal(err)
	}
	// Stream 512 lines at 8-byte stride: after the first miss the tagged
	// next-line prefetcher must hide nearly all subsequent line misses.
	misses := 0
	for addr := uint64(0x100000); addr < 0x100000+512*LineBytes; addr += 8 {
		before := h.L1D.Misses
		h.DataLatency(addr)
		if h.L1D.Misses != before {
			misses++
		}
	}
	if misses > 4 {
		t.Fatalf("streaming misses %d, prefetcher ineffective", misses)
	}
	if h.Prefetches == 0 {
		t.Fatal("prefetcher never fired")
	}
}

func TestAccessesNeverPanicAndStatsMonotone(t *testing.T) {
	c, _ := New(Config{SizeKB: 16, Assoc: 4})
	f := func(addr uint64) bool {
		a0, m0 := c.Accesses, c.Misses
		c.Access(addr)
		return c.Accesses == a0+1 && (c.Misses == m0 || c.Misses == m0+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchDoesNotPerturbStats(t *testing.T) {
	c, _ := New(Config{SizeKB: 16, Assoc: 2})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		c.Install(rng.Uint64() % (1 << 20))
	}
	if c.Accesses != 0 || c.Misses != 0 {
		t.Fatalf("Install perturbed stats: %d/%d", c.Accesses, c.Misses)
	}
}

// resetGeometries are the cache shapes FuzzCacheResetParity checks: small
// L1s from direct-mapped to 8-way, and the fixed L2.
var resetGeometries = []Config{
	{SizeKB: 1, Assoc: 1}, {SizeKB: 1, Assoc: 2}, {SizeKB: 2, Assoc: 4},
	{SizeKB: 32, Assoc: 8}, {SizeKB: L2SizeKB, Assoc: L2Assoc},
}

// resetOpAddr decodes one fuzz byte into an access (or, with the low bit
// set, a prefetch install) of one of 32 lines in each of four sets, so
// sets overflow their ways and evict at every geometry.
func resetOpAddr(c *Cache, b byte) (addr uint64, install bool) {
	set, tag := uint64(b>>1)&3, uint64(b>>3)
	return (tag*(c.setMask+1) + set) << lineShift, b&1 == 1
}

// FuzzCacheResetParity pins Reset against New: a cache dirtied by an
// arbitrary access/install sequence and then reset must agree with a fresh
// cache of the same geometry on every hit/miss, every HitOnPrefetch and the
// counters over a second arbitrary sequence. Reset leaves the LRU ranks as
// the dirt left them, so this is also the check on the argument that ranks
// decide a victim only once every way has been touched since the reset.
func FuzzCacheResetParity(f *testing.F) {
	f.Add([]byte{0, 8, 16, 24, 32, 40, 48, 56, 64, 1, 9}, []byte{0, 8, 16, 24, 0, 72, 8, 80, 3, 2}, uint8(1))
	f.Add([]byte{1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25}, []byte{2, 0, 10, 8, 18, 16, 0, 26, 24, 34, 32, 8}, uint8(4))
	f.Add([]byte{255, 254, 127, 126, 0, 1, 2, 3}, []byte{1, 0, 0, 9, 8, 8, 17, 16, 16, 0}, uint8(2))
	f.Add([]byte{}, []byte{0, 8, 0, 16, 0, 24, 0, 32, 8}, uint8(3))
	f.Fuzz(func(t *testing.T, dirt, ops []byte, geom uint8) {
		cfg := resetGeometries[int(geom)%len(resetGeometries)]
		fresh, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reused, _ := New(cfg)
		for _, b := range dirt {
			if addr, install := resetOpAddr(reused, b); install {
				reused.Install(addr)
			} else {
				reused.Access(addr)
			}
		}
		reused.Reset()
		for i, b := range ops {
			addr, install := resetOpAddr(fresh, b)
			if install {
				fresh.Install(addr)
				reused.Install(addr)
				continue
			}
			want, got := fresh.Access(addr), reused.Access(addr)
			if got != want || reused.HitOnPrefetch != fresh.HitOnPrefetch {
				t.Fatalf("%+v op %d (%#x): reset cache hit=%v prefetch=%v, fresh hit=%v prefetch=%v",
					cfg, i, addr, got, reused.HitOnPrefetch, want, fresh.HitOnPrefetch)
			}
		}
		if reused.Accesses != fresh.Accesses || reused.Misses != fresh.Misses || reused.HitOnPrefetch != fresh.HitOnPrefetch {
			t.Fatalf("%+v: reset cache counts %d/%d, fresh %d/%d", cfg,
				reused.Accesses, reused.Misses, fresh.Accesses, fresh.Misses)
		}
	})
}

// TestHierarchyResetKeepsGeometry: Reset keeps the L2 and an L1 of
// unchanged geometry (emptied), and rebuilds an L1 whose geometry changed.
func TestHierarchyResetKeepsGeometry(t *testing.T) {
	l1 := Config{SizeKB: 32, Assoc: 2}
	h := new(Hierarchy)
	if err := h.Reset(l1, l1); err != nil {
		t.Fatal(err)
	}
	h.FetchLatency(0x4000)
	h.DataLatency(0x8000)
	i, d, l2 := h.L1I, h.L1D, h.L2
	if err := h.Reset(l1, Config{SizeKB: 64, Assoc: 2}); err != nil {
		t.Fatal(err)
	}
	if h.L1I != i || h.L2 != l2 || h.L1D == d {
		t.Fatal("Reset rebuilt a cache of unchanged geometry or kept one whose geometry changed")
	}
	if h.Prefetches != 0 || h.L1I.Accesses != 0 || h.L2.Accesses != 0 || h.L2.Misses != 0 {
		t.Fatal("Reset left counters behind")
	}
	if lat := h.FetchLatency(0x4000); lat != L1HitLatency+L2HitLatency+DRAMLatency {
		t.Fatalf("fetch after Reset took %d cycles, want a cold miss", lat)
	}
	if err := h.Reset(l1, Config{SizeKB: 3, Assoc: 7}); err == nil {
		t.Fatal("Reset accepted an invalid L1D geometry")
	}
}
