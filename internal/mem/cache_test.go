package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eventpf/internal/sim"
)

// thunk is a test-local Handler that runs a closure.
type thunk func()

func (f thunk) Handle(sim.Ticks, uint64, uint64) { f() }

// fixedLevel is a next-level stub with constant latency.
type fixedLevel struct {
	eng     *sim.Engine
	latency sim.Ticks
	count   int64
}

func (f *fixedLevel) Access(req *Request) {
	f.count++
	if h := req.Completer(); h != nil {
		a := req.CompA
		f.eng.ScheduleAfter(f.latency, thunk(func() { h.Handle(f.eng.Now()+f.latency, a, 0) }), 0, 0)
	}
}

func newTestCache(eng *sim.Engine, mshrs int) (*Cache, *fixedLevel) {
	next := &fixedLevel{eng: eng, latency: 1000}
	clk := sim.ClockFromMHz(1000)
	c := NewCache(eng, clk, CacheConfig{
		Name: "L1", SizeBytes: 1024, Ways: 2, HitCycles: 2, MSHRs: mshrs,
	}, next)
	return c, next
}

func loadAt(eng *sim.Engine, c *Cache, addr uint64, done func(sim.Ticks)) {
	c.Access(&Request{Addr: addr, Kind: Load, PC: -1, Tag: NoTag, TimedAt: -1, Done: done})
}

func TestCacheMissThenHit(t *testing.T) {
	eng := sim.NewEngine()
	c, next := newTestCache(eng, 4)

	var missAt, hitAt sim.Ticks = -1, -1
	loadAt(eng, c, 0x40, func(at sim.Ticks) { missAt = at })
	eng.Run()
	if missAt < 1000 {
		t.Errorf("miss completed at %d, want ≥ next-level latency", missAt)
	}
	if c.Stats.DemandLoads != 1 || c.Stats.DemandHits != 0 {
		t.Errorf("stats after miss: %+v", c.Stats)
	}

	loadAt(eng, c, 0x48, func(at sim.Ticks) { hitAt = at }) // same line
	start := eng.Now()
	eng.Run()
	if hitAt != start+32 { // 2 cycles at 1 GHz = 32 ticks
		t.Errorf("hit completed at %d, want %d", hitAt, start+32)
	}
	if c.Stats.DemandHits != 1 {
		t.Errorf("hit not counted: %+v", c.Stats)
	}
	if next.count != 1 {
		t.Errorf("next level saw %d accesses, want 1", next.count)
	}
}

func TestCacheMSHRMerge(t *testing.T) {
	eng := sim.NewEngine()
	c, next := newTestCache(eng, 4)
	completions := 0
	loadAt(eng, c, 0x40, func(sim.Ticks) { completions++ })
	loadAt(eng, c, 0x48, func(sim.Ticks) { completions++ }) // same line, merges
	eng.Run()
	if completions != 2 {
		t.Errorf("completions = %d, want 2", completions)
	}
	if next.count != 1 {
		t.Errorf("next level saw %d accesses, want 1 (merge)", next.count)
	}
	if c.Stats.MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d, want 1", c.Stats.MSHRMerges)
	}
}

func TestCacheMSHRLimitQueuesDemand(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 2)
	done := 0
	for i := 0; i < 4; i++ {
		loadAt(eng, c, uint64(0x1000*(i+1)), func(sim.Ticks) { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Errorf("done = %d, want 4 (queued misses must eventually complete)", done)
	}
	if c.Stats.MSHRStalls != 2 {
		t.Errorf("MSHRStalls = %d, want 2", c.Stats.MSHRStalls)
	}
}

func TestCachePrefetchDroppedWhenMSHRsFull(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 1)
	loadAt(eng, c, 0x1000, nil)
	c.Access(&Request{Addr: 0x2000, Kind: Prefetch, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	if c.Stats.PrefetchDrop != 1 {
		t.Errorf("PrefetchDrop = %d, want 1", c.Stats.PrefetchDrop)
	}
}

func TestCachePrefetchFillThenDemandHit(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	c.Access(&Request{Addr: 0x40, Kind: Prefetch, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	if c.Stats.PrefetchFills != 1 {
		t.Fatalf("PrefetchFills = %d, want 1", c.Stats.PrefetchFills)
	}
	hit := false
	loadAt(eng, c, 0x40, func(sim.Ticks) { hit = true })
	eng.Run()
	if !hit || c.Stats.DemandHits != 1 {
		t.Errorf("demand after prefetch: hit=%v stats=%+v", hit, c.Stats)
	}
	c.FinalizeStats()
	if c.Stats.PrefetchUsed != 1 || c.Stats.PrefetchDead != 0 {
		t.Errorf("utilisation counters: %+v", c.Stats)
	}
	if got := c.Stats.PrefetchUtilisation(); got != 1.0 {
		t.Errorf("PrefetchUtilisation = %v, want 1.0", got)
	}
}

func TestCacheDeadPrefetchCounted(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	c.Access(&Request{Addr: 0x40, Kind: Prefetch, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	c.FinalizeStats()
	if c.Stats.PrefetchDead != 1 {
		t.Errorf("PrefetchDead = %d, want 1", c.Stats.PrefetchDead)
	}
}

func TestCacheTaggedPrefetchFiresHook(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	var fired []int
	c.OnPrefetchFill = func(line uint64, tag int, timedAt sim.Ticks, filled bool) {
		fired = append(fired, tag)
	}
	c.Access(&Request{Addr: 0x40, Kind: Prefetch, PC: -1, Tag: 7, TimedAt: -1})
	eng.Run()
	if len(fired) != 1 || fired[0] != 7 {
		t.Fatalf("fill hook fired %v, want [7]", fired)
	}
	// Prefetch to a resident line must still fire the hook (chain continues).
	c.Access(&Request{Addr: 0x40, Kind: Prefetch, PC: -1, Tag: 9, TimedAt: -1})
	eng.Run()
	if len(fired) != 2 || fired[1] != 9 {
		t.Errorf("resident-line prefetch hook fired %v, want [7 9]", fired)
	}
}

func TestCacheDemandSnoopHook(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	type obs struct {
		addr uint64
		hit  bool
	}
	var seen []obs
	c.OnDemandAccess = func(addr uint64, pc int, hit bool) { seen = append(seen, obs{addr, hit}) }
	loadAt(eng, c, 0x44, nil)
	eng.Run()
	loadAt(eng, c, 0x44, nil)
	eng.Run()
	if len(seen) != 2 || seen[0].hit || !seen[1].hit {
		t.Errorf("snoop observations = %+v", seen)
	}
	if seen[0].addr != 0x44 {
		t.Errorf("snoop saw addr %#x, want exact address 0x44", seen[0].addr)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 8) // 1 KB, 2-way, 8 sets
	// Three lines mapping to set 0: 0x0, 0x200, 0x400 (stride = sets*64).
	loadAt(eng, c, 0x0, nil)
	eng.Run()
	loadAt(eng, c, 0x200, nil)
	eng.Run()
	loadAt(eng, c, 0x0, nil) // touch 0x0 so 0x200 is LRU
	eng.Run()
	loadAt(eng, c, 0x400, nil) // must evict 0x200
	eng.Run()
	if !c.Contains(0x0) || !c.Contains(0x400) || c.Contains(0x200) {
		t.Errorf("LRU eviction wrong: contains(0)=%v contains(400)=%v contains(200)=%v",
			c.Contains(0x0), c.Contains(0x400), c.Contains(0x200))
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	eng := sim.NewEngine()
	next := &fixedLevel{eng: eng, latency: 10}
	c := NewCache(eng, sim.ClockFromMHz(1000), CacheConfig{
		Name: "L1", SizeBytes: 128, Ways: 1, HitCycles: 1, MSHRs: 4,
	}, next)
	c.Access(&Request{Addr: 0x0, Kind: Store, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	before := next.count
	loadAt(eng, c, 0x80, nil) // conflicts with 0x0 in the 2-set direct-mapped cache
	eng.Run()
	// next sees: fill for 0x80 plus a writeback of dirty 0x0.
	if next.count != before+2 {
		t.Errorf("next level accesses = %d, want %d (fill+writeback)", next.count, before+2)
	}
	if c.Stats.Writebacks == 0 {
		t.Error("writeback not counted")
	}
}

func TestOnMSHRFreeKick(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 1)
	kicks := 0
	c.OnMSHRFree = func() { kicks++ }
	loadAt(eng, c, 0x1000, nil)
	eng.Run()
	if kicks != 1 {
		t.Errorf("OnMSHRFree fired %d times, want 1", kicks)
	}
}

// Property: a demand load to an address always completes, and a second load
// to the same line issued after the first completes always hits.
func TestCacheHitAfterFillProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		c, _ := newTestCache(eng, 12)
		addrs := make([]uint64, 20)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1<<16)) &^ 7
		}
		for _, a := range addrs {
			done := false
			loadAt(eng, c, a, func(sim.Ticks) { done = true })
			eng.Run()
			if !done {
				return false
			}
			hit := false
			loadAt(eng, c, a, func(sim.Ticks) { hit = true })
			hits := c.Stats.DemandHits
			eng.Run()
			if !hit || c.Stats.DemandHits != hits+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
