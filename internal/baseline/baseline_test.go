package baseline

import (
	"testing"

	"eventpf/internal/mem"
	"eventpf/internal/sim"
)

// thunk is a test-local Handler that runs a closure.
type thunk func()

func (f thunk) Handle(sim.Ticks, uint64, uint64) { f() }

type stubLevel struct {
	eng     *sim.Engine
	latency sim.Ticks
}

func (s *stubLevel) Access(req *mem.Request) {
	if req.Kind == mem.Writeback {
		return
	}
	if h := req.Completer(); h != nil {
		a := req.CompA
		s.eng.ScheduleAfter(s.latency, thunk(func() { h.Handle(s.eng.Now(), a, 0) }), 0, 0)
	}
}

type fixture struct {
	eng *sim.Engine
	bk  *mem.Backing
	l1  *mem.Cache
	tlb *mem.TLB
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	eng := sim.NewEngine()
	bk := mem.NewBacking()
	clk := sim.ClockFromMHz(3200)
	l1 := mem.NewCache(eng, clk, mem.CacheConfig{
		Name: "L1", SizeBytes: 32 << 10, Ways: 2, HitCycles: 2, MSHRs: 12,
	}, &stubLevel{eng: eng, latency: 2000})
	tlb := mem.NewTLB(eng, clk, mem.DefaultTLBConfig(), bk)
	return &fixture{eng: eng, bk: bk, l1: l1, tlb: tlb}
}

func (f *fixture) mapRange(lo, hi uint64) {
	for a := mem.PageAddr(lo); a < hi; a += mem.PageSize {
		f.bk.MapPage(a)
	}
}

func (f *fixture) load(addr uint64, pc int) {
	f.l1.Access(&mem.Request{Addr: addr, Kind: mem.Load, PC: pc, Tag: mem.NoTag, TimedAt: -1})
	f.eng.Run()
}

func TestStrideDetectsSteadyStream(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x40000)
	s := NewStride(f.eng, DefaultStrideConfig(), f.l1, f.tlb)

	for i := uint64(0); i < 16; i++ {
		f.load(0x10000+i*64, 7)
	}
	if s.Stats().Issued == 0 {
		t.Fatalf("stride issued nothing: %+v", s.Stats())
	}
	// After training, lines well ahead of the stream should be resident.
	if !f.l1.Contains(0x10000 + 18*64) {
		t.Error("line 2 ahead of the stream not prefetched")
	}
}

func TestStrideIgnoresRandomStream(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x200000)
	s := NewStride(f.eng, DefaultStrideConfig(), f.l1, f.tlb)
	seed := uint64(99)
	for i := 0; i < 50; i++ {
		seed = seed*6364136223846793005 + 1
		f.load(0x10000+(seed%0x1F0000)&^7, 7)
	}
	if got := s.Stats().Issued; got > 5 {
		t.Errorf("stride issued %d prefetches on a random stream", got)
	}
}

func TestStrideTracksNegativeStride(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x40000)
	s := NewStride(f.eng, DefaultStrideConfig(), f.l1, f.tlb)
	for i := 16; i >= 0; i-- {
		f.load(0x20000+uint64(i)*64, 3)
	}
	if s.Stats().Issued == 0 {
		t.Error("no prefetches for negative stride")
	}
}

func TestStrideSeparatePCs(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x100000)
	s := NewStride(f.eng, DefaultStrideConfig(), f.l1, f.tlb)
	// Two interleaved streams from different PCs: both should train.
	for i := uint64(0); i < 12; i++ {
		f.load(0x10000+i*64, 1)
		f.load(0x80000+i*128, 2)
	}
	if !f.l1.Contains(0x10000+13*64) || !f.l1.Contains(0x80000+13*128) {
		t.Errorf("interleaved streams not both prefetched (issued=%d)", s.Stats().Issued)
	}
}

func TestGHBRepredictsRepeatedSequence(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x100000, 0x900000)
	g := NewGHB(f.eng, RegularGHBConfig(), f.l1, f.tlb)

	// An irregular-but-repeating miss sequence. Addresses are far apart so
	// every access misses (no spatial reuse); each full pass repeats the
	// same order, which is exactly what a Markov predictor learns.
	seq := []uint64{0x100000, 0x300040, 0x240080, 0x5000c0, 0x180100, 0x700140}
	for pass := 0; pass < 2; pass++ {
		for _, a := range seq {
			f.load(a, 1)
		}
		// Evict by touching conflicting lines far away (same sets).
		for _, a := range seq {
			f.load(a+1<<21, 2)
			f.load(a+1<<22, 3)
		}
	}
	if g.Stats().Issued == 0 {
		t.Fatalf("GHB issued nothing on repeating sequence: %+v", g.Stats())
	}
}

func TestGHBSilentOnFirstPass(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x100000, 0x400000)
	g := NewGHB(f.eng, RegularGHBConfig(), f.l1, f.tlb)
	for i := uint64(0); i < 40; i++ {
		f.load(0x100000+i*8192+((i*i)%32)*64, 1) // no repeats
	}
	if got := g.Stats().Issued; got != 0 {
		t.Errorf("GHB issued %d prefetches with no history", got)
	}
}

func TestGHBRegularForgetsBeyondCapacity(t *testing.T) {
	f := newFixture(t)
	cfg := RegularGHBConfig()
	cfg.GHBSize = 32
	cfg.IndexSize = 32
	f.mapRange(0x100000, 0x2000000)
	g := NewGHB(f.eng, cfg, f.l1, f.tlb)

	seq := make([]uint64, 100) // far larger than the 32-entry history
	for i := range seq {
		seq[i] = 0x100000 + uint64(i)*128*64
	}
	for pass := 0; pass < 2; pass++ {
		for _, a := range seq {
			f.load(a, 1)
		}
	}
	// With only 32 entries of history over a 100-miss loop, predictions on
	// the second pass are mostly impossible.
	if got := g.Stats().Issued; got > 20 {
		t.Errorf("tiny GHB issued %d prefetches; capacity limit not modelled", got)
	}

	// Control: the large configuration predicts the second pass.
	f2 := newFixture(t)
	f2.mapRange(0x100000, 0x2000000)
	g2 := NewGHB(f2.eng, LargeGHBConfig(), f2.l1, f2.tlb)
	for pass := 0; pass < 2; pass++ {
		for _, a := range seq {
			f2.load(a, 1)
		}
	}
	if g2.Stats().Issued == 0 {
		t.Error("large GHB failed to predict a repeated 100-miss loop")
	}
}

func TestIssuerDropsOnQueueLimit(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x100000)
	is := newIssuer(f.eng, f.l1, f.tlb, 4)
	for i := uint64(0); i < 100; i++ {
		is.push(0x10000 + i*64)
	}
	f.eng.Run()
	if is.stats.QueueDrop == 0 {
		t.Error("no queue drops despite tiny queue limit")
	}
	if is.stats.Issued == 0 {
		t.Error("nothing issued")
	}
}

func TestIssuerDropsUnmapped(t *testing.T) {
	f := newFixture(t)
	is := newIssuer(f.eng, f.l1, f.tlb, 16)
	is.push(0xdeadbeef000)
	f.eng.Run()
	if is.stats.TLBDrops != 1 {
		t.Errorf("TLBDrops = %d, want 1", is.stats.TLBDrops)
	}
}

// Property: the stride prefetcher never prefetches for PCs it has not seen
// at least three accesses from (training discipline).
func TestStrideRequiresTraining(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x40000)
	s := NewStride(f.eng, DefaultStrideConfig(), f.l1, f.tlb)
	f.load(0x10000, 4)
	f.load(0x10040, 4)
	if got := s.Stats().Generated; got != 0 {
		t.Errorf("stride generated %d prefetches after 2 accesses, want 0", got)
	}
}

// Property: GHB predictions never exceed Depth per trigger.
func TestGHBDepthBound(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x100000, 0x4000000)
	cfg := RegularGHBConfig()
	g := NewGHB(f.eng, cfg, f.l1, f.tlb)
	// Many repetitions of a long sequence maximise available history.
	seq := make([]uint64, 40)
	for i := range seq {
		seq[i] = 0x100000 + uint64(i)*8192*8
	}
	for pass := 0; pass < 4; pass++ {
		before := g.Stats().Generated
		for _, a := range seq {
			f.load(a, 1)
		}
		perTrigger := (g.Stats().Generated - before + int64(len(seq)) - 1) / int64(len(seq))
		if perTrigger > int64(cfg.Depth) {
			t.Fatalf("pass %d: %d predictions per trigger > depth %d", pass, perTrigger, cfg.Depth)
		}
	}
}

// The stride prefetcher resets its entry when a different PC aliases into
// the same table slot (tag mismatch), rather than mixing streams.
func TestStrideTagMismatchResets(t *testing.T) {
	f := newFixture(t)
	f.mapRange(0x10000, 0x200000)
	cfg := DefaultStrideConfig()
	cfg.Entries = 4 // force aliasing: PCs 1 and 5 share a slot
	s := NewStride(f.eng, cfg, f.l1, f.tlb)
	for i := uint64(0); i < 6; i++ {
		f.load(0x10000+i*64, 1)
		f.load(0x100000+i*4096, 5)
	}
	// Each access evicts the other PC's entry, so neither stream can reach
	// the steady state and nothing may be prefetched.
	if got := s.Stats().Generated; got != 0 {
		t.Errorf("aliasing PCs still generated %d prefetches", got)
	}
}
